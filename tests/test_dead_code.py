"""Every module-level name of the package is reached from `cli.main`,
every method is named outside its own definition, every import sits at
module level, and every name a test module imports is read."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coersimp"
EXEMPT = {"__version__"}
# Names that `cli.main` does not reach, each kept for a reason.
ALLOWED = {
    ("subst", "apply_context"): "bench/layertrace.py traces it as a layer",
    ("sample", "sample_eta"): "bench/run.py draws the warm-up's witness sample with it",
    ("semantics", "interp_cco"): "bench/layertrace.py traces it as a layer",
}


def module_level_bindings(tree):
    """The functions, classes and constants a module defines at top level,
    each with the node whose names it reads."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    yield t.id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def package_graph(package: Path):
    """`(module, name) -> the (module, name) pairs its node reads`, over the
    package's module-level bindings. A name resolves to its own module's
    binding or to the binding it was imported as; `m.name` resolves
    through an imported module `m`. A class reads what its methods read."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    graph = {}
    for mod, tree in trees.items():
        own = dict(module_level_bindings(tree))
        imported, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    else:
                        imported[alias.asname or alias.name] = (node.module, alias.name)
        for name, node in own.items():
            reads = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name):
                    if n.id in own:
                        reads.add((mod, n.id))
                    elif n.id in imported:
                        reads.add(imported[n.id])
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in modules):
                    reads.add((modules[n.value.id], n.attr))
            graph[(mod, name)] = reads
    return graph


def unreached(package: Path, root=("cli", "main")):
    graph = package_graph(package)
    seen, todo = {root}, [root]
    while todo:
        for nxt in graph.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return sorted(key for key in graph if key not in seen and key[1] not in EXEMPT)


def test_every_module_level_name_is_reached_from_main():
    assert unreached(PACKAGE) == sorted(ALLOWED)


def test_every_allowed_name_is_still_used_where_its_reason_says():
    """Each reason cites one `bench/` file, and that file still mentions the
    name, so an entry cannot outlive its reason."""
    for (mod, name), reason in ALLOWED.items():
        (cited,) = re.findall(r"bench/\w+\.py", reason)
        assert re.search(rf"\b{name}\b", (ROOT / cited).read_text()), (mod, name, cited)


def test_no_function_imports():
    """Imports sit at module level, where the dependencies between modules show."""
    inner = [f"{path.name}:{node.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))]
    assert not inner, inner



def names_in(node) -> Counter:
    """How often each identifier is named under `node`: as a name, an
    attribute or a string constant."""
    return Counter(x for n in ast.walk(node)
                   for x in (getattr(n, "id", None), getattr(n, "attr", None),
                             getattr(n, "value", None))
                   if isinstance(x, str))


def test_every_method_is_named_outside_its_own_definition():
    """Each non-dunder method of a package class is named somewhere in
    `src/` outside its own definition, so no method is left that only
    tests call."""
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    everywhere = sum((names_in(tree) for tree in trees), Counter())
    unnamed = [f"{cls.name}.{fn.name}"
               for tree in trees for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body
               if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__")
               and everywhere[fn.name] == names_in(fn)[fn.name]]
    assert not unnamed, unnamed


def test_every_name_a_test_module_imports_is_read():
    """Each name that a module under `tests/` imports is read somewhere in
    that module, so an import left behind by an edit does not linger."""
    unread = []
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        unread += [f"{path.name}:{name}" for name in imported if name not in read]
    assert not unread, unread
