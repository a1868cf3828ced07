"""The package keeps no mutable state at module level: what a judgment
remembers belongs to an object its callers create and pass, such as the
`Signature`, so no caller has an ambient scope to open or share."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Calls that make state meant to change after import.
STATEFUL = {"contextvars.ContextVar", "itertools.count"}


def import_time_nodes(node):
    """The nodes under `node` that run when the module is imported: all but
    function bodies, whose decorators and defaults do run."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            inner = [*getattr(child, "decorator_list", []), child.args]
        else:
            inner = [child]
        for n in inner:
            yield n
            yield from import_time_nodes(n)


def module_state(tree):
    """Each `STATEFUL` call a module makes at import, by dotted name, and
    each `global` statement in it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names)
        elif isinstance(node, ast.Global):
            yield f"line {node.lineno}: global {', '.join(node.names)}"
    for node in import_time_nodes(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            dotted = names.get(func.id, func.id)
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            dotted = f"{names.get(func.value.id, func.value.id)}.{func.attr}"
        else:
            continue
        if dotted in STATEFUL:
            yield f"line {node.lineno}: {dotted}(...) at module level"


def test_no_module_level_state():
    found = [f"{path.name} {what}"
             for path in sorted((ROOT / "src" / "coersimp").glob("*.py"))
             for what in module_state(ast.parse(path.read_text()))]
    assert not found, found


def test_the_guard_sees_each_form():
    source = """
import itertools as it
from contextvars import ContextVar
_ids = it.count()
class Holder:
    var = ContextVar("var")
def f(n=it.count()):
    global _ids
    return ContextVar("inside a body, made per call")
"""
    assert sorted(module_state(ast.parse(source))) == [
        "line 4: itertools.count(...) at module level",
        "line 6: contextvars.ContextVar(...) at module level",
        "line 7: itertools.count(...) at module level",
        "line 8: global _ids",
    ]
