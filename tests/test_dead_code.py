"""Every module-level name of the package is used somewhere, and every import
sits at module level."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXEMPT = {"__version__"}


def module_level_names(path: Path):
    """The functions, classes and constants a module defines at top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


def test_every_module_level_name_is_named_elsewhere():
    words = Counter(word for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py")
                    for word in re.findall(r"\w+", p.read_text()))
    # The definition itself is one occurrence.
    unused = [f"{path.name}:{name}"
              for path in sorted((ROOT / "src" / "coersimp").glob("*.py"))
              for name in module_level_names(path)
              if name not in EXEMPT and words[name] < 2]
    assert not unused, unused


def test_no_function_imports():
    """Imports sit at module level, where the dependencies between modules show."""
    inner = [f"{path.name}:{node.name}"
             for path in sorted((ROOT / "src" / "coersimp").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and any(isinstance(n, (ast.Import, ast.ImportFrom)) for n in ast.walk(node))]
    assert not inner, inner
