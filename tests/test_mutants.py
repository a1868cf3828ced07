"""The named mutants of `tests/mutants.py` stay applicable: each anchor
occurs exactly once in `src/`, in the file its mutant names, and each
test a mutant names as its killer exists."""

import ast
from pathlib import Path

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "coersimp"


def test_each_mutant_anchor_occurs_exactly_once_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for m in MUTANTS:
        counts = {name: text.count(m.anchor) for name, text in sources.items()}
        assert sum(counts.values()) == 1 and counts.get(m.file) == 1, (m.name, counts)
        assert m.anchor != m.replacement, m.name


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))


def test_each_killed_by_names_a_test_function_that_exists():
    """A killer is `file::function`, with an optional `[parameters]` suffix;
    every mutant but a marked survivor names one."""
    for m in MUTANTS:
        assert (m.killed_by is None) == m.survives, m.name
        if m.killed_by is None:
            continue
        file, _, test = m.killed_by.partition("::")
        path = ROOT / file
        assert path.is_file(), (m.name, file)
        functions = {node.name for node in ast.parse(path.read_text()).body
                     if isinstance(node, ast.FunctionDef)}
        assert test.partition("[")[0] in functions, (m.name, m.killed_by)
