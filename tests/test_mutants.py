"""The named mutants of `tests/mutants.py` stay applicable: each anchor
occurs exactly once in `src/`, in the file its mutant names, and each
test a mutant names as its killer exists. `tests/mutate.py` counts an
outcome as agreeing with a mutant's mark only where the mark says so."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, Mutant
from mutate import agrees

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


NAMED = Mutant("named", "check.py", "a", "b", "a reason",
               killed_by="tests/test_check.py::test_wf_skeleton")
SURVIVOR = Mutant("marked", "check.py", "a", "b", "a reason", survives=True)


@pytest.mark.parametrize("mutant, got, want", [
    pytest.param(NAMED, "tests/test_check.py::test_wf_skeleton", True, id="killed-by-the-named-test"),
    pytest.param(NAMED, "coersimp verify", False, id="killed-by-another-check"),
    pytest.param(NAMED, "survived", False, id="named-killer-survived"),
    pytest.param(SURVIVOR, "survived", True, id="marked-survivor-survives"),
    pytest.param(SURVIVOR, "tests/test_check.py::test_wf_skeleton", False,
                 id="marked-survivor-killed"),
])
def test_a_mutant_agrees_only_with_the_outcome_it_is_marked_with(mutant, got, want):
    assert agrees(mutant, got) is want
