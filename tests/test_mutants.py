"""The named mutants of `tests/mutants.py` stay applicable: each anchor
occurs exactly once in `src/`, in the file its mutant names."""

from pathlib import Path

from mutants import MUTANTS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coersimp"


def test_each_mutant_anchor_occurs_exactly_once_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    for m in MUTANTS:
        counts = {name: text.count(m.anchor) for name, text in sources.items()}
        assert sum(counts.values()) == 1 and counts.get(m.file) == 1, (m.name, counts)
        assert m.anchor != m.replacement, m.name


def test_mutant_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(names) == len(set(names))
