"""Corpus reader diagnostics and the command-line driver."""

import io
import json
import time

import pytest

from coersimp.cli import STANDARD_CONFIGS, cmd_report, main
from coersimp.corpus import (
    JudgmentError,
    ParseError,
    load_bundled,
    parse_corpus,
)
from coersimp.syntax import TyUnit, UnitVal

MINIMAL = "(item x (signature) (context) (poltype (unit)) (term (unitval)))"



def deep_tyco(depth):
    """One type constraint between two arrows nested `depth` deep on the
    argument side."""
    def arrow(leaf):
        for _ in range(depth):
            leaf = f"(arrow {leaf} (comp (unit) (dirt (Random) d)))"
        return leaf

    return ("(item deep (signature (op Random (unit) (base bit)))"
            " (context (skel s1) (dirt d) (typaram a (param s1)) (typaram b (param s1))"
            f" (tyco w {arrow('(param a)')} {arrow('(param b)')})))")


UNSAT = ("(item bad (signature (op Random (unit) (base bit)))"
         " (context (dco p1 (dirt (Random)) (dirt ()))))")


# ---------------------------------------------------------------------------
# Reader


def test_parse_minimal_item():
    (item,) = parse_corpus(MINIMAL)
    assert item.name == "x"
    assert item.poltype == TyUnit()
    assert item.term == UnitVal()
    assert item.context.skel_params == ()


def test_parse_comments_and_optional_sections():
    items = parse_corpus("; a comment\n(item x (signature) (context))\n")
    assert items[0].poltype is None
    assert items[0].term is None


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_corpus("(item x\n  (signature)")
    assert exc.value.line == 2
    assert str(exc.value).startswith("2:")
    with pytest.raises(ParseError):
        parse_corpus(")")


def test_parse_error_on_malformed_sections():
    with pytest.raises(ParseError):
        parse_corpus("(item x (signature) (context) (poltype (unit) (unit)))")
    with pytest.raises(ParseError):
        parse_corpus("(item x (signature) (context) (frobnicate))")
    with pytest.raises(ParseError):
        parse_corpus("(item x (signature) (context (bogus d1)))")


def test_judgment_error_on_bad_items():
    with pytest.raises(JudgmentError):
        parse_corpus("(item x (signature) (context) (term (unitval)))")
    with pytest.raises(JudgmentError) as exc:
        parse_corpus(
            "(item x (signature) (context) (poltype (base bit)) (term (unitval)))")
    assert exc.value.item == "x"
    with pytest.raises(JudgmentError):
        parse_corpus(
            "(item x (signature) (context) (poltype (unit))"
            " (term (lam y (unit) (return (var z)))))")
    with pytest.raises(JudgmentError):
        parse_corpus(MINIMAL + "\n" + MINIMAL)


def test_bundled_corpus_shape():
    items = load_bundled()
    assert len(items) >= 30
    names = [i.name for i in items]
    assert len(set(names)) == len(names)
    with_terms = [i for i in items if i.term is not None]
    assert len(with_terms) == 8
    assert all(i.poltype is not None for i in with_terms)


# ---------------------------------------------------------------------------
# Driver


def test_cli_simplify_table(capsys):
    assert main(["simplify", "--item", "apply_if"]) == 0
    out = capsys.readouterr().out
    assert "apply_if/before" in out
    assert "apply_if/after" in out


def test_cli_simplify_json_metrics(capsys):
    assert main(["simplify", "--item", "apply_if", "--emit", "json"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["item"] == "apply_if"
    assert entry["config"] == "all"
    assert entry["after"]["type_edges"] == 1
    assert entry["after"]["dirt_edges"] == 0
    assert isinstance(entry["type"], str)
    assert isinstance(entry["term"], str)


def test_cli_simplify_core_emit(capsys):
    assert main(["simplify", "--item", "apply_randomly", "--emit", "core"]) == 0
    out = capsys.readouterr().out
    assert "item apply_randomly" in out
    assert "type:" in out


def test_cli_custom_phase_config(capsys):
    assert main(["simplify", "--item", "apply_if", "--emit", "json",
                 "--phases", "custom:cleanup.both"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)
    assert entry["config"] == "custom"


def test_cli_dot_emission(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["simplify", "--item", "apply_if", "--emit", "dot"]) == 0
    assert capsys.readouterr().out.strip() == "apply_if.dot"
    text = (tmp_path / "apply_if.dot").read_text()
    assert text.startswith("digraph")
    assert "cluster_type" in text


def test_cli_verify_small_item(capsys):
    assert main(["verify", "--item", "unit_value", "--emit", "json",
                 "--samples", "3"]) == 0
    (report,) = json.loads(capsys.readouterr().out)
    assert report["passed"] == 3
    assert report["failures"] == []
    assert main(["verify", "--item", "unit_value", "--samples", "3"]) == 0
    assert "3/3 ok" in capsys.readouterr().out


def test_cli_report_round_trip(capsys):
    assert main(["report", "--item", "apply_if", "--emit", "json"]) == 0
    got = json.loads(capsys.readouterr().out)
    items = [i for i in load_bundled() if i.name == "apply_if"]
    assert got == cmd_report(items, list(STANDARD_CONFIGS))


def test_cli_report_deterministic(capsys):
    assert main(["report", "--item", "apply_randomly"]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--item", "apply_randomly"]) == 0
    assert capsys.readouterr().out == first
    assert "TOTAL" in first


def test_cli_reads_corpus_file_and_stdin(tmp_path, monkeypatch, capsys):
    path = tmp_path / "one.sexp"
    path.write_text(MINIMAL)
    assert main(["simplify", str(path), "--emit", "core"]) == 0
    assert "item x" in capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(MINIMAL))
    assert main(["simplify", "-", "--emit", "core"]) == 0
    assert "item x" in capsys.readouterr().out


def test_cli_diagnostics_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.sexp"
    bad.write_text("(item oops")
    assert main(["simplify", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simplify", str(tmp_path / "missing.sexp")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simplify", "--item", "no_such_item"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simplify", "--item", "apply_if", "--phases", "bogus"]) == 1
    assert "error:" in capsys.readouterr().err
    for flags in (["--samples", "-3"], ["--samples", "0"], ["--budget", "0"],
                  ["--budget", "1"]):
        assert main(["verify", "--item", "apply_if", *flags]) == 1, flags
        captured = capsys.readouterr()
        assert "error:" in captured.err, flags
        assert "ok" not in captured.out, flags
    bad.write_text(deep_tyco(400))
    assert main(["simplify", str(bad)]) == 1
    assert "nesting deeper than 256 levels" in capsys.readouterr().err


def test_cli_simplifies_deep_arrow_constraint_quickly(tmp_path, capsys):
    path = tmp_path / "deep.sexp"
    path.write_text(deep_tyco(200))
    start = time.perf_counter()
    assert main(["simplify", str(path)]) == 0
    assert time.perf_counter() - start < 2.0
    assert "deep/after" in capsys.readouterr().out


def test_cli_unsatisfiable_exit_one(tmp_path, capsys):
    path = tmp_path / "unsat.sexp"
    path.write_text(UNSAT)
    assert main(["simplify", str(path)]) == 1
    assert "unsatisfiable:" in capsys.readouterr().err
