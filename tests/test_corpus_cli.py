"""Corpus reader diagnostics and the command-line driver."""

import importlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coersimp import corpus
from coersimp.check import check_dco, derived_refl_dirt
from coersimp.cli import STANDARD_CONFIGS, cmd_report, cmd_verify, main, metrics_row
from coersimp.corpus import (
    MAX_NESTING,
    JudgmentError,
    ParseError,
    load_bundled,
    parse_corpus,
)
from coersimp.syntax import (
    EMPTY_CONTEXT,
    NO_OPS,
    CastC,
    CastV,
    CompTerm,
    Dirt,
    ParamContext,
    SkelParam,
    TyParam,
    TyUnit,
    UnitVal,
    ValueTerm,
    VCoReflParam,
    dirt,
)

from reference_corpus import parse_corpus_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import corpusgen  # noqa: E402  (the benchmark's generators, used read-only)
import layertrace  # noqa: E402  (the benchmark's span tracer, used read-only)

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


FAIL_SIG = "(op Fail (unit) (unit))"
UNIT_TO_UNIT = "(arrow (unit) (comp (unit) (dirt ())))"
FAILING = "(arrow (unit) (comp (unit) (dirt (Fail))))"


def cast_result(dco):
    """A function that casts its pure result by the dirt coercion `dco`."""
    return f"(lam y (unit) (castc (return (var y)) (cco (corefl (unit)) {dco})))"


@pytest.mark.parametrize("ops, context, poltype, term, says", [
    pytest.param(FAIL_SIG * 2, "", "(unit)", "(unitval)", "duplicate operation Fail",
                 id="duplicate-op"),
    pytest.param("(op Fail (param a) (unit))", "", "(unit)", "(unitval)",
                 "operation Fail: argument type not closed", id="open-op-argument"),
    pytest.param(FAIL_SIG, "", FAILING,
                 "(lam y (unit) (opcall Boom (unitval) z (unit) (return (var z))))",
                 "operation Boom not in signature", id="opcall-unknown-op"),
    pytest.param(FAIL_SIG, "", FAILING,
                 "(lam y (unit) (opcall Fail (lam u (unit) (return (var u))) z (unit)"
                 " (return (var z))))",
                 "operation Fail expects unit, argument has (unit -> unit!{})",
                 id="opcall-argument-type"),
    pytest.param(FAIL_SIG, "", FAILING,
                 "(lam y (unit) (opcall Fail (unitval) z (base bit) (return (var z))))",
                 "operation Fail binds unit, annotation says bit", id="opcall-bind-type"),
    pytest.param(FAIL_SIG, "", UNIT_TO_UNIT, "(lam y (unit) (app (var y) (unitval)))",
                 "application head has non-arrow type unit", id="app-non-function"),
    pytest.param(FAIL_SIG, "(dirt d)", UNIT_TO_UNIT, cast_result("(drefl (dirt () e))"),
                 "dirt parameter e not in context", id="drefl-unknown-dirt"),
    pytest.param(FAIL_SIG, "(dirt d)", UNIT_TO_UNIT, cast_result("(dempty (dirt () e))"),
                 "dirt parameter e not in context", id="dempty-unknown-dirt"),
    pytest.param(FAIL_SIG, "", "(unit)", "(castv (unitval) (corefl (param a)))",
                 "type parameter a not in context", id="corefl-unknown-type"),
    pytest.param(FAIL_SIG, "", UNIT_TO_UNIT, cast_result("(dempty (dirt (Boom)))"),
                 "operation Boom not in signature", id="dempty-unknown-op"),
])
def test_judgment_error_carries_the_checkers_message(ops, context, poltype, term, says):
    """Each input guard of the checker refuses its item with its own
    diagnostic: the signature's, then the term's, whose coercions are
    checked before the term's type is compared with the declared one."""
    text = (f"(item x (signature {ops}) (context {context}) (poltype {poltype})"
            f" (term {term}))")
    with pytest.raises(JudgmentError) as exc:
        parse_corpus(text)
    assert str(exc.value) == f"item 'x': {says}"


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


def test_cli_simplify_json_counts_the_coercions_left(capsys):
    """Over the 8 corpus items with a term, reduction alone leaves 11
    constraints and 11 casts; `all` leaves 1 constraint, and erasure
    leaves the 2 casts between different types."""
    totals = {}
    for preset in ("none", "all"):
        assert main(["simplify", "--emit", "json", "--phases", preset]) == 0
        entries = [e for e in json.loads(capsys.readouterr().out) if e["term"] is not None]
        assert len(entries) == 8
        totals[preset] = (sum(e["coercion_params"] for e in entries),
                          sum(e["casts"] for e in entries))
    assert totals == {"none": (11, 11), "all": (1, 2)}


def test_metrics_row_counts_rows():
    ctx = ParamContext(
        ("s1",),
        ("d1", "d2"),
        (("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
        (("p1", dirt((), "d1"), dirt(("Random",), "d2")),
         ("p2", dirt((), "d2"), dirt(("Fail",)))),
        (("w1", TyParam("a1"), TyParam("a2")),),
    )
    # skeleton parameters are not counted; a closed upper bound is an edge
    assert metrics_row("all", ctx) == {
        "config": "all", "dirt_nodes": 2, "dirt_edges": 2, "type_nodes": 2, "type_edges": 1}


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
    assert report["distinct"] == 1
    assert report["failures"] == []
    assert main(["verify", "--item", "unit_value", "--samples", "3"]) == 0
    assert "3/3 ok (1 distinct)" in capsys.readouterr().out
    (no_term,) = [item for item in load_bundled() if item.name == "loop_type"]
    with pytest.raises(ValueError):
        cmd_verify(no_term, "all")


def break_d1_family_entry(monkeypatch):
    """Make every witness's family entry for `d1` a reflexivity at the
    wrong dirt, so that its endpoints cannot check."""
    import coersimp.cli

    build = coersimp.cli.build_witness_total

    def bad_d1(sig, sim, eta0, *plan):
        wit = build(sig, sim, eta0, *plan)
        lo, _ = check_dco(sig, EMPTY_CONTEXT, wit.family["d1"])
        wit.family["d1"] = derived_refl_dirt(dirt(("Random",)) if lo == dirt() else dirt())
        return wit

    monkeypatch.setattr(coersimp.cli, "build_witness_total", bad_d1)


def test_cli_verify_lists_a_failed_witness_check(monkeypatch, capsys):
    """A witness entry with the wrong endpoints fails its sample; it does
    not escape as a traceback."""
    break_d1_family_entry(monkeypatch)
    assert main(["verify", "--item", "apply_randomly", "--emit", "json",
                 "--samples", "3"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["passed"] == 0
    assert [f["sample"] for f in report["failures"]] == [0, 1, 2]
    assert all(f["error"].startswith("EndpointMismatch:") for f in report["failures"])
    assert main(["verify", "--item", "apply_randomly", "--samples", "3"]) == 1
    assert "0/3 FAIL" in capsys.readouterr().out


def test_cli_verify_lists_every_sample_of_a_remembered_failure(monkeypatch, capsys):
    """A failure is checked once per distinct draw, and every sample that
    drew it is listed with the same error and its own reproducer."""
    import coersimp.cli
    from coersimp.semantics import ModelBug

    calls = []

    def failing(*args):
        calls.append(args)
        raise ModelBug("preservation failed")

    monkeypatch.setattr(coersimp.cli, "check_sample", failing)
    assert main(["verify", "--item", "apply_if", "--emit", "json", "--samples", "40"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert report["passed"] == 0
    assert len(calls) == report["distinct"] == 6
    assert [f["sample"] for f in report["failures"]] == list(range(40))
    assert {f["error"] for f in report["failures"]} == {"ModelBug: preservation failed"}
    assert [f["reproduce"] for f in report["failures"]] == [
        f"coersimp verify --item apply_if --phases all --seed 0 --samples {i + 1}"
        for i in range(40)]


def assert_internal_error(capsys, argv, says=""):
    """`argv` exits 2 with one `internal error:` line and no traceback."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and err.count("\n") == 1, err
    assert says in err and "Traceback" not in err


@pytest.mark.parametrize("broken", ["subst", "type"])
def test_cli_simplify_exits_two_when_the_rewrite_does_not_typecheck(monkeypatch, capsys, broken):
    """A rewritten term that no longer typechecks (the run's substitution
    is lost), or that has another type than the rewritten type, is a broken
    invariant, not a diagnostic."""
    import dataclasses

    import coersimp.cli
    from coersimp.subst import Substitution

    if broken == "subst":
        run = coersimp.cli.simplify
        monkeypatch.setattr(coersimp.cli, "simplify", lambda *args: dataclasses.replace(
            run(*args), subst=Substitution()))
        says = "no longer typechecks"
    else:
        rewrite = coersimp.cli.apply
        monkeypatch.setattr(coersimp.cli, "apply", lambda sub, x: rewrite(sub, x)
                            if isinstance(x, ValueTerm) else TyUnit())
        says = "wanted unit"
    assert_internal_error(capsys, ["simplify", "--item", "apply_randomly"], says)


def test_cli_simplify_checks_the_rewrite_before_erasing_it(monkeypatch, capsys):
    """A run whose substitution maps a constraint to a reflexivity at the
    wrong type exits 2, although erasure drops that reflexivity and the
    erased term has the rewritten type."""
    import coersimp.cli

    run = coersimp.cli.simplify

    def forged(*args):
        sim = run(*args)
        sim.subst.vco["w1"] = VCoReflParam("a2")  # w1 : a3 <= a3 after the run
        return sim

    monkeypatch.setattr(coersimp.cli, "simplify", forged)
    sim, _, rewritten, erased = coersimp.cli._simplified(
        {i.name: i for i in load_bundled()}["ho_compose"], "all", False)
    assert "(x |> <a2>)" in str(rewritten) and "f x" in str(erased)
    assert_internal_error(capsys, ["simplify", "--item", "ho_compose"],
                          "rewritten term no longer typechecks")


def test_cli_rejects_an_eraser_that_drops_a_cast_between_different_types(monkeypatch, capsys):
    import coersimp.cli

    def strip(term):
        """`term` with every cast dropped, trivial or not."""
        if isinstance(term, (CastV, CastC)):
            return strip(term.val if isinstance(term, CastV) else term.comp)
        return type(term)(*(strip(k) if isinstance(k, (ValueTerm, CompTerm)) else k
                            for k in (getattr(term, n) for n in type(term).__match_args__)))

    monkeypatch.setattr(coersimp.cli, "erase_value", strip)
    for item in ("apply_if", "op_annotated"):
        assert_internal_error(capsys, ["simplify", "--item", item], "erased term")
        assert main(["verify", "--item", item, "--samples", "4"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_cli_verify_exits_two_on_a_witness_bug(monkeypatch, capsys):
    import coersimp.cli
    from coersimp.witness import WitnessBug

    def broken(sig, sim, eta0, *plan):
        raise WitnessBug("replay lost a parameter")

    monkeypatch.setattr(coersimp.cli, "build_witness_total", broken)
    assert_internal_error(capsys, ["verify", "--item", "apply_randomly", "--samples", "1"])


class MissingEverything(dict):
    """A map whose `get` raises `KeyError` from C, so that the raising
    frame is its Python caller."""

    get = dict.__getitem__


def test_cli_verify_exits_two_on_a_fault_in_the_replay_plan(monkeypatch, capsys):
    """A `KeyError` raised in `ReductionReplay.replay` is a fault of the
    tool: one `internal error:` line names where it was raised."""
    from coersimp.witness import ReductionReplay

    prepare = ReductionReplay.__init__

    def faulty(self, *args):
        prepare(self, *args)
        self.dirt_patterns = MissingEverything()

    monkeypatch.setattr(ReductionReplay, "__init__", faulty)
    assert_internal_error(capsys, ["verify", "--item", "apply_randomly", "--samples", "2"],
                          "internal error: coersimp.witness.ReductionReplay.replay: KeyError: ")


def test_cli_verify_exits_two_on_a_fault_in_the_prepared_check(monkeypatch, capsys):
    """A `RecursionError` escaping the validity check exits 2 with one
    line and no traceback."""
    from coersimp.subst import ValidityCheck

    def bottomless(self, sub):
        return bottomless(self, sub)

    monkeypatch.setattr(ValidityCheck, "check", bottomless)
    assert_internal_error(capsys, ["verify", "--item", "apply_randomly", "--samples", "2"],
                          "bottomless: RecursionError: maximum recursion depth exceeded")


def test_cli_keeps_its_diagnostics_and_lets_an_interrupt_through(monkeypatch, capsys):
    """The rc-1 lines are unchanged, and an interrupt is not a fault."""
    import coersimp.cli

    assert main(["verify", "--item", "no_such_item"]) == 1
    assert capsys.readouterr().err == "error: no item named 'no_such_item'\n"

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(coersimp.cli, "cmd_verify", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--item", "apply_randomly"])


def test_cli_verify_prints_a_reproducer_per_failed_sample(monkeypatch, capsys, tmp_path):
    """Each failed sample carries the command that reruns it: sample `i`
    is the last of `--samples i+1`, under the flags the run was given."""
    break_d1_family_entry(monkeypatch)
    assert main(["verify", "--item", "apply_randomly", "--emit", "json",
                 "--samples", "3", "--seed", "7"]) == 1
    (report,) = json.loads(capsys.readouterr().out)
    assert [f["reproduce"] for f in report["failures"]] == [
        f"coersimp verify --item apply_randomly --phases all --seed 7 --samples {i + 1}"
        for i in range(3)]
    last = report["failures"][-1]
    assert main(last["reproduce"].split()[1:] + ["--emit", "json"]) == 1
    (rerun,) = json.loads(capsys.readouterr().out)
    assert rerun["failures"][-1] == last

    path = tmp_path / "my corpus.sexp"
    path.write_text(resources.files("coersimp").joinpath("data/corpus.sexp").read_text())
    assert main(["verify", str(path), "--item", "apply_randomly",
                 "--phases", "custom:cleanup.both,scc.type", "--samples", "1",
                 "--full-dirt", "--budget", "300"]) == 1
    out = capsys.readouterr().out
    assert ("      reproduce: coersimp verify " + shlex.quote(str(path))
            + " --item apply_randomly --phases custom:cleanup.both,scc.type"
            " --seed 0 --samples 1 --full-dirt --budget 300") in out.splitlines()


def test_bench_layer_names_resolve():
    """The benchmark's span tracer wraps these functions by name; a rename
    would silently drop its per-layer metrics."""
    for module, name, _ in layertrace.LAYERS:
        assert callable(getattr(importlib.import_module(f"coersimp.{module}"), name)), name
    assert callable(importlib.import_module("coersimp.phases").run_phases)


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


@pytest.mark.parametrize("utf8_mode", ["1", "0"])
def test_cli_refuses_undecodable_bytes_from_a_file_and_from_stdin(tmp_path, utf8_mode):
    """The same bytes give the same result whichever way they come in: one
    `error:` line, no traceback and exit 1, in Python's UTF-8 mode (whose
    stdin decodes with `surrogateescape`) or not."""
    data = b"(item x\xff (signature) (context))"
    path = tmp_path / "bad.sexp"
    path.write_bytes(data)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    for corpus_arg in (str(path), "-"):
        run = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8_mode}", "-m", "coersimp.cli", "simplify",
             corpus_arg], input=data, env=env, capture_output=True, timeout=60)
        assert run.returncode == 1, (corpus_arg, run)
        assert not run.stdout, corpus_arg
        (line,) = run.stderr.decode().splitlines()
        assert line.startswith("error: ") and "utf-8" in line, line


@pytest.mark.parametrize("utf8_mode", ["1", "0"])
def test_an_undecodable_byte_gets_one_diagnostic_from_a_file_and_from_stdin(tmp_path, utf8_mode):
    """The same bytes, the bad one on line 2, give the same diagnostic at
    that byte's `line:col` from a file and from stdin: exit 1, no
    traceback, in Python's UTF-8 mode or not."""
    data = b"(item x (signature)\n  (context) y\xff)"
    path = tmp_path / "bad.sexp"
    path.write_bytes(data)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    errs = []
    for corpus_arg in (str(path), "-"):
        run = subprocess.run(
            [sys.executable, "-X", f"utf8={utf8_mode}", "-m", "coersimp.cli", "simplify",
             corpus_arg], input=data, env=env, capture_output=True, timeout=60)
        assert run.returncode == 1 and not run.stdout, (corpus_arg, run)
        errs.append(run.stderr)
    assert errs == [b"error: 2:13: byte 0xff is not utf-8\n"] * 2, errs


def test_cli_diagnostics_exit_one(tmp_path, monkeypatch, capsys):
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
    for emit in ("table", "json"):  # bipolar_pair carries no term
        assert main(["verify", "--item", "bipolar_pair", "--emit", emit]) == 1, emit
        captured = capsys.readouterr()
        assert "error: nothing to verify" in captured.err, emit
        assert not captured.out, emit
    bad.write_text(deep_tyco(400))
    assert main(["simplify", str(bad)]) == 1
    assert "nesting deeper than 256 levels" in capsys.readouterr().err
    work = tmp_path / "work"
    (work / "x.dot").mkdir(parents=True)  # the write of item x fails
    monkeypatch.chdir(work)
    for name in ("a/b", "../x", "x"):
        bad.write_text(f"(item {name} (signature) (context (dirt d1)))")
        assert main(["simplify", str(bad), "--emit", "dot"]) == 1, name
        assert "error:" in capsys.readouterr().err, name
    assert sorted(p.name for p in tmp_path.rglob("*.dot")) == ["x.dot"]


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


# ---------------------------------------------------------------------------
# Reader fuzzing


def bundled_items_text():
    text = resources.files("coersimp").joinpath("data/corpus.sexp").read_text()
    starts = [m.start() for m in re.finditer(r"^\(item ", text, re.M)]
    return [text[a:b] for a, b in zip(starts, starts[1:] + [len(text)])]


TOKENS = ("(", ")", "item", "arrow", "comp", "dirt", "param", "castv", "covar",
          "dvar", "lam", "return", "Random", "d1", "a1", "s1", "x", "0", ";")


def damage(rng, text, texts):
    i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
    kind = rng.choice(("truncate", "delete", "insert", "splice"))
    if kind == "truncate":
        return text[:i]
    if kind == "delete":
        return text[:i] + text[j:]
    if kind == "insert":
        return f"{text[:i]} {rng.choice(TOKENS)} {text[i:]}"
    other = rng.choice(texts)
    a, b = sorted(rng.randrange(len(other) + 1) for _ in range(2))
    return text[:i] + other[a:b] + text[j:]


def mutate(rng, texts):
    """One item of `texts`, damaged, between its intact neighbours, so that
    an error in it competes with what comes before and after it."""
    k = rng.randrange(len(texts))
    return "".join([*texts[max(k - 1, 0):k], damage(rng, texts[k], texts), *texts[k + 1:k + 2]])


def outcome(parse, text):
    """The items `parse` reads from `text`, or its diagnostic: the error
    type, message, line and column."""
    try:
        return parse(text)
    except (ParseError, JudgmentError) as e:
        return type(e), str(e), getattr(e, "line", None), getattr(e, "col", None)


def assert_reads_like_reference(text):
    got = outcome(parse_corpus, text)
    assert got == outcome(parse_corpus_reference, text), repr(text[:300])
    return got


@pytest.mark.parametrize("seed", range(3))
def test_reader_rejects_mutated_corpus_cleanly(seed):
    """A damaged corpus either still reads or is rejected with a reader
    diagnostic; no other exception escapes. Either way the reader agrees
    with the reference reader, diagnostic position included."""
    rng = random.Random(f"fuzz:{seed}")
    texts = bundled_items_text()
    rejected = 0
    for _ in range(500):
        got = assert_reads_like_reference(mutate(rng, texts))
        rejected += isinstance(got, tuple)
    assert rejected > 400


BLANKS = ("\t", "\r", "\f", "\v", " ")


@pytest.mark.parametrize("seed", range(2))
def test_reader_matches_reference_on_inserted_blanks(seed):
    """Tab, carriage return and space end an atom; form feed and vertical
    tab are atom characters, as in the reference reader."""
    rng = random.Random(f"blanks:{seed}")
    texts = bundled_items_text()
    for _ in range(300):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(BLANKS) + text[i:]
        assert_reads_like_reference(text)


def test_reader_matches_reference_on_bundled_and_generated_corpora():
    texts = [resources.files("coersimp").joinpath("data/corpus.sexp").read_text()]
    for seed in (1, 2):
        texts += [corpusgen.chains_text(seed), corpusgen.structural_text(seed)]
    for text in texts:
        items = assert_reads_like_reference(text)
        assert isinstance(items, list) and items


# A `(base NAME)` skeleton and a `(drefl DIRT)` coercion, which the bundled
# corpus does not use.
BASE_AND_DREFL = """(item based (signature) (context (dirt d) (typaram a (base bool)))
  (poltype (arrow (param a) (comp (param a) (dirt () d))))
  (term (lam x (param a)
    (castc (castc (return (var x)) (cco (corefl (param a)) (dempty (dirt () d))))
           (cco (corefl (param a)) (drefl (dirt () d)))))))"""


def test_reader_matches_reference_on_edge_cases():
    def deep_skeleton(arrows):  # nests 3 + arrows + 1 parentheses deep
        skel = "(arrow " * arrows + "(unit)" + " (unit))" * arrows
        return f"(item x (signature) (context (skel s) (typaram a {skel})))"

    cases = [
        "", "x", "(", ")", "(item", "(item x ; open\n", "(item x ; open",
        "(item x\n  ; a comment\n", "foo (item x (signature) (context))",
        MINIMAL + " bar", MINIMAL + "\n)", "(()) ()", "(item (x) (signature) (context))",
        "(item x (signature (op A (unit) (unit)) (op B (unit))) (context))",
        "(item x (signature) (context (dco p (dirt ((A)) d) (dirt () d))))",
        "(item x (signature) (context (dirt d) (dco p (dirt () d) d)))",
        "(item x (signature) (context) (poltype))", "(item x (signature) (context) ())",
        "(item x\f(signature) (context))", "(item x\u00a0 (signature) (context))",
        "(item x (signature) (context (skel s) (skel s)))",
        "(" * MAX_NESTING + ")" * MAX_NESTING, "(" * (MAX_NESTING + 1),
        deep_skeleton(MAX_NESTING - 4), deep_skeleton(MAX_NESTING - 3),
    ]

    def typed(poltype, term=None, decls=""):
        term = "" if term is None else f" (term {term})"
        return f"(item x (signature) (context{decls}) (poltype {poltype}){term})"

    def castv(vco):
        return typed("(unit)", f"(castv (unitval) {vco})")

    fn = "(arrow (unit) (comp (unit) (dirt ())))"
    cases += [
        # A wrong head where `comp`, `cco` or `dirt` is the only one.
        typed("(arrow (unit) (unit))"), typed("(arrow (unit) (cmp (unit) (dirt ())))"),
        castv("(coarrow (corefl (unit)) (covar w))"),
        typed(fn, "(lam x (unit) (castc (return (unitval)) (corefl (unit))))"),
        typed("(unit)", decls=" (dco p (dirt ()) (drefl (dirt ())))"),
        typed("(arrow (unit) (comp (unit) (dirts ())))"),
        # A list for a name and a name for a list in forms read from fields.
        typed(fn, "(lam (x) (unit) (return (unitval)))"),
        typed(fn, "(lam x unit (return (unitval)))"),
        typed(fn, "(lam x (unit) return)"),
        typed(fn, "(lam x (unit) (opcall Random (unitval) (y) (unit) (return (var y))))"),
        typed(fn, "(lam x (unit) (opcall (Random) (unitval) y (unit) (return (var y))))"),
        typed(fn, "(lam x (unit) (opcall Random unitval y (unit) (return (var y))))"),
        # `coseq` reads SECOND first, so its error wins over FIRST's.
        castv("(coseq (bogus) (covar))"), castv("(coseq w (covar v w))"),
        castv("(coseq (covar w) v)"),
        # Wrong argument counts under a fixed head.
        typed("(arrow (unit) (comp (unit)))"), typed("(arrow (unit) (comp (unit) (dirt ()) (unit)))"),
        castv("(coarrow (corefl (unit)) (cco (corefl (unit))))"),
        "(item x (signature (op A (unit) (unit) (unit))) (context))",
        "(item x (signature (op A)) (context))",
        # An unknown head in each sort, and a list or nothing as the head.
        "(item x (signature) (context (skel s) (typaram a (bogus))))",
        typed("(bogus)"), castv("(bogus)"),
        typed(fn, "(lam x (unit) (castc (return (unitval)) (cco (corefl (unit)) (bogus))))"),
        typed("(unit)", "(bogus)"), typed(fn, "(lam x (unit) (bogus))"),
        "(item x (signature) (context (bogus d)))", "(item x (signature) (context) (bogus))",
        typed("((param) a)"), castv("()"), "(item x (signature (bogus A (unit) (unit))) (context))",
    ]
    for text in cases:
        assert_reads_like_reference(text)
    assert isinstance(assert_reads_like_reference(BASE_AND_DREFL), list)


def findall_tokens(text):
    """The tokens `_TOKEN` matches in `text`, less the comments."""
    return [tok for tok in corpus._TOKEN.findall(text) if tok[0] != ";"]


# The reader's separators, the other blanks (atom characters here, though
# `str.split()` splits at them), and a few more atom characters.
TOKEN_ALPHABET = " \t\r\n();\f\v\x1c\x85\xa0\u2000\u3000\"\\\0abXY"


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.text(alphabet=TOKEN_ALPHABET, max_size=60))
def test_block_tokenizer_matches_the_token_pattern(block):
    assert list(corpus._tokens(block)) == findall_tokens(block)


def test_block_tokenizer_on_comments_line_endings_and_block_boundaries():
    for block in ("(item x ; (a (b) c)) d\n (signature) ; )(\n(context))",
                  "(item x\r\n (signature)\r\n ; a (comment)\r\n (context))\r\n"):
        assert list(corpus._tokens(block)) == findall_tokens(block)
    # An item name runs across offset `_BLOCK`, where the first block would
    # end if the reader did not extend it to the end of its line.
    names = [f"item_{k}_" + "x" * 50 for k in range(3 * corpus._BLOCK // 100)]
    body = "\r\n".join(f"; item {k} (of {len(names)})\r\n{minimal(name)}"
                       for k, name in enumerate(names))
    text = next(text for text in (f";{' ' * pad}\n{body}" for pad in range(100))
                if text[corpus._BLOCK - 1:corpus._BLOCK + 1] == "xx")
    assert len(text) > 2 * corpus._BLOCK
    items = assert_reads_like_reference(text)
    assert [item.name for item in items] == names


def minimal(name):
    return MINIMAL.replace("item x", f"item {name}")


ELABORATION_ERROR = "(item e (signature) (context (bogus d1)))"
JUDGMENT_ERROR = "(item j (signature) (context) (term (unitval)))"
PARENTHESIS_ERRORS = {
    "unclosed parenthesis": "(item late (signature)\n  (context)",
    "unmatched close parenthesis": "(item late (signature) (context)))",
    f"nesting deeper than {MAX_NESTING} levels": "(" * (MAX_NESTING + 1) + ")" * (MAX_NESTING + 1),
}


@pytest.mark.parametrize("paren", PARENTHESIS_ERRORS)
@pytest.mark.parametrize("early", [ELABORATION_ERROR, JUDGMENT_ERROR, "stray"])
def test_a_later_parenthesis_error_wins_over_an_earlier_item_error(early, paren):
    """The reader judges each item as soon as it is read, yet reports a
    parenthesis error anywhere in the text before an item's error, as the
    reference reader, which reads the whole text first, does."""
    text = "\n".join([minimal("a"), early, minimal("b"), PARENTHESIS_ERRORS[paren]])
    kind, msg, _, _ = assert_reads_like_reference(text)
    assert kind is ParseError and msg.endswith(paren), msg


@pytest.mark.parametrize("parts, says", [
    ([minimal("a"), "stray", minimal("b")], "expected a list, got 'stray'"),
    ([minimal("a"), "(stray)", minimal("b")], "expected (item ...)"),
    ([minimal("a"), ELABORATION_ERROR, "stray"], "unknown declaration 'bogus'"),
    ([minimal("a"), JUDGMENT_ERROR, "stray", ELABORATION_ERROR], "a term requires a declared type"),
    ([minimal("a"), minimal("a"), JUDGMENT_ERROR], "a term requires a declared type"),
    ([minimal("a"), minimal("b"), minimal("a"), "stray"], "expected a list, got 'stray'"),
    ([minimal("a"), minimal("b"), minimal("a")], "duplicate item name"),
])
def test_the_first_item_error_wins_and_duplicate_names_come_last(parts, says):
    """Between items, the first error in the text wins, a top-level atom
    included; a duplicate name is reported only when no item has an error."""
    _, msg, _, _ = assert_reads_like_reference("\n".join(parts))
    assert msg.endswith(says), msg


def chain_item_text():
    """The smallest item of the `chains` workload, `chain_n100`."""
    text = corpusgen.chains_text(1)
    return text[text.index("(item chain_n100"):text.index("(item chain_n200")]


def passing_memory(text):
    """The bytes `parse_corpus(text)` allocates and frees on the way: its
    peak less what its items keep."""
    tracemalloc.start()
    try:
        items = parse_corpus(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert items
    return peak - retained


def test_parse_memory_is_bounded_by_the_largest_item():
    """Parsing 8 copies of an item needs no more passing memory than
    parsing one: the lists of each item are dropped once it is judged."""
    item = chain_item_text()
    parse_corpus(item)
    one = passing_memory(item)
    eight = passing_memory("".join(
        item.replace("chain_n100", f"chain_n100_{k}", 1) for k in range(8)))
    assert eight < 2 * one, (one, eight)


def test_the_parse_drops_the_lists_of_each_item_before_reading_the_next(monkeypatch):
    """Once the reader has read an item, nothing but this test holds the
    lists of the item before it."""
    read = corpus._read
    holders = []

    def watched(text):
        last = None
        for element in read(text):
            if last is not None:
                holders.append(sys.getrefcount(last) - 2)  # less `last` and the argument
            last = element
            yield element

    monkeypatch.setattr(corpus, "_read", watched)
    parse_corpus("\n".join(minimal(name) for name in "abc"))
    assert holders == [0, 0]


def reachable(root):
    """Every object reachable from `root` through the fields of its nodes
    and the elements of lists, tuples and frozensets."""
    todo = [root]
    for obj in todo:
        if isinstance(obj, (list, tuple, frozenset)):
            todo.extend(obj)
        elif not isinstance(obj, str):
            todo.extend(getattr(obj, n) for n in getattr(type(obj), "__match_args__", ()))
    return todo


def test_a_parse_holds_one_object_per_atom_and_one_empty_operation_set():
    bundled = resources.files("coersimp").joinpath("data/corpus.sexp").read_text()
    for text in (bundled, chain_item_text(), BASE_AND_DREFL):
        found = reachable(parse_corpus(text))
        atoms = {}
        for obj in found:
            if type(obj) is str:
                assert atoms.setdefault(obj, obj) is obj, obj
        dirts = [obj for obj in found if type(obj) is Dirt]
        assert any(not d.ops for d in dirts)
        assert all(d.ops is NO_OPS for d in dirts if not d.ops)


def test_context_lookups_cost_linear_in_the_context(monkeypatch):
    """Parsing a chain item at 400 parameters per sort visits about four
    times the context rows it visits at 100: each lookup index is built
    once per context, and no lookup scans a row tuple."""

    class Rows(tuple):
        visits = 0

        def __iter__(self):
            for row in tuple.__iter__(self):
                Rows.visits += 1
                yield row

        def __contains__(self, name):
            return any(row == name for row in self)

    def counting_context(*fields):
        return ParamContext(*map(Rows, fields))

    text = corpusgen.chains_text(1)
    starts = [m.start() for m in re.finditer(r"^\(item ", text, re.M)] + [len(text)]
    chain = {text[a:b].split()[1]: text[a:b] for a, b in zip(starts, starts[1:])}
    monkeypatch.setattr(corpus, "ParamContext", counting_context)
    visits, rows = {}, {}
    for n in (100, 400):
        Rows.visits = 0
        (item,) = parse_corpus(chain[f"chain_n{n}"])
        visits[n] = Rows.visits
        ctx = item.context
        rows[n] = sum(map(len, (ctx.skel_params, ctx.dirt_params, ctx.ty_params,
                                ctx.dirt_cos, ctx.ty_cos)))
    assert visits[400] <= 3 * rows[400], visits
    assert visits[400] <= 4.5 * visits[100], visits
