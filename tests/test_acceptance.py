"""End-to-end acceptance checks.

One test per promised behavior, each printing a single timed pass line
(the test name doubles as the fail line under ``pytest -v``). Expected
values live next to the assertions or in ``golden_metrics.json``.
"""

import json
import random
import time
from pathlib import Path

import test_reduce
import test_subst

from coersimp.cli import STANDARD_CONFIGS, cmd_report, cmd_simplify, cmd_verify
from coersimp.corpus import load_bundled
from coersimp.graph import build_dirt_graph, build_type_graph, tarjan_scc
from coersimp.phases import PRESETS, run_phases, simplify
from coersimp.polarity import EMPTY_FPS, fp_vty
from coersimp.sample import sample_eta
from coersimp.semantics import BASE_CARRIERS
from coersimp.subst import check_validity
from coersimp.syntax import CompType, TyArrow, TyBase, TyParam, dirt
from coersimp.witness import build_witness, check_witness_total

from gen import TEST_SIG, random_context, random_fps
from support import alpha_equivalent

GOLDEN = Path(__file__).parent / "golden_metrics.json"


def _passline(n: int, label: str, start: float, bound: float) -> None:
    elapsed = time.perf_counter() - start
    print(f"criterion {n} ({label}): PASS in {elapsed:.2f}s (bound {bound:g}s)")
    assert elapsed < bound


def _item(name: str):
    return next(i for i in load_bundled() if i.name == name)


def arrow(dom, cod_ty, cod_dirt=None):
    return TyArrow(dom, CompType(cod_ty, cod_dirt or dirt()))


# ---------------------------------------------------------------------------
# Worked examples


def test_criterion_1_apply_if_worked_example():
    start = time.perf_counter()
    item = _item("apply_if")
    ctx = item.context
    assert len(ctx.ty_params) == 5 and len(ctx.ty_cos) == 4
    assert len(ctx.skel_params) == 1
    assert len(ctx.dirt_params) == 3 and len(ctx.dirt_cos) == 2
    sim, new_ty, new_term, _, _ = cmd_simplify(item, "all")
    assert len(sim.context.ty_cos) == 1
    assert sim.context.dirt_cos == ()
    assert new_term is not None
    # The one surviving constraint must run between the two parameters of
    # the final type, so the shape check can use their own names exactly.
    (_, lo, hi), = sim.context.ty_cos
    assert {n for n, _ in sim.context.ty_params} == {lo.name, hi.name}
    (delta,) = sim.context.dirt_params
    row = dirt((), delta)
    expected = arrow(arrow(lo, TyBase("bool"), row),
                     arrow(arrow(lo, hi, row), arrow(lo, hi, row)))
    assert new_ty == expected, f"final type {new_ty}, wanted {expected}"
    _passline(1, "apply_if", start, 1.0)


def test_criterion_2_apply_randomly_worked_example():
    start = time.perf_counter()
    item = _item("apply_randomly")
    sim, new_ty, new_term, _, _ = cmd_simplify(item, "all")
    assert sim.context.ty_cos == ()
    assert sim.context.dirt_cos == ()
    assert new_term is not None
    a, b = TyParam("xa"), TyParam("xb")
    noisy = dirt(("Random",), "xd")
    expected = arrow(arrow(a, b, noisy), arrow(a, b, noisy))
    assert alpha_equivalent(expected, new_ty), \
        f"final type {new_ty} does not have the expected shape"
    _passline(2, "apply_randomly", start, 1.0)


# ---------------------------------------------------------------------------
# Corpus metrics


def test_criterion_3_corpus_metrics_against_goldens():
    start = time.perf_counter()
    items = load_bundled()
    assert len(items) >= 30
    report = cmd_report(items, list(STANDARD_CONFIGS))
    golden = json.loads(GOLDEN.read_text())
    assert report == golden
    # A full run discharges every type constraint unless some residual
    # type parameter ends up bipolar (both bridge directions blocked).
    for item in items:
        fps = fp_vty(item.poltype) if item.poltype is not None else EMPTY_FPS
        sim = simplify(item.signature, item.context, fps, PRESETS["all"])
        residual = {n for n, _ in sim.context.ty_params}
        if not (residual & sim.phases.fps.pos & sim.phases.fps.neg):
            assert not sim.context.ty_cos, item.name
    by = {row["config"]: row for row in report["totals"]}
    for col in ("dirt_nodes", "dirt_edges", "type_nodes", "type_edges"):
        assert by["none"][col] >= by["scc"][col] >= by["all"][col], col
    _passline(3, "corpus metrics", start, 10.0)


# ---------------------------------------------------------------------------
# Property suites


def test_criterion_4_substitution_properties():
    start = time.perf_counter()
    test_subst.test_wf_preservation_randomized()
    test_subst.test_coercion_preservation_randomized()
    test_subst.test_typing_preservation_randomized()
    test_subst.test_composition_validity_randomized()
    _passline(4, "substitution layer, 1000 draws", start, 30.0)


def _assert_simple_type(ctx):
    seen = set()
    for _, lo, hi in ctx.ty_cos:
        assert lo.name != hi.name
        assert (lo.name, hi.name) not in seen
        seen.add((lo.name, hi.name))


def _assert_simple_dirt(ctx):
    seen = set()
    for _, lo, hi in ctx.dirt_cos:
        assert lo.tail != hi.tail
        assert (lo.tail, hi.tail) not in seen
        seen.add((lo.tail, hi.tail))


def _assert_acyclic_type(ctx):
    g = build_type_graph(ctx)
    succ = {n: [e.dst for e in g.out_edges(n)] for n in g.order}
    comps = tarjan_scc(list(g.order), succ)
    assert all(len(c) == 1 for c in comps)


def _assert_acyclic_dirt(ctx):
    # Only the unlabeled subgraph is contracted, so only it must be acyclic.
    g = build_dirt_graph(ctx)
    succ = {n: [] for n in g.order}
    for e in g.all_edges():
        if not e.ops and e.dst in succ:
            succ[e.src].append(e.dst)
    comps = tarjan_scc(list(g.order), succ)
    assert all(len(c) == 1 for c in comps)


_POSTCONDITIONS = {
    "scc": ("type", "dirt"),
    "dirt": ("dirt",),
    "type": ("type",),
    "all": ("type", "dirt"),
}


def test_criterion_5_phase_properties():
    start = time.perf_counter()
    rng = random.Random(505)
    for _ in range(500):
        ctx = random_context(rng)
        fps = random_fps(rng, ctx)
        results = {}
        for name, instructions in PRESETS.items():
            res = run_phases(TEST_SIG, ctx, fps, instructions)
            results[name] = res
            check_validity(TEST_SIG, ctx, res.subst, res.context)
            for sort in _POSTCONDITIONS.get(name, ()):
                if sort == "type":
                    _assert_simple_type(res.context)
                    _assert_acyclic_type(res.context)
                else:
                    _assert_simple_dirt(res.context)
                    _assert_acyclic_dirt(res.context)
            again = run_phases(TEST_SIG, res.context, res.fps, instructions)
            assert not again.steps
            assert again.context == res.context
        full_run = results["all"]
        for _ in range(10):
            eta0 = sample_eta(TEST_SIG, ctx, rng)
            wit = build_witness(full_run, eta0)
            check_witness_total(TEST_SIG, full_run, eta0, wit)
    _passline(5, "phase pipeline, 500 contexts", start, 120.0)


def test_criterion_6_semantic_preservation_matrix():
    start = time.perf_counter()
    items = [i for i in load_bundled() if i.term is not None]
    assert len(items) == 8
    assert all(len(i.signature.names()) <= 2 for i in items)
    assert max(len(c) for c in BASE_CARRIERS.values()) <= 3
    failures = []
    for item in items:
        for config in STANDARD_CONFIGS:
            rep = cmd_verify(item, config, samples=20, seed=0)
            if rep["failures"]:
                failures.append((item.name, config, rep["failures"]))
    assert not failures, failures
    _passline(6, "semantics matrix, 8 items x 5 configs x 20", start, 120.0)


def test_criterion_7_dirt_constraint_battery():
    start = time.perf_counter()
    battery = (
        test_reduce.test_dc_closed_closed_subset,
        test_reduce.test_dc_closed_closed_fail,
        test_reduce.test_dc_tail_closed_subset,
        test_reduce.test_dc_tail_closed_fail,
        test_reduce.test_dc_closed_tail_subset,
        test_reduce.test_dc_closed_tail_restart,
        test_reduce.test_dc_tail_tail_subset,
        test_reduce.test_dc_tail_tail_restart,
        test_reduce.test_dc_restart_reprocesses_reduced_constraints,
    )
    for case in battery:
        case()
    _passline(7, "dirt constraint clauses", start, 1.0)
