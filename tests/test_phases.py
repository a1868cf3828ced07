"""Strengthening phases: each move on a minimal hand-built context, then
whole-pipeline invariants over the bundled corpus and random contexts."""

import random
from collections import Counter

import pytest

from coersimp.check import check_dco, check_vco, wf_context
from coersimp.corpus import load_bundled
from coersimp.phases import (
    PRESETS,
    parse_phase_config,
    run_phases,
    simplify,
)
from coersimp.polarity import EMPTY_FPS, FreeParamSet, fp_vty, subst_fps
from coersimp.reduce import is_canonical, reduce_context
from coersimp.subst import apply_dirt, apply_vty, check_validity, resolve
from coersimp.syntax import (
    CCoercion,
    DCoEmptyUnder,
    DCoercion,
    DCoReflParam,
    Dirt,
    ParamContext,
    SkelParam,
    TyParam,
    VCoercion,
    dirt,
)

from gen import SHAPES, TEST_SIG, random_context, random_fps, shape_context, step_contexts
from reference_phases import run_reference_phases
import scale

FULL = Dirt(frozenset({"Fail", "Random"}), None)


def ty_ctx(ty_cos, params=("a1", "a2", "a3")):
    return ParamContext(
        ("s1",), (), tuple((p, SkelParam("s1")) for p in params),
        (), tuple(ty_cos))


def dirt_ctx(dirt_cos, params=("d1", "d2", "d3")):
    return ParamContext((), tuple(params), (), tuple(dirt_cos), ())


def fps(pos=(), neg=()):
    return FreeParamSet(frozenset(pos), frozenset(neg))


def run(ctx, instructions, pol=EMPTY_FPS):
    res = run_phases(TEST_SIG, ctx, pol, instructions)
    for step, before, after in step_contexts(res):
        check_validity(TEST_SIG, before, step.subst, after)
    check_validity(TEST_SIG, ctx, res.subst, res.context)
    wf_context(TEST_SIG, res.context)
    assert res.fps == subst_fps(res.subst, pol)
    return res


# ---------------------------------------------------------------------------
# Configuration parsing


def test_parse_presets():
    assert parse_phase_config("none") == []
    assert parse_phase_config("scc") == [("cleanup", "both"), ("scc", "both")]
    assert parse_phase_config("all")[-1] == ("empty", "dirt")


def test_parse_full_dirt_flag():
    assert parse_phase_config("dirt", full_dirt=True)[-1] == ("full", "dirt")
    assert parse_phase_config("all", full_dirt=True)[-1] == ("full", "dirt")
    assert ("full", "dirt") not in parse_phase_config("type", full_dirt=True)
    assert parse_phase_config("none", full_dirt=True) == []


def test_parse_custom():
    got = parse_phase_config("custom:cleanup.type, scc, empty")
    assert got == [("cleanup", "type"), ("scc", "both"), ("empty", "dirt")]
    with pytest.raises(ValueError):
        parse_phase_config("bogus")
    with pytest.raises(ValueError):
        parse_phase_config("custom:sharpen")
    with pytest.raises(ValueError):
        parse_phase_config("custom:empty.type")
    with pytest.raises(ValueError):
        parse_phase_config("custom:scc.sideways")


# ---------------------------------------------------------------------------
# Cleanup


def test_cleanup_drops_type_loop():
    ctx = ty_ctx([("w1", TyParam("a1"), TyParam("a1"))], params=("a1",))
    res = run(ctx, [("cleanup", "type")])
    assert res.context.ty_cos == ()
    assert [s.phase for s in res.steps] == ["cleanup-loop"]


def test_cleanup_drops_dirt_loop():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt(("Random",), "d1"))],
                   params=("d1",))
    res = run(ctx, [("cleanup", "dirt")])
    assert res.context.dirt_cos == ()
    assert res.context.dirt_params == ("d1",)


def test_cleanup_merges_parallel_type_edges():
    ctx = ty_ctx([
        ("w1", TyParam("a1"), TyParam("a2")),
        ("w2", TyParam("a1"), TyParam("a2")),
    ], params=("a1", "a2"))
    res = run(ctx, [("cleanup", "type")])
    assert [n for n, _, _ in res.context.ty_cos] == ["w1"]
    assert res.subst.vco["w2"].name == "w1"


def test_cleanup_intersects_parallel_dirt_edges_keeping_meet():
    ctx = dirt_ctx([
        ("p1", dirt((), "d1"), dirt(("Random",), "d2")),
        ("p2", dirt((), "d1"), dirt(("Random", "Fail"), "d2")),
    ], params=("d1", "d2"))
    res = run(ctx, [("cleanup", "dirt")])
    assert [(n, hi.ops) for n, _, hi in res.context.dirt_cos] == [
        ("p1", frozenset({"Random"}))]


def test_cleanup_intersects_parallel_dirt_edges_fresh_meet():
    """Incomparable labels meet strictly below both, needing a new edge."""
    ctx = dirt_ctx([
        ("p1", dirt((), "d1"), dirt(("Random",), "d2")),
        ("p2", dirt((), "d1"), dirt(("Fail",), "d2")),
    ], params=("d1", "d2"))
    res = run(ctx, [("cleanup", "dirt")])
    assert len(res.context.dirt_cos) == 1
    name, lo, hi = res.context.dirt_cos[0]
    assert name not in ("p1", "p2")
    assert (lo, hi) == (dirt((), "d1"), dirt((), "d2"))


# ---------------------------------------------------------------------------
# Component contraction


def test_scc_contracts_type_cycle():
    ctx = ty_ctx([
        ("w1", TyParam("a1"), TyParam("a2")),
        ("w2", TyParam("a2"), TyParam("a1")),
        ("w3", TyParam("a2"), TyParam("a3")),
    ])
    res = run(ctx, [("scc", "type")])
    assert [n for n, _ in res.context.ty_params] == ["a1", "a3"]
    assert [(lo.name, hi.name) for _, lo, hi in res.context.ty_cos] == [
        ("a1", "a3")]
    assert apply_vty(res.subst, TyParam("a2")) == TyParam("a1")


def test_scc_dirt_ignores_labeled_edges():
    """Only the empty-labeled subgraph is contracted."""
    labeled_cycle = dirt_ctx([
        ("p1", dirt((), "d1"), dirt(("Random",), "d2")),
        ("p2", dirt((), "d2"), dirt((), "d1")),
    ], params=("d1", "d2"))
    res = run(labeled_cycle, [("scc", "dirt")])
    assert res.context == labeled_cycle


def test_scc_dirt_contracts_and_cleans_labeled_leftover():
    ctx = dirt_ctx([
        ("p1", dirt((), "d1"), dirt((), "d2")),
        ("p2", dirt((), "d2"), dirt((), "d1")),
        ("p3", dirt((), "d1"), dirt(("Random",), "d2")),  # becomes a loop
    ], params=("d1", "d2"))
    res = run(ctx, [("scc", "dirt")])
    assert res.context.dirt_params == ("d1",)
    assert res.context.dirt_cos == ()
    assert apply_dirt(res.subst, dirt((), "d2")) == dirt((), "d1")


# ---------------------------------------------------------------------------
# Bridges


def test_bridge_in_type_merges_target_down():
    ctx = ty_ctx([("w1", TyParam("a1"), TyParam("a2"))], params=("a1", "a2"))
    res = run(ctx, [("bridge", "type")], fps(pos={"a2"}))
    assert [n for n, _ in res.context.ty_params] == ["a1"]
    assert apply_vty(res.subst, TyParam("a2")) == TyParam("a1")


def test_bridge_out_type_merges_source_up():
    ctx = ty_ctx([("w1", TyParam("a1"), TyParam("a2"))], params=("a1", "a2"))
    res = run(ctx, [("bridge", "type")], fps(neg={"a2"}))
    assert [n for n, _ in res.context.ty_params] == ["a2"]
    assert apply_vty(res.subst, TyParam("a1")) == TyParam("a2")


def test_bridge_blocked_by_polarity_on_both_sides():
    ctx = ty_ctx([("w1", TyParam("a1"), TyParam("a2"))], params=("a1", "a2"))
    res = run(ctx, [("bridge", "type")], fps(pos={"a1"}, neg={"a2"}))
    assert res.context == ctx
    assert res.steps == []


def test_bridge_polarity_recomputed_after_each_step():
    """A merge can make the survivor negative and freeze the next bridge."""
    ctx = ty_ctx([
        ("w1", TyParam("a1"), TyParam("a3")),
        ("w2", TyParam("a2"), TyParam("a3")),
    ])
    res = run(ctx, [("bridge", "type")], fps(pos={"a1"}, neg={"a2"}))
    assert [n for n, _, _ in res.context.ty_cos] == ["w1"]
    assert apply_vty(res.subst, TyParam("a2")) == TyParam("a3")
    assert "a3" in res.fps.neg


def test_bridge_in_dirt_needs_empty_label():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt(("Random",), "d2"))],
                   params=("d1", "d2"))
    res = run(ctx, [("bridge", "dirt")], fps(pos={"d1"}, neg=()))
    assert res.context == ctx


def test_bridge_out_dirt_folds_label():
    ctx = dirt_ctx([
        ("p1", dirt((), "d1"), dirt(("Random",), "d2")),
        ("p2", dirt((), "d3"), dirt((), "d1")),
    ])
    res = run(ctx, [("bridge", "dirt")], fps(pos={"d3"}, neg={"d1", "d2"}))
    assert apply_dirt(res.subst, dirt((), "d1")) == dirt(("Random",), "d2")
    assert [(n, lo, hi) for n, lo, hi in res.context.dirt_cos] == [
        ("p2", dirt((), "d3"), dirt(("Random",), "d2"))]


# ---------------------------------------------------------------------------
# Dirt grounding


def test_empty_grounds_source_chain():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt((), "d2"))],
                   params=("d1", "d2"))
    res = run(ctx, [("empty", "dirt")])
    assert res.context.dirt_params == ()
    assert res.context.dirt_cos == ()
    assert apply_dirt(res.subst, dirt((), "d2")) == dirt()


def test_empty_skips_negative_and_everything_downstream():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt((), "d2"))],
                   params=("d1", "d2"))
    res = run(ctx, [("empty", "dirt")], fps(neg={"d1"}))
    assert res.context == ctx
    assert res.steps == []


def test_empty_discharges_closed_upper():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt(("Random",)))], params=("d1",))
    res = run(ctx, [("empty", "dirt")])
    assert res.context.dirt_params == ()
    assert res.context.dirt_cos == ()


def test_full_grounds_sink_param_keeping_lower_bounds():
    ctx = dirt_ctx([("p1", dirt((), "d2"), dirt((), "d1"))],
                   params=("d1", "d2"))
    res = run(ctx, [("full", "dirt")], fps(neg={"d1", "d2"}))
    # d1 goes to the whole signature; its lower bound survives closed, and
    # that closed bound in turn keeps d2 from being grounded.
    assert apply_dirt(res.subst, dirt((), "d1")) == FULL
    assert res.context.dirt_params == ("d2",)
    assert res.context.dirt_cos == (("p1", dirt((), "d2"), FULL),)


def test_full_blocked_by_closed_upper_bound_edge():
    ctx = dirt_ctx([("p1", dirt((), "d1"), dirt(("Random",)))], params=("d1",))
    res = run(ctx, [("full", "dirt")], fps(neg={"d1"}))
    assert res.context == ctx


def test_full_skips_positive_params():
    ctx = dirt_ctx([], params=("d1",))
    res = run(ctx, [("full", "dirt")], fps(pos={"d1"}))
    assert res.context == ctx


# ---------------------------------------------------------------------------
# Whole pipeline over the corpus


def corpus_runs():
    for item in load_bundled():
        for preset, instructions in PRESETS.items():
            yield item, preset, simplify(
                item.signature, item.context, fp_vty(item.poltype),
                instructions)


def test_simplify_valid_and_canonical_on_corpus():
    for item, preset, sim in corpus_runs():
        wf_context(item.signature, sim.context)
        assert is_canonical(sim.context), (item.name, preset)
        check_validity(item.signature, item.context, sim.subst, sim.context)
        for step, before, after in step_contexts(sim.phases):
            check_validity(item.signature, before, step.subst, after)


def test_simplify_idempotent_on_corpus():
    for item, preset, sim in corpus_runs():
        again = run_phases(item.signature, sim.context, sim.phases.fps,
                           PRESETS[preset])
        assert again.steps == [], (item.name, preset)
        assert again.context == sim.context


def test_full_dirt_on_sink_item():
    items = {i.name: i for i in load_bundled()}
    item = items["full_dirt_sink"]
    sim = simplify(item.signature, item.context, fp_vty(item.poltype),
                   parse_phase_config("dirt", full_dirt=True))
    assert sim.context.dirt_params == ()
    assert apply_dirt(sim.subst, dirt((), "d1")) == FULL
    blocked = items["closed_sink_blocked"]
    sim2 = simplify(blocked.signature, blocked.context,
                    fp_vty(blocked.poltype),
                    parse_phase_config("dirt", full_dirt=True))
    assert sim2.context == blocked.context


def test_phases_randomized_invariants():
    rng = random.Random(91)
    for _ in range(100):
        ctx = random_context(rng)
        pol = random_fps(rng, ctx)
        for preset, instructions in PRESETS.items():
            sim = simplify(TEST_SIG, ctx, pol, instructions)
            wf_context(TEST_SIG, sim.context)
            assert is_canonical(sim.context)
            check_validity(TEST_SIG, ctx, sim.subst, sim.context)
            again = run_phases(TEST_SIG, sim.context, sim.phases.fps,
                               instructions)
            assert again.steps == []


def assert_step_witnesses_fit(sig, run, label):
    """Each coercion entry of a step's `eta` checks in the context before
    the step with the endpoints its constraint has after it; each bound
    pair is that classifier."""
    for i, (step, before, after) in enumerate(step_contexts(run)):
        typed = step.sort == "type"
        for name, entry in step.eta.items():
            want = after.ty_co_classifier(name) if typed else after.dirt_co_classifier(name)
            if isinstance(entry, tuple):
                got = entry
            else:
                got = (check_vco if typed else check_dco)(sig, before, entry)
            assert got == want, (label, i, step.phase, name)


def test_step_witnesses_fit_their_classifiers():
    configs = dict(PRESETS, full=parse_phase_config("all", full_dirt=True))
    for item in load_bundled():
        for preset, instructions in configs.items():
            sim = simplify(item.signature, item.context, fp_vty(item.poltype),
                           instructions)
            assert_step_witnesses_fit(item.signature, sim.phases,
                                      (item.name, preset))
    for family in sorted(SHAPES):
        ctx, pol = shape_context(family, 50)
        for preset, instructions in configs.items():
            res = run_phases(TEST_SIG, ctx, pol, instructions)
            assert_step_witnesses_fit(TEST_SIG, res, (family, preset))


# ---------------------------------------------------------------------------
# Differential test against the reference engine


def step_key(step):
    return (step.phase, step.sort, step.info, step.subst, step.fps)


def assert_same_run(sig, ctx, pol, instructions, label, contexts=True):
    """The engine and the reference pick the same steps, in the same order,
    with the same results; with `contexts`, the contexts the engine derives
    between steps are the reference's too."""
    got = run_phases(sig, ctx, pol, instructions)
    want = run_reference_phases(sig, ctx, pol, instructions)
    return assert_same_runs(got, want, label, contexts)


def assert_same_runs(got, want, label, contexts=True):
    """`assert_same_run` on the engine's run `got` and the reference's `want`."""
    assert len(got.steps) == len(want.steps), label
    for i, (mine, ref) in enumerate(zip(got.steps, want.steps)):
        assert step_key(mine) == step_key(ref), (label, i)
    assert got.context == want.context, label
    assert got.subst == want.subst, label
    assert got.fps == want.fps, label
    if contexts:
        for i, ((_, before, after), ref) in enumerate(zip(step_contexts(got), want.steps)):
            assert before == ref.before and after == ref.after, (label, i)
    return got


def test_engine_matches_reference_on_corpus():
    for item in load_bundled():
        pol = fp_vty(item.poltype) if item.poltype is not None else EMPTY_FPS
        red = reduce_context(item.signature, item.context)
        pol = subst_fps(red.subst, pol)
        configs = dict(PRESETS, full=parse_phase_config("all", full_dirt=True))
        for preset, instructions in configs.items():
            assert_same_run(item.signature, red.context, pol, instructions,
                            (item.name, preset))


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_engine_matches_reference_on_bench_shapes(family, shape_runs):
    for n in (50, 200):
        for preset in ("all", "full"):
            sim, ref = shape_runs(family, n, preset)
            assert_same_runs(sim.phases, ref, (family, n, preset), contexts=n <= 50)


def test_engine_matches_reference_on_random_contexts():
    rng = random.Random(2024)
    configs = list(PRESETS.values()) + [
        parse_phase_config("all", full_dirt=True),
        parse_phase_config("custom:full,bridge,empty,scc.dirt,cleanup"),
    ]
    for size in (4, 4, 4, 10, 10, 30, 60, 150):
        ctx = random_context(rng, max_dirts=size, max_tys=size, max_cos=2 * size)
        pol = random_fps(rng, ctx)
        for instructions in configs:
            assert_same_run(TEST_SIG, ctx, pol, instructions, (size, instructions),
                            contexts=size <= 30)


def test_phase_cost_does_not_grow_with_steps(monkeypatch):
    """A run rewrites no whole context, composes no substitutions, builds
    each constraint graph once and searches each sort's graph for cycles
    once per `scc` phase (with the one successor map built for that
    search) when cleanup adds no edge, however many steps it takes."""
    import coersimp.graph
    import coersimp.phases
    import coersimp.subst

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (coersimp.phases, coersimp.subst, coersimp.graph):
        for name in ("apply_context", "compose", "build_type_graph", "build_dirt_graph",
                     "tarjan_scc"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    # A ring run's steps grow with its number of rings, about sqrt(n).
    for family, growth in (("chain", 3), ("ring", 1.5)):
        counts = {}
        for n in (100, 400):
            ctx, pol = shape_context(family, n)
            calls.clear()
            res = run_phases(TEST_SIG, ctx, pol, PRESETS["all"])
            counts[n] = (len(res.steps), dict(calls))
        (short, few), (long, many) = counts[100], counts[400]
        assert long > growth * short, family
        assert few == many == {"build_type_graph": 1, "build_dirt_graph": 1, "tarjan_scc": 2}


def _derived_dirt_mentions(g):
    """(derivation, parameter) for each dirt reflexivity and empty-below
    coercion of a parameter in the coercion `g`."""
    if isinstance(g, DCoReflParam):
        yield "derived_refl_dirt", g.name
    elif isinstance(g, DCoEmptyUnder):
        yield "derived_empty", g.tail
    for name in type(g).__match_args__:
        kid = getattr(g, name)
        if isinstance(kid, (CCoercion, DCoercion, VCoercion)):
            yield from _derived_dirt_mentions(kid)


def test_resolution_derives_only_the_dirt_coercions_an_image_mentions(monkeypatch):
    """`resolve` builds the derived reflexivity or empty-below coercion of
    a mapped dirt parameter once, and only if a step image mentions it, so
    its calls follow the mentions, not the steps (on a chain, no image
    mentions a mapped parameter's; on rings, each contracted ring's
    representative is mentioned and later bridged)."""
    import coersimp.subst

    calls = Counter()
    for derive in ("derived_refl_dirt", "derived_empty"):
        def counted(d, derive=derive, fn=getattr(coersimp.subst, derive)):
            calls[derive, d] += 1
            return fn(d)
        monkeypatch.setattr(coersimp.subst, derive, counted)
    for family in ("chain", "ring"):
        for n in (100, 400):
            ctx, pol = shape_context(family, n)
            res = run_phases(TEST_SIG, ctx, pol, PRESETS["all"])
            steps = [step.subst for step in res.steps]
            images = {name: d for sub in steps for name, d in sub.dirt.items()}
            mentioned = {(derive, name) for sub in steps
                         for g in (*sub.dco.values(), *sub.vco.values())
                         for derive, name in _derived_dirt_mentions(g) if name in images}
            calls.clear()
            assert resolve(steps) == res.subst
            assert calls == Counter((derive, images[name]) for derive, name in mentioned)
            if family == "ring":
                assert 0 < sum(calls.values()) < len(images) / 4
            else:
                assert not calls


def test_scale_script_still_runs(capsys):
    """`tests/scale.py`, which no other check runs, still imports and runs:
    one row per shape at 100 parameters per sort."""
    scale.main([100])
    rows = [line.split()[:2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows == [["chain", "100"], ["ladder", "100"]]
