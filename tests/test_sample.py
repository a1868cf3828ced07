"""Ground instantiation sampling: forced content, pinning, and repair."""

import copy
import random

import pytest

from coersimp import sample
from coersimp.check import NoWitness, value_inclusion_coercion
from coersimp.corpus import load_bundled
from coersimp.sample import (
    SampleError,
    Sampler,
    buried_params,
    forced_dirt_content,
    sample_eta,
)
from coersimp.subst import check_validity
from coersimp.syntax import (
    CompType,
    Dirt,
    EMPTY_CONTEXT,
    Lam,
    ParamContext,
    Return,
    SkelArrow,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    Var,
    dirt,
)

from gen import SHAPES, TEST_SIG, random_context, shape_context
from reference_sample import sample_eta_reference

R = frozenset({"Random"})
RF = frozenset({"Random", "Fail"})


def dctx(dirt_cos, params=("d1", "d2", "d3")):
    return ParamContext((), tuple(params), (), tuple(dirt_cos), ())


def arrow(dom, cod_ty, cod_dirt=None):
    return TyArrow(dom, CompType(cod_ty, cod_dirt or dirt()))


# ---------------------------------------------------------------------------
# Forced content


def test_forced_content_propagates_through_chain():
    ctx = dctx([
        ("p1", Dirt(R, "d1"), dirt((), "d2")),
        ("p2", dirt((), "d2"), dirt((), "d3")),
    ])
    assert forced_dirt_content(ctx) == {
        "d1": frozenset(), "d2": R, "d3": R}


def test_forced_content_fixpoint_over_cycle():
    ctx = dctx([
        ("p1", Dirt(R, "d1"), dirt((), "d2")),
        ("p2", dirt((), "d2"), dirt((), "d1")),
    ], params=("d1", "d2"))
    assert forced_dirt_content(ctx) == {"d1": R, "d2": R}


def test_forced_content_stops_at_absorbing_label():
    ctx = dctx([("p1", Dirt(R, "d1"), Dirt(R, "d2"))], params=("d1", "d2"))
    assert forced_dirt_content(ctx) == {"d1": frozenset(), "d2": frozenset()}


def test_forced_content_detects_unsatisfiable_closed_bound():
    ctx = dctx([
        ("p1", Dirt(R, "d1"), dirt((), "d2")),
        ("p2", dirt((), "d2"), Dirt(frozenset({"Fail"}), None)),
    ], params=("d1", "d2"))
    with pytest.raises(SampleError):
        forced_dirt_content(ctx)


# ---------------------------------------------------------------------------
# Buried parameters


def test_buried_params_from_poltype():
    t = arrow(arrow(TyUnit(), TyUnit(), dirt((), "d1")),
              TyUnit(), dirt((), "d2"))
    assert buried_params(t) == {"d1"}


def test_buried_params_from_term_annotation():
    term = Lam("x", TyParam("a1"), Return(Var("x")))
    assert buried_params(None, term) == {"a1"}


def test_buried_params_nested_domain_collects_everything():
    inner = arrow(TyParam("a1"), TyParam("a2"), dirt((), "d1"))
    t = arrow(inner, TyUnit())
    assert buried_params(t) == {"a1", "a2", "d1"}


# ---------------------------------------------------------------------------
# Sampling


def test_sample_deterministic_per_seed():
    rng = random.Random(5)
    ctx = random_context(rng)
    one = sample_eta(TEST_SIG, ctx, random.Random("fixed"))
    two = sample_eta(TEST_SIG, ctx, random.Random("fixed"))
    assert one.dirt == two.dirt and one.ty == two.ty and one.skel == two.skel


def test_sample_validity_fuzz():
    rng = random.Random(23)
    for _ in range(300):
        ctx = random_context(rng)
        eta = sample_eta(TEST_SIG, ctx, rng)
        check_validity(TEST_SIG, ctx, eta, EMPTY_CONTEXT)
        for d in ctx.dirt_params:
            assert eta.dirt[d].tail is None
        for name, _, _ in ctx.dirt_cos:
            assert name in eta.dco
        for name, _, _ in ctx.ty_cos:
            assert name in eta.vco


def test_sample_enumerable_pins_buried_dirt_only():
    ctx = dctx([], params=("d1", "d2"))
    pol = arrow(arrow(TyUnit(), TyUnit(), dirt((), "d1")),
                TyUnit(), dirt((), "d2"))
    seen_d2 = set()
    for i in range(60):
        eta = sample_eta(TEST_SIG, ctx, random.Random(i),
                         enumerable=True, poltype=pol)
        assert eta.dirt["d1"] == dirt()
        seen_d2.add(eta.dirt["d2"].ops)
    assert any(ops for ops in seen_d2), "unpinned parameter never varied"


def test_sample_pinned_param_keeps_forced_content():
    ctx = dctx([("p1", Dirt(R, None), dirt((), "d1"))], params=("d1",))
    pol = arrow(arrow(TyUnit(), TyUnit(), dirt((), "d1")), TyUnit())
    for i in range(20):
        eta = sample_eta(TEST_SIG, ctx, random.Random(i),
                         enumerable=True, poltype=pol)
        assert eta.dirt["d1"] == Dirt(R, None)


def test_sample_enumerable_keeps_skeletons_first_order():
    ctx = ParamContext(("s1",), (), (("a1", SkelParam("s1")),), (), ())
    for i in range(100):
        eta = sample_eta(TEST_SIG, ctx, random.Random(i), enumerable=True)
        assert not isinstance(eta.skel["s1"], SkelArrow)
        assert isinstance(eta.ty["a1"], (TyUnit, TyBase))


def test_sample_strict_pins_everything():
    rng = random.Random(29)
    for _ in range(50):
        ctx = random_context(rng)
        eta = sample_eta(TEST_SIG, ctx, rng, strict=True)
        least = forced_dirt_content(ctx)
        for d in ctx.dirt_params:
            assert eta.dirt[d] == Dirt(least[d], None)
        for a, _ in ctx.ty_params:
            assert isinstance(eta.ty[a], (TyUnit, TyBase))


def test_sample_diamond_type_upper_bound_regression():
    """Two incomparable lower bounds joined into a shared upper parameter."""
    ctx = ParamContext(
        ("s1",), (),
        tuple((a, SkelParam("s1")) for a in ("a1", "a2", "a3")),
        (),
        (("w1", TyParam("a1"), TyParam("a3")),
         ("w2", TyParam("a2"), TyParam("a3"))))
    for i in range(200):
        eta = sample_eta(TEST_SIG, ctx, random.Random(i))
        for lo in ("a1", "a2"):
            value_inclusion_coercion(eta.ty[lo], eta.ty["a3"])


def test_sample_reports_unsatisfiable_context():
    ctx = dctx([("p1", Dirt(R, None), Dirt(frozenset({"Fail"}), None))],
               params=())
    with pytest.raises(SampleError):
        sample_eta(TEST_SIG, ctx, random.Random(0))


# ---------------------------------------------------------------------------
# Lattice bounds of ground types

F = frozenset({"Fail"})
UNIT = TyUnit()


def thunk_arrow(dom_ops, res_ops, ops):
    """`(unit -> unit!dom_ops) -> (unit -> unit!res_ops)!ops`."""
    return arrow(arrow(UNIT, UNIT, Dirt(dom_ops)), arrow(UNIT, UNIT, Dirt(res_ops)), Dirt(ops))


@pytest.mark.parametrize("up, want", [
    # A result dirt takes the bound asked for, at every depth; a domain
    # takes the other one.
    pytest.param(True, thunk_arrow(frozenset(), RF, RF), id="join"),
    pytest.param(False, thunk_arrow(RF, frozenset(), frozenset()), id="meet"),
])
def test_join_and_meet_of_arrows_flip_at_the_domain(up, want):
    a, b = thunk_arrow(R, R, R), thunk_arrow(F, F, F)
    table = {}
    got = sample._join_vty(a, b, table, up)
    assert got == want
    assert table[id(got)] is got and table[id(got.dom)] is got.dom
    assert sample._join_vty(a, b, table, up) is got
    assert sample._join_vty(b, b, table, up) is b


@pytest.mark.parametrize("a, b, up, says", [
    (UNIT, TyBase("bit"), True, "no join of unit and bit"),
    (UNIT, TyBase("bit"), False, "no meet of unit and bit"),
    (arrow(UNIT, UNIT), arrow(TyBase("bit"), UNIT), True, "no meet of unit and bit"),
    (arrow(UNIT, UNIT), arrow(UNIT, TyBase("bit")), False, "no meet of unit and bit"),
])
def test_join_and_meet_of_different_shapes_fail(a, b, up, says):
    with pytest.raises(SampleError) as exc:
        sample._join_vty(a, b, {}, up)
    assert str(exc.value) == says


@pytest.mark.parametrize("s", [
    pytest.param(SkelParam("s1"), id="param"),
    pytest.param(SkelArrow(SkelUnit(), SkelParam("s1")), id="arrow-to-param"),
])
def test_a_skeleton_parameter_has_no_ground_type(s):
    with pytest.raises(SampleError):
        sample._ground_of_skeleton(s, random.Random(0), (), False, {})


# ---------------------------------------------------------------------------
# Worklist repair against the sweeping reference


def same_draw(sig, ctx, seed, **mode):
    """The sampler and the reference give equal instantiations on the same
    draw, or fail with the same message."""
    try:
        want = sample_eta_reference(sig, ctx, random.Random(seed), **mode)
    except SampleError as exc:
        with pytest.raises(SampleError) as got:
            sample_eta(sig, ctx, random.Random(seed), **mode)
        assert str(got.value) == str(exc), seed
        return
    assert sample_eta(sig, ctx, random.Random(seed), **mode) == want, seed


MODES = {"free": {}, "enumerable": {"enumerable": True}, "strict": {"strict": True}}


@pytest.mark.parametrize("mode", MODES)
def test_sampler_matches_reference_on_corpus_items(mode):
    for item in load_bundled():
        for i in range(4):
            same_draw(item.signature, item.context, f"ref:{item.name}:{i}",
                      poltype=item.poltype, term=item.term, **MODES[mode])


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("family", SHAPES)
def test_sampler_matches_reference_on_bench_shapes(family, mode):
    for n in (50, 200):
        ctx, _ = shape_context(family, n)
        for i in range(2):
            same_draw(TEST_SIG, ctx, f"ref:{family}:{n}:{i}", **MODES[mode])


@pytest.mark.parametrize("mode", MODES)
def test_sampler_matches_reference_on_random_contexts(mode):
    rng = random.Random(f"ref:{mode}")
    for i in range(300):
        ctx = random_context(rng, max_dirts=8, max_tys=8, max_cos=12)
        same_draw(TEST_SIG, ctx, i, **MODES[mode])


def test_sampler_matches_reference_on_failures():
    """An inclusion into a closed arrow type fails on most draws (the
    sampled lower bound carries random operations), and an unsatisfiable
    dirt bound fails on every draw; both with the reference's message."""
    closed = arrow(TyUnit(), TyUnit())
    ctx = ParamContext(
        (), (), (("a1", SkelArrow(SkelUnit(), SkelUnit())),), (),
        (("w1", TyParam("a1"), closed),))
    unsat = dctx([("p1", Dirt(R, None), Dirt(frozenset({"Fail"}), None))], params=())
    failed = 0
    for i in range(40):
        for c in (ctx, unsat):
            try:
                sample_eta(TEST_SIG, c, random.Random(i))
            except SampleError:
                failed += 1
            same_draw(TEST_SIG, c, i)
    assert 40 < failed < 80


# ---------------------------------------------------------------------------
# One prepared sampler, many draws


def outcome(draw, rng):
    """A draw's instantiation, or its `SampleError` message, and the state
    of its rng after it."""
    try:
        got = draw(rng)
    except SampleError as exc:
        got = str(exc)
    return got, rng.getstate()


def tables(sampler):
    return copy.deepcopy((sampler.ops, sampler.least, sampler.unsat, sampler.buried,
                          sampler.every, sampler.uppers, sampler.mentions))


# The modes of a sequence of draws on one rng: every mode, and enumerable
# draws followed by strict redraws as `cli._verify_once` makes them.
SEQUENCE = ("free", "enumerable", "strict", "enumerable", "enumerable", "strict",
            "free", "strict", "enumerable")


def same_sequence(sig, ctx, seed, poltype=None, term=None):
    """One `Sampler` draws the modes of `SEQUENCE` in turn from one rng;
    each draw equals a one-shot `sample_eta` draw and the reference's, each
    on its own rng of the same seed, and leaves its rng as they leave
    theirs. The prepared tables never change."""
    sampler = Sampler(sig, ctx, poltype, term)
    prepared = tables(sampler)
    assert prepared == tables(Sampler(sig, ctx, poltype, term))
    mine, once, ref = (random.Random(seed) for _ in range(3))
    for mode in SEQUENCE:
        kw = dict(MODES[mode], poltype=poltype, term=term)
        got = outcome(lambda r: sampler.draw(r, **MODES[mode]), mine)
        assert got == outcome(lambda r: sample_eta(sig, ctx, r, **kw), once), (seed, mode)
        assert got == outcome(lambda r: sample_eta_reference(sig, ctx, r, **kw), ref), (seed, mode)
        assert tables(sampler) == prepared, (seed, mode)


def test_prepared_sampler_draws_as_one_shot_draws_on_corpus_items():
    for item in load_bundled():
        for i in range(3):
            same_sequence(item.signature, item.context, f"seq:{item.name}:{i}",
                          item.poltype, item.term)


@pytest.mark.parametrize("family", SHAPES)
def test_prepared_sampler_draws_as_one_shot_draws_on_bench_shapes(family):
    ctx, pol = shape_context(family, 50)
    for i in range(2):
        same_sequence(TEST_SIG, ctx, f"seq:{family}:{i}", pol)


def test_prepared_sampler_draws_as_one_shot_draws_on_random_contexts():
    rng = random.Random("seq")
    for i in range(150):
        ctx = random_context(rng, max_dirts=8, max_tys=8, max_cos=12)
        same_sequence(TEST_SIG, ctx, i)


def test_prepared_sampler_fails_in_the_draw_with_the_reference_message():
    """Preparing a sampler for an unsatisfiable context raises nothing;
    each draw then raises the reference's `SampleError`, after drawing
    what the reference draws before it fails. A context that fails only
    on some draws (an inclusion into a closed arrow) fails on the same."""
    unsat = ParamContext(("s1", "s2"), (), (), (
        ("p1", Dirt(R, None), Dirt(frozenset({"Fail"}), None)),), ())
    closed = ParamContext(
        (), (), (("a1", SkelArrow(SkelUnit(), SkelUnit())),), (),
        (("w1", TyParam("a1"), arrow(TyUnit(), TyUnit())),))
    sampler = Sampler(TEST_SIG, unsat)
    for i in range(4):
        same_sequence(TEST_SIG, unsat, f"unsat:{i}")
        same_sequence(TEST_SIG, closed, f"closed:{i}")
        for mode in MODES:
            with pytest.raises(SampleError, match="unsatisfiable constraint p1"):
                sampler.draw(random.Random(i), **MODES[mode])


def test_a_draw_without_an_inclusion_fails_with_the_builders_message(monkeypatch):
    """A draw ends with `ValidityCheck.ground`: a constraint whose final
    images have no inclusion coercion raises `NoWitness` with the message
    of `value_inclusion_coercion`, not `UnmappedParam`. The type repair is
    made to accept every pair, so a closed pair without one gets there."""
    lo, hi = arrow(TyUnit(), TyUnit(), dirt(("Fail",))), arrow(TyUnit(), TyUnit())
    ctx = ParamContext((), (), (), (), (("w1", lo, hi),))
    with pytest.raises(SampleError, match="cannot satisfy"):
        Sampler(TEST_SIG, ctx).draw(random.Random(0))
    with pytest.raises(NoWitness) as want:
        value_inclusion_coercion(lo, hi)
    monkeypatch.setattr(sample, "interned_inclusion", lambda sig, lo, hi: "accepted")
    with pytest.raises(NoWitness) as got:
        Sampler(TEST_SIG, ctx).draw(random.Random(0))
    assert str(got.value) == str(want.value)


def test_settle_examines_again_a_constraint_its_own_repair_left_unsettled():
    """`_settle` makes the repairs that in-order sweeps repeated until one
    changes nothing make, in their order, also where a repair leaves its
    own constraint unsettled: constraint 0 raises x by one towards 2, so it
    needs a second examination after its first repair."""

    def system():
        state, changes = {"x": 0, "y": 0}, []

        def repair(i):  # 0: x >= 2, raised by one; 1: y >= x
            if i == 0 and state["x"] < 2:
                state["x"] += 1
            elif i == 1 and state["y"] < state["x"]:
                state["y"] = state["x"]
            else:
                return None
            changes.append(i)
            return "xy"[i]

        return state, changes, repair

    state, changes, repair = system()
    sample._settle(2, repair, {"x": [0, 1], "y": [1]})
    want_state, want_changes, sweep_repair = system()
    while any([sweep_repair(i) is not None for i in range(2)]):  # one in-order sweep
        pass
    assert (state, changes) == (want_state, want_changes) == ({"x": 2, "y": 2}, [0, 1, 0, 1])


def test_dirt_repair_costs_linear_in_the_constraints(monkeypatch):
    """The dirt repair re-examines only constraints whose upper tail
    shrank, so examinations per constraint do not grow with the chain
    (in-order sweeps over a chain need more passes as it grows). The dirt
    repair is the first that a draw settles."""
    settled = []
    original = sample._settle

    def counted(count, repair, watchers):
        calls = []
        settled.append(calls)
        return original(count, lambda i: calls.append(i) or repair(i), watchers)

    monkeypatch.setattr(sample, "_settle", counted)
    per_constraint = {}
    for n in (100, 400):
        ctx, pol = shape_context("chain", n)
        settled.clear()
        for i in range(5):
            sample_eta(TEST_SIG, ctx, random.Random(f"cost:{i}"), enumerable=True)
        examined = sum(len(calls) for calls in settled[::2])
        per_constraint[n] = examined / (5 * len(ctx.dirt_cos))
    assert per_constraint[400] <= 1.1 * per_constraint[100], per_constraint
    assert per_constraint[400] <= 3, per_constraint
