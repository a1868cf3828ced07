"""Completeness witnesses: replaying phase runs against ground instances."""

import random

import pytest

from coersimp.cli import _simplified
from coersimp.check import (
    EndpointMismatch,
    NoWitness,
    check_dco,
    check_vco,
    derived_refl_dirt,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
)
from coersimp.corpus import load_bundled, parse_corpus
from coersimp.phases import PRESETS, parse_phase_config, run_phases, simplify
from coersimp.polarity import FreeParamSet, fp_vty, precompose_family
from coersimp.reduce import reduce_context
from coersimp.sample import sample_eta
from coersimp.subst import (
    Substitution,
    apply_dirt,
    apply as apply_vty,
    compose,
    compose_at,
)
from coersimp.syntax import (
    CompType,
    DCoCompose,
    SkelArrow,
    EMPTY_CONTEXT,
    ParamContext,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    VCoCompose,
    VCoercion,
    dirt,
)
from coersimp.witness import (
    ReductionReplay,
    WitnessBug,
    WitnessPlan,
    WitnessResult,
    _match_dirt,
    build_witness,
    build_witness_total,
    check_witness_total,
    replay_reduction,
)

from gen import SHAPES, TEST_SIG, random_context, random_fps, reference_run, shape_context
from reference_phases import run_reference_phases
from reference_witness import build_witness as build_reference_witness


def fps(pos=(), neg=()):
    return FreeParamSet(frozenset(pos), frozenset(neg))


def ground_arrow(ops=()):
    return TyArrow(TyUnit(), CompType(TyUnit(), dirt(ops)))


def test_bridge_in_dirt_witness_reuses_crossing_coercion():
    ctx = ParamContext(
        (), ("d1", "d2"), (),
        (("p1", dirt((), "d1"), dirt((), "d2")),), ())
    run = run_phases(TEST_SIG, ctx, fps(pos={"d2"}), [("bridge", "dirt")])
    eta0 = Substitution(
        dirt={"d1": dirt(("Fail",)), "d2": dirt(("Fail", "Random"))})
    eta0.dco["p1"] = dirt_inclusion_coercion(
        eta0.dirt["d1"], eta0.dirt["d2"])
    wit = build_witness(run, eta0)
    check_witness_total(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family["d2"])
    assert got == (dirt(("Fail",)), dirt(("Fail", "Random")))
    assert wit.eta.dirt == {"d1": dirt(("Fail",))}


def test_bridge_out_type_witness_negative_orientation():
    ctx = ParamContext(
        ("s1",), (),
        (("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
        (), (("w1", TyParam("a1"), TyParam("a2")),))
    run = run_phases(TEST_SIG, ctx, fps(neg={"a1", "a2"}), [("bridge", "type")])
    assert run.context.ty_params == (("a2", SkelParam("s1")),)
    lo, hi = ground_arrow(), ground_arrow(("Random",))
    eta0 = Substitution(skel={"s1": SkelArrow(SkelUnit(), SkelUnit())},
                        ty={"a1": lo, "a2": hi})
    eta0.vco["w1"] = value_inclusion_coercion(lo, hi)
    wit = build_witness(run, eta0)
    check_witness_total(TEST_SIG, run, eta0, wit)
    # a1 is negative: its entry embeds the original image into the merged one
    assert check_vco(TEST_SIG, EMPTY_CONTEXT, wit.family["a1"]) == (lo, hi)


def test_empty_grounding_witness_endpoints():
    ctx = ParamContext((), ("d1",), (), (), ())
    run = run_phases(TEST_SIG, ctx, fps(pos={"d1"}), [("empty", "dirt")])
    eta0 = Substitution(dirt={"d1": dirt(("Random",))})
    wit = build_witness(run, eta0)
    check_witness_total(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family["d1"])
    assert got == (dirt(), dirt(("Random",)))


def test_full_grounding_witness_endpoints():
    ctx = ParamContext((), ("d1",), (), (), ())
    run = run_phases(TEST_SIG, ctx, fps(neg={"d1"}), [("full", "dirt")])
    eta0 = Substitution(dirt={"d1": dirt(("Random",))})
    wit = build_witness(run, eta0)
    check_witness_total(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family["d1"])
    assert got == (dirt(("Random",)), dirt(("Fail", "Random")))


def test_scc_witness_demands_equal_cycle_images():
    ctx = ParamContext(
        ("s1",), (),
        (("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
        (), (("w1", TyParam("a1"), TyParam("a2")),
             ("w2", TyParam("a2"), TyParam("a1"))))
    run = run_phases(TEST_SIG, ctx, fps(pos={"a1", "a2"}), [("scc", "type")])
    assert run.context.ty_cos == ()
    sk = SkelArrow(SkelUnit(), SkelUnit())
    bogus = Substitution(
        skel={"s1": sk},
        ty={"a1": ground_arrow(), "a2": ground_arrow(("Random",))})
    with pytest.raises(WitnessBug):
        build_witness(run, bogus)
    good = Substitution(skel={"s1": sk},
                        ty={"a1": ground_arrow(), "a2": ground_arrow()})
    good.vco["w1"] = value_inclusion_coercion(ground_arrow(), ground_arrow())
    good.vco["w2"] = good.vco["w1"]
    wit = build_witness(run, good)
    check_witness_total(TEST_SIG, run, good, wit)


def test_replay_reduction_factors_exactly():
    for item in load_bundled():
        red = reduce_context(item.signature, item.context)
        if not any(red.subst.maps()):
            continue
        plan = ReductionReplay(item.signature, red)
        for i in range(5):
            eta0 = sample_eta(item.signature, item.context,
                              random.Random(f"rr:{item.name}:{i}"))
            eta_r = replay_reduction(plan, eta0)
            for d in item.context.dirt_params:
                assert apply_dirt(compose(eta_r, red.subst),
                                  dirt((), d)) == eta0.dirt[d]
            for a, _ in item.context.ty_params:
                assert apply_vty(compose(eta_r, red.subst),
                                 TyParam(a)) == eta0.ty[a]


def test_replay_reduction_rejects_an_instantiation_that_does_not_factor():
    arrow = ParamContext((), (), (("a1", SkelArrow(SkelUnit(), SkelUnit())),), (), ())
    absorbed = ParamContext((), ("d1",), (), (("p1", dirt(("Fail",)), dirt((), "d1")),), ())
    for ctx, eta0 in (
        (arrow, Substitution(ty={"a1": TyBase("bit")})),
        # reduction forces Fail into d1; the image of d1 lacks it
        (absorbed, Substitution(dirt={"d1": dirt(("Random",))})),
    ):
        red = reduce_context(TEST_SIG, ctx)
        with pytest.raises(WitnessBug):
            replay_reduction(ReductionReplay(TEST_SIG, red), eta0)
    # Reduction keeps d1 and maps a1; an image of d1 with a tail is not ground.
    kept = ParamContext((), ("d1",), (("a1", SkelArrow(SkelUnit(), SkelUnit())),), (), ())
    red = reduce_context(TEST_SIG, kept)
    assert "d1" not in red.subst.dirt and "a1" in red.subst.ty
    eta0 = Substitution(dirt={"d1": dirt((), "d9")},
                        ty={"a1": TyArrow(TyUnit(), CompType(TyUnit(), dirt()))})
    with pytest.raises(WitnessBug, match="instantiation image d9 is not ground"):
        replay_reduction(ReductionReplay(TEST_SIG, red), eta0)


def test_replay_reduction_raises_the_inclusions_own_message_where_there_is_none():
    """A replayed constraint whose bounds' images have no inclusion
    coercion raises `NoWitness` with the inclusion function's own message,
    on every replay (the signature remembers the pair as missing)."""
    unit_arrow = SkelArrow(SkelUnit(), SkelUnit())
    dirts = ParamContext((), ("d1", "d2"), (), (("p1", dirt(("Fail",)), dirt((), "d2")),
                                                ("p2", dirt((), "d1"), dirt((), "d2"))), ())
    types = ParamContext(("s",), (), (("a1", SkelParam("s")), ("a2", SkelParam("s"))), (),
                         (("w1", TyParam("a1"), TyParam("a2")),))
    for ctx, eta0, lo, hi, build in (
        (dirts, Substitution(dirt={"d1": dirt(("Random",)), "d2": dirt(("Fail",))}),
         dirt(("Random",)), dirt(("Fail",)), dirt_inclusion_coercion),
        (types, Substitution(skel={"s": unit_arrow},
                             ty={"a1": ground_arrow(("Fail",)), "a2": ground_arrow()}),
         ground_arrow(("Fail",)), ground_arrow(), value_inclusion_coercion),
    ):
        with pytest.raises(NoWitness) as want:
            build(lo, hi)
        plan = ReductionReplay(TEST_SIG, reduce_context(TEST_SIG, ctx))
        for _ in range(2):
            with pytest.raises(NoWitness) as got:
                replay_reduction(plan, eta0)
            assert str(got.value) == str(want.value)


def test_total_witness_on_corpus_items():
    names = ["apply_if", "apply_randomly", "cycle_type", "empty_dirt_chain",
             "bipolar_pair", "source_dirt", "nested_positions"]
    items = {i.name: i for i in load_bundled()}
    for name in names:
        item = items[name]
        pol = fp_vty(item.poltype)
        for preset, instructions in PRESETS.items():
            sim = simplify(item.signature, item.context, pol, instructions)
            for i in range(10):
                rng = random.Random(f"wit:{name}:{preset}:{i}")
                eta0 = sample_eta(item.signature, item.context, rng,
                                  poltype=item.poltype, term=item.term)
                wit = build_witness_total(item.signature, sim, eta0)
                check_witness_total(item.signature, sim, eta0, wit)


@pytest.mark.parametrize("full_dirt", [False, True])
@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_witness_check_composes_at_the_tracked_names_as_compose_does(preset, full_dirt):
    """`check_witness_total` composes the witness with the run's
    substitution only at the tracked names, the only names its family
    check reads. There the images equal those of the full composition."""
    checked = 0
    for item in load_bundled():
        sim, _, _, _ = _simplified(item, preset, full_dirt)
        tracked = sim.fps0.members()
        for i in range(3):
            rng = random.Random(f"at:{item.name}:{preset}:{i}")
            eta0 = sample_eta(item.signature, item.context, rng,
                              poltype=item.poltype, term=item.term)
            wit = build_witness_total(item.signature, sim, eta0)
            full = compose(wit.eta, sim.subst)
            some = compose_at(wit.eta, sim.subst, tracked)
            assert some.domain() <= tracked, item.name
            for n in tracked:
                assert apply_vty(some, TyParam(n)) == apply_vty(full, TyParam(n)), (item.name, n)
                assert apply_dirt(some, dirt((), n)) == apply_dirt(full, dirt((), n)), (item.name, n)
                checked += 1
    assert checked > 100


def test_match_dirt_guards():
    """A closed pattern equal to its ground dirt binds nothing; one with
    other operations, or a ground image with a tail, is a witness bug."""
    eta = Substitution()
    _match_dirt(dirt(("Random",)), dirt(("Random",)), eta, {})
    assert eta == Substitution()
    with pytest.raises(WitnessBug, match="dirt mismatch"):
        _match_dirt(dirt(("Random",)), dirt(("Flip",)), eta, {})
    with pytest.raises(WitnessBug, match="not ground"):
        _match_dirt(dirt((), "d1"), dirt((), "d2"), eta, {})
    assert eta == Substitution()


NESTED_SKELETONS = """
(item nested_skeletons
  (signature (op Random (unit) (base bit)))
  (context
    (skel s1)
    (typaram f0 (arrow (arrow (param s1) (param s1)) (param s1)))
    (typaram f1 (arrow (arrow (param s1) (param s1)) (param s1)))
    (tyco c0 (param f0) (param f1)))
  (poltype (arrow (param f0) (comp (param f1) (dirt ()))))
  (term (lam x (param f0) (return (castv (var x) (covar c0))))))
"""


def test_total_witness_on_depth_two_skeletons():
    """Reduction decomposes a depth-2 arrow skeleton through intermediate
    names that the original instantiation does not bind."""
    (item,) = parse_corpus(NESTED_SKELETONS)
    pol = fp_vty(item.poltype)
    for preset in ("none", "scc", "all"):
        sim = simplify(item.signature, item.context, pol, PRESETS[preset])
        assert set(sim.reduction.subst.ty) - {"f0", "f1"}, "no intermediate names"
        for i in range(5):
            rng = random.Random(f"nested:{preset}:{i}")
            eta0 = sample_eta(item.signature, item.context, rng,
                              poltype=item.poltype, term=item.term)
            wit = build_witness_total(item.signature, sim, eta0)
            check_witness_total(item.signature, sim, eta0, wit)


def test_total_witness_under_full_dirt():
    items = {i.name: i for i in load_bundled()}
    item = items["full_dirt_sink"]
    pol = fp_vty(item.poltype)
    sim = simplify(item.signature, item.context, pol,
                   parse_phase_config("dirt", full_dirt=True))
    for i in range(10):
        eta0 = sample_eta(item.signature, item.context,
                          random.Random(f"full:{i}"), poltype=item.poltype)
        wit = build_witness_total(item.signature, sim, eta0)
        check_witness_total(item.signature, sim, eta0, wit)


# ---------------------------------------------------------------------------
# Differential test against the reference builder


def links(co):
    """Number of non-composition nodes on a coercion's composition tree."""
    todo, count = [co], 0
    while todo:
        node = todo.pop()
        if isinstance(node, (VCoCompose, DCoCompose)):
            todo += (node.after, node.before)
        else:
            count += 1
    return count


def assert_same_witness(sig, sim, ref, eta0, label):
    """The builder, on the engine's run, and the reference, on the reference
    engine's run `ref`, give the same instantiation and family entries with
    the same endpoints, and both witnesses check."""
    eta_r = replay_reduction(ReductionReplay(sig, sim.reduction), eta0)
    got = build_witness(sim.phases, eta_r)
    want = build_reference_witness(ref, eta_r)
    assert got.eta == want.eta, label
    assert got.family.keys() == want.family.keys(), label
    for name, co in got.family.items():
        check = check_vco if isinstance(co, VCoercion) else check_dco
        assert check(sig, EMPTY_CONTEXT, co) == check(
            sig, EMPTY_CONTEXT, want.family[name]), (label, name)
    names0 = sorted(sim.fps0.members())
    for wit in (got, want):
        fam = precompose_family(wit.family, sim.reduction.subst, names0)
        check_witness_total(sig, sim, eta0, WitnessResult(wit.eta, fam))
    check_witness_total(sig, sim, eta0, build_witness_total(sig, sim, eta0))


CONFIGS = dict(PRESETS, full=parse_phase_config("all", full_dirt=True))


def test_witness_matches_reference_on_corpus():
    for item in load_bundled():
        pol = fp_vty(item.poltype) if item.poltype is not None else FreeParamSet()
        for preset, instructions in CONFIGS.items():
            sim = simplify(item.signature, item.context, pol, instructions)
            ref = reference_run(item.signature, sim, instructions)
            for i in range(3):
                rng = random.Random(f"diff:{item.name}:{preset}:{i}")
                eta0 = sample_eta(item.signature, item.context, rng,
                                  poltype=item.poltype, term=item.term)
                assert_same_witness(item.signature, sim, ref, eta0, (item.name, preset, i))


@pytest.mark.parametrize("family", sorted(SHAPES))
def test_witness_matches_reference_on_bench_shapes(family, shape_runs):
    for n in (50, 200):
        ctx, _ = shape_context(family, n)
        eta0 = sample_eta(TEST_SIG, ctx, random.Random(f"diff:{family}:{n}"))
        for preset in ("all", "full"):
            sim, ref = shape_runs(family, n, preset)
            assert_same_witness(TEST_SIG, sim, ref, eta0, (family, n, preset))


def test_witness_matches_reference_on_random_contexts():
    rng = random.Random(77)
    for size in (4, 4, 4, 4, 10, 10, 30, 60):
        ctx = random_context(rng, max_dirts=size, max_tys=size, max_cos=2 * size)
        pol = random_fps(rng, ctx)
        eta0 = sample_eta(TEST_SIG, ctx, rng)
        for preset, instructions in CONFIGS.items():
            sim = simplify(TEST_SIG, ctx, pol, instructions)
            ref = reference_run(TEST_SIG, sim, instructions)
            assert_same_witness(TEST_SIG, sim, ref, eta0, (size, preset))


def test_witness_cost_is_the_size_of_the_change(monkeypatch):
    """A family entry gains a link only at a step that touches its name,
    and the instantiation is copied once, not once per step."""
    copies = []
    original = Substitution.copy

    def counted(self):
        copies.append(self)
        return original(self)

    ctx, pol = shape_context("chain", 400)
    eta0 = sample_eta(TEST_SIG, ctx, random.Random("cost"))
    run = run_phases(TEST_SIG, ctx, pol, PRESETS["all"])
    monkeypatch.setattr(Substitution, "copy", counted)
    wit = build_witness(run, eta0)
    assert len(copies) == 1
    entries = list(wit.family.values())
    assert sum(map(links, entries)) <= len(run.steps) + len(entries)
    ref = build_reference_witness(
        run_reference_phases(TEST_SIG, ctx, pol, PRESETS["all"]), eta0)
    assert sum(map(links, entries)) * 2 < sum(
        map(links, ref.family.values()))


@pytest.mark.parametrize("prepared", [False, True])
def test_zero_step_witness_check_rejects_a_forged_coercion(prepared):
    """Under `scc` the run on `apply_randomly` takes no phase step, so the
    witness's instantiation of the strengthened context is the replayed
    one, and only `check_witness_total`'s validity check reads its
    coercions: a forged one, with endpoints its constraint does not have,
    fails there, also right after the run's plan accepted the replay."""
    item = {i.name: i for i in load_bundled()}["apply_randomly"]
    sig = item.signature
    sim, _, _, _ = _simplified(item, "scc", False)
    assert not sim.phases.steps and sim.context is sim.reduction.context
    plan = WitnessPlan(sig, sim) if prepared else None
    for i in range(4):
        eta0 = sample_eta(sig, item.context, random.Random(f"forge:{i}"), enumerable=True,
                          poltype=item.poltype, term=item.term)
        wit = build_witness_total(sig, sim, eta0, plan)
        check_witness_total(sig, sim, eta0, wit, plan)
        (name,) = wit.eta.dco
        lo, _ = check_dco(sig, EMPTY_CONTEXT, wit.eta.dco[name])
        wit.eta.dco[name] = derived_refl_dirt(dirt(("Random",)) if lo == dirt() else dirt())
        with pytest.raises(EndpointMismatch, match=f"image of {name} has endpoints"):
            check_witness_total(sig, sim, eta0, wit, plan)
