"""Completeness witnesses: replaying phase runs against ground instances."""

import random

import pytest

from coersimp.check import (
    check_dco,
    check_vco,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
)
from coersimp.corpus import load_bundled, parse_corpus
from coersimp.phases import PRESETS, parse_phase_config, run_phases, simplify
from coersimp.polarity import FreeParamSet, fp_vty
from coersimp.reduce import reduce_context
from coersimp.sample import sample_eta
from coersimp.subst import (
    Substitution,
    apply_dirt,
    apply_vty,
    compose,
)
from coersimp.syntax import (
    CompType,
    SkelArrow,
    EMPTY_CONTEXT,
    ParamContext,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyParam,
    TyUnit,
    dirt,
)
from coersimp.witness import (
    WitnessBug,
    build_witness,
    build_witness_total,
    check_witness,
    check_witness_total,
    replay_reduction,
)

from gen import TEST_SIG


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
    check_witness(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family.dco["d2"])
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
    check_witness(TEST_SIG, run, eta0, wit)
    # a1 is negative: its entry embeds the original image into the merged one
    assert check_vco(TEST_SIG, EMPTY_CONTEXT, wit.family.vco["a1"]) == (lo, hi)


def test_empty_grounding_witness_endpoints():
    ctx = ParamContext((), ("d1",), (), (), ())
    run = run_phases(TEST_SIG, ctx, fps(pos={"d1"}), [("empty", "dirt")])
    eta0 = Substitution(dirt={"d1": dirt(("Random",))})
    wit = build_witness(run, eta0)
    check_witness(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family.dco["d1"])
    assert got == (dirt(), dirt(("Random",)))


def test_full_grounding_witness_endpoints():
    ctx = ParamContext((), ("d1",), (), (), ())
    run = run_phases(TEST_SIG, ctx, fps(neg={"d1"}), [("full", "dirt")])
    eta0 = Substitution(dirt={"d1": dirt(("Random",))})
    wit = build_witness(run, eta0)
    check_witness(TEST_SIG, run, eta0, wit)
    got = check_dco(TEST_SIG, EMPTY_CONTEXT, wit.family.dco["d1"])
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
    check_witness(TEST_SIG, run, good, wit)


def test_replay_reduction_factors_exactly():
    for item in load_bundled():
        red = reduce_context(item.signature, item.context)
        if red.subst.is_identity():
            continue
        for i in range(5):
            eta0 = sample_eta(item.signature, item.context,
                              random.Random(f"rr:{item.name}:{i}"))
            eta_r = replay_reduction(item.signature, red, eta0)
            for d in item.context.dirt_params:
                assert apply_dirt(compose(eta_r, red.subst),
                                  dirt((), d)) == eta0.dirt[d]
            for a, _ in item.context.ty_params:
                assert apply_vty(compose(eta_r, red.subst),
                                 TyParam(a)) == eta0.ty[a]


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
