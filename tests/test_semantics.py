"""The finite call-tree model: carriers, evaluation, and commuting squares."""

import random
import sys

import pytest

from coersimp import check, sample, semantics, subst
from coersimp.check import (
    CheckError,
    check_dco,
    check_vco,
    derived_refl_dirt,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
    vco_endpoint,
)
from coersimp.cli import cmd_verify
from coersimp.corpus import load_bundled
from coersimp.phases import PRESETS, simplify
from coersimp.polarity import fp_vty
from coersimp.reduce import is_canonical
from coersimp.sample import sample_eta
from coersimp.semantics import (
    DomainTooLarge,
    EffFn,
    ModelBug,
    SkelFn,
    TreeOp,
    TreeReturn,
    check_preservation,
    check_square_comp,
    check_square_value,
    default_skel,
    enum_comp,
    enum_vty,
    enumerate_envs,
    equal_skel_at,
    equal_skel_tree,
    erased_skeleton,
    eval_comp,
    eval_value,
    graft,
    inject,
    interp_vco,
)
from coersimp.syntax import (
    App,
    CCoercion,
    CastC,
    CastV,
    CompType,
    Do,
    EMPTY_CONTEXT,
    Lam,
    LetVal,
    OpCall,
    Return,
    SkelArrow,
    SkelBase,
    SkelUnit,
    TyArrow,
    TyBase,
    TyUnit,
    UnitVal,
    Var,
    dirt,
)

from gen import TEST_SIG

BIT = TyBase("bit")
UNIT = TyUnit()


def arrow(dom, cod_ty, cod_dirt=None):
    return TyArrow(dom, CompType(cod_ty, cod_dirt or dirt()))


def pure(t):
    return CompType(t, dirt())


def widen(comp, ty, ops):
    """Cast a pure computation up to the closed dirt `ops`."""
    co = CCoercion(value_inclusion_coercion(ty, ty),
                   dirt_inclusion_coercion(dirt(), dirt(ops)))
    return CastC(comp, co)


# random bit draw, continuation cast up so the opcall types
RAND_BIT = OpCall("Random", UnitVal(), "y", BIT,
                  widen(Return(Var("y")), BIT, ("Random",)))


# ---------------------------------------------------------------------------
# Carriers


def test_enum_small_carriers():
    assert enum_vty(TEST_SIG, UNIT) == ((),)
    assert enum_vty(TEST_SIG, BIT) == (0, 1)
    assert enum_vty(TEST_SIG, TyBase("bool")) == (False, True)
    assert enum_vty(TEST_SIG, TyBase("mystery")) == ("mystery:0", "mystery:1")


def test_enum_function_carrier_counts():
    assert len(enum_vty(TEST_SIG, arrow(UNIT, UNIT))) == 1
    assert len(enum_vty(TEST_SIG, arrow(BIT, BIT))) == 4
    assert len(enum_vty(TEST_SIG, arrow(UNIT, BIT))) == 2
    nested = arrow(arrow(BIT, BIT), BIT)
    assert len(enum_vty(TEST_SIG, nested)) == 16


def test_enum_budget_and_effectful_carriers():
    with pytest.raises(DomainTooLarge):
        enum_vty(TEST_SIG, arrow(BIT, BIT), budget=3)
    with pytest.raises(DomainTooLarge):
        enum_vty(TEST_SIG, arrow(UNIT, UNIT, dirt(("Random",))))


def test_enum_comp_rejects_effects_and_open_rows():
    assert enum_comp(TEST_SIG, pure(BIT)) == (TreeReturn(0), TreeReturn(1))
    with pytest.raises(DomainTooLarge):
        enum_comp(TEST_SIG, CompType(BIT, dirt(("Random",))))
    with pytest.raises(ModelBug):
        enum_comp(TEST_SIG, CompType(BIT, dirt((), "d1")))


def test_enumerate_envs_product():
    envs = enumerate_envs(TEST_SIG, (("x", BIT), ("y", TyBase("bool"))))
    assert len(envs) == 4
    assert {(e["x"], e["y"]) for e in envs} == {
        (0, False), (0, True), (1, False), (1, True)}
    with pytest.raises(DomainTooLarge):
        enumerate_envs(TEST_SIG, (("x", BIT), ("y", BIT)), budget=3)


def test_erased_skeleton_drops_dirt():
    t = arrow(UNIT, BIT, dirt(("Random",)))
    assert erased_skeleton(t) == SkelArrow(SkelUnit(), SkelBase("bit"))


def test_default_skel_inhabitants():
    assert default_skel(TEST_SIG, SkelUnit()) == ()
    assert default_skel(TEST_SIG, SkelBase("bit")) == 0
    fn = default_skel(TEST_SIG, SkelArrow(SkelBase("bit"), SkelUnit()))
    assert isinstance(fn, SkelFn)
    assert fn.call(0) == TreeReturn(())
    assert fn.call(1) == TreeReturn(())


# ---------------------------------------------------------------------------
# Trees, functions, and equality


def test_graft_binds_leaves():
    assert graft(TreeReturn(3), lambda v: TreeReturn(v + 1)) == TreeReturn(4)
    node = TreeOp("Random", (), ((0, TreeReturn(0)), (1, TreeReturn(1))))
    got = graft(node, lambda v: TreeReturn(v * 10))
    assert got == TreeOp("Random", (),
                         ((0, TreeReturn(0)), (1, TreeReturn(10))))


def test_efffn_equality_is_table_equality():
    a = eval_value(TEST_SIG, {}, Lam("x", BIT, Return(Var("x"))))
    b = eval_value(TEST_SIG, {}, Lam("z", BIT, Return(Var("z"))))
    assert a == b
    assert a.table == ((0, TreeReturn(0)), (1, TreeReturn(1)))
    c = eval_value(TEST_SIG, {}, Lam("x", UNIT, Return(Var("x"))))
    assert a != c


def test_comparing_untabulated_functions_is_a_model_error():
    wide = arrow(BIT, BIT, dirt(("Random", "Fail")))
    f = eval_value(TEST_SIG, {}, Lam("g", wide, Return(Var("g"))))
    g = eval_value(TEST_SIG, {}, Lam("h", wide, Return(Var("h"))))
    assert f.table is None
    with pytest.raises(ModelBug):
        f == g


def test_equal_skel_at_probes_functions():
    a = eval_value(TEST_SIG, {}, Lam("x", BIT, Return(Var("x"))))
    b = eval_value(TEST_SIG, {}, Lam("z", BIT, Return(Var("z"))))
    assert equal_skel_at(TEST_SIG, arrow(BIT, BIT), inject(a), inject(b))
    const = SkelFn(lambda _u: TreeReturn(0))
    assert not equal_skel_at(TEST_SIG, arrow(BIT, BIT), inject(a), const)


def test_equal_skel_tree_shape_mismatches():
    leaf = TreeReturn(0)
    node = TreeOp("Random", (), ((0, TreeReturn(0)), (1, TreeReturn(1))))
    other = TreeOp("Fail", (), (((), TreeReturn(0)),))
    assert not equal_skel_tree(TEST_SIG, BIT, leaf, node, 64)
    assert not equal_skel_tree(TEST_SIG, BIT, node, other, 64)
    assert equal_skel_tree(TEST_SIG, BIT, node, node, 64)


# ---------------------------------------------------------------------------
# Evaluation


def test_eval_opcall_builds_branching_tree():
    got = eval_comp(TEST_SIG, {}, RAND_BIT)
    assert got == TreeOp("Random", (), ((0, TreeReturn(0)), (1, TreeReturn(1))))


def test_eval_nested_opcalls():
    inner = OpCall("Fail", UnitVal(), "z", UNIT,
                   widen(Return(Var("y")), BIT, ("Random", "Fail")))
    term = OpCall("Random", UnitVal(), "y", BIT, inner)
    got = eval_comp(TEST_SIG, {}, term)
    assert got == TreeOp("Random", (), (
        (0, TreeOp("Fail", (), (((), TreeReturn(0)),))),
        (1, TreeOp("Fail", (), (((), TreeReturn(1)),))),
    ))


def test_eval_do_grafts():
    term = Do("x", RAND_BIT, widen(Return(Var("x")), BIT, ("Random",)))
    assert eval_comp(TEST_SIG, {}, term) == eval_comp(TEST_SIG, {}, RAND_BIT)


def test_eval_letval_and_app():
    f = eval_value(TEST_SIG, {}, Lam("x", BIT, Return(Var("x"))))
    term = LetVal("g", Lam("x", BIT, Return(Var("x"))),
                  App(Var("g"), Var("b")))
    assert eval_comp(TEST_SIG, {"b": 1}, term) == TreeReturn(1)
    assert eval_comp(TEST_SIG, {"f": f, "b": 0},
                     App(Var("f"), Var("b"))) == TreeReturn(0)


def test_eval_cast_dirt_is_identity_on_trees():
    co = CCoercion(
        value_inclusion_coercion(BIT, BIT),
        dirt_inclusion_coercion(dirt(("Random",)), dirt(("Random", "Fail"))))
    assert eval_comp(TEST_SIG, {}, CastC(RAND_BIT, co)) == eval_comp(
        TEST_SIG, {}, RAND_BIT)


def test_eval_arrow_cast_retabulates():
    ident = Lam("x", BIT, Return(Var("x")))
    up = value_inclusion_coercion(
        arrow(BIT, BIT), arrow(BIT, BIT, dirt(("Random",))))
    wide = eval_value(TEST_SIG, {}, CastV(ident, up))
    narrow = eval_value(TEST_SIG, {}, ident)
    assert wide.table == narrow.table
    assert wide.apply(1) == TreeReturn(1)


def test_interp_vco_lazy_fallback_when_domain_blows_up():
    wide = arrow(BIT, BIT, dirt(("Random", "Fail")))
    noisy = arrow(BIT, BIT, dirt(("Random",)))
    f = eval_value(TEST_SIG, {}, Lam("g", wide, Return(Var("g"))))
    co = value_inclusion_coercion(arrow(wide, arrow(BIT, BIT)),
                                  arrow(noisy, arrow(BIT, BIT)))
    lifted = interp_vco(TEST_SIG, co, f)
    assert lifted.table is None
    ident = eval_value(TEST_SIG, {}, Lam("x", BIT, Return(Var("x"))))
    assert lifted.apply(ident) == TreeReturn(ident)


# ---------------------------------------------------------------------------
# Commuting squares


def test_square_on_hand_terms():
    check_square_value(TEST_SIG, (), Lam("x", BIT, Return(Var("x"))))
    check_square_value(TEST_SIG, (("x", BIT),), Var("x"))
    check_square_comp(TEST_SIG, (("x", BIT),), Return(Var("x")))
    nested = OpCall("Random", UnitVal(), "y", BIT,
                    OpCall("Fail", UnitVal(), "z", UNIT,
                           widen(Return(Var("y")), BIT, ("Random", "Fail"))))
    check_square_comp(TEST_SIG, (), nested)
    check_square_comp(
        TEST_SIG, (("f", arrow(BIT, BIT)),),
        Do("x", RAND_BIT, widen(App(Var("f"), Var("x")), BIT, ("Random",))))
    check_square_comp(
        TEST_SIG, (("x", BIT),),
        LetVal("u", Var("x"), Return(Var("u"))))


def test_square_with_casts():
    up = value_inclusion_coercion(
        arrow(BIT, BIT), arrow(BIT, BIT, dirt(("Random",))))
    check_square_value(TEST_SIG, (),
                       CastV(Lam("x", BIT, Return(Var("x"))), up))
    co = CCoercion(
        value_inclusion_coercion(BIT, BIT),
        dirt_inclusion_coercion(dirt(("Random",)), dirt(("Random", "Fail"))))
    check_square_comp(TEST_SIG, (), CastC(RAND_BIT, co))


def test_preservation_on_worked_examples():
    items = {i.name: i for i in load_bundled()}
    for name in ("apply_if", "apply_randomly"):
        item = items[name]
        sim = simplify(item.signature, item.context, fp_vty(item.poltype),
                       PRESETS["all"])
        for i in range(5):
            rng = random.Random(f"sem:{name}:{i}")
            eta0 = sample_eta(item.signature, item.context, rng,
                              enumerable=True, poltype=item.poltype,
                              term=item.term)
            check_preservation(item.signature, sim, item.poltype, item.term,
                               eta0)


# ---------------------------------------------------------------------------
# Casts are checked once, then interpreted


def test_spine_read_domain_matches_checked_endpoint(monkeypatch):
    """Every arrow cast that verify interprets enumerates the domain that
    `check_vco` gives its target."""
    seen = []
    cast_fn = semantics._cast_fn

    def recorded(sig, co, f, budget):
        seen.append((sig, co))
        return cast_fn(sig, co, f, budget)

    monkeypatch.setattr(semantics, "_cast_fn", recorded)
    for item in load_bundled():
        if item.term is not None:
            report = cmd_verify(item, "all", samples=3)
            assert report["failures"] == [], item.name
    assert len(seen) > 100
    for sig, co in {id(co): (sig, co) for sig, co in seen}.values():
        _, hi = check_vco(sig, EMPTY_CONTEXT, co)
        assert vco_endpoint(co.arg, upper=False) == hi.dom


@pytest.mark.parametrize("family_checked", [True, False])
def test_preservation_rejects_a_cast_with_wrong_endpoints(monkeypatch, family_checked):
    """A strengthened term whose cast got a coercion with the wrong
    endpoints fails a check before anything is evaluated."""
    import coersimp.witness

    item = {i.name: i for i in load_bundled()}["apply_randomly"]
    sim = simplify(item.signature, item.context, fp_vty(item.poltype), PRESETS["none"])
    build = coersimp.witness.build_witness_total

    def bad_p1(sig, sim, eta0):
        wit = build(sig, sim, eta0)
        lo, _ = check_dco(sig, EMPTY_CONTEXT, wit.eta.dco["p1"])
        wit.eta.dco["p1"] = derived_refl_dirt(dirt(("Random",)) if lo == dirt() else dirt())
        return wit

    monkeypatch.setattr(coersimp.witness, "build_witness_total", bad_p1)
    if not family_checked:
        monkeypatch.setattr(coersimp.witness, "check_witness_total", lambda *args: None)
    for i in range(3):
        eta0 = sample_eta(item.signature, item.context, random.Random(f"bad:{i}"),
                          enumerable=True, poltype=item.poltype, term=item.term)
        with pytest.raises(CheckError):
            check_preservation(item.signature, sim, item.poltype, item.term, eta0)


# ---------------------------------------------------------------------------
# One verify sample does each piece of work once


def count_calls(monkeypatch, original):
    """Route every package binding of `original` through a wrapper; return
    the list of (args, result) of the calls it sees."""
    calls = []

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for name, mod in list(sys.modules.items()):
        if name.startswith("coersimp"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def test_verify_sample_checks_validity_twice_on_a_canonical_item(monkeypatch):
    """The sampler checks its draw and `check_witness_total` checks the
    replayed instantiation. Reduction returns a canonical input as it is,
    so the sample itself is the reduced instantiation; no third check."""
    item = {i.name: i for i in load_bundled()}["apply_if"]
    assert is_canonical(item.context)
    draws = count_calls(monkeypatch, sample.sample_eta)
    checks = count_calls(monkeypatch, subst.check_validity)
    assert cmd_verify(item, "all", samples=1)["passed"] == 1
    assert len(draws) == 1
    assert len(checks) == 2


def test_verify_sample_types_and_evaluates_the_original_once(monkeypatch):
    """The square check and the preservation check share one typing and
    one meaning of the instantiated original term, also where the
    strengthened term equals it (`do_let_term`)."""
    items = {i.name: i for i in load_bundled()}
    draws = count_calls(monkeypatch, sample.sample_eta)
    typings = count_calls(monkeypatch, check.type_of_value)
    evals = count_calls(monkeypatch, semantics.eval_value)
    for name, differs in (("apply_randomly", True), ("do_let_term", False)):
        for calls in (draws, typings, evals):
            calls.clear()
        item = items[name]
        assert cmd_verify(item, "all", samples=1)["passed"] == 1
        ((_, eta0),) = draws
        original = subst.apply_value(eta0, item.term)
        assert sum(args[3] == original for args, _ in typings) == 1, name
        assert sum(args[2] == original for args, _ in evals) == 1, name
        # A strengthened term that differs is typed and evaluated too.
        assert sum(args[2] == () and args[3] != original for args, _ in typings) == differs
        assert sum(args[1] == {} and args[2] != original for args, _ in evals) == differs
