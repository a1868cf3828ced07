"""The finite call-tree model: carriers, evaluation, and commuting squares."""

import itertools
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coersimp import check, cli, sample, semantics, subst, witness
from coersimp.check import (
    CheckError,
    EndpointMismatch,
    NoWitness,
    check_dco,
    check_vco,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
    wf_vtype,
)
from coersimp.cli import cmd_verify
from coersimp.corpus import load_bundled, parse_corpus
from coersimp.reduce import is_canonical
from coersimp.sample import sample_eta
from coersimp.semantics import (
    DEFAULT_BUDGET,
    DomainTooLarge,
    EffFn,
    ModelBug,
    SkelFn,
    TreeOp,
    TreeReturn,
    check_preservation,
    check_square_value,
    default_skel,
    enum_comp,
    enum_vty,
    enumerate_envs,
    equal_skel_at,
    equal_skel_tree,
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
    DCoUnionBoth,
    DCoUnionRight,
    Dirt,
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
    VCoArrow,
    VCoCompose,
    dirt,
    intern,
)

import reference_semantics
from gen import TEST_SIG
from support import check_square_comp

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


def test_closed_type_skeleton_drops_dirt():
    t = arrow(UNIT, BIT, dirt(("Random",)))
    assert wf_vtype(TEST_SIG, EMPTY_CONTEXT, t) == SkelArrow(SkelUnit(), SkelBase("bit"))


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


def test_arrow_cast_casts_each_argument_down():
    """A cast between third-order function types casts each argument down
    before applying the function. The function `apply_to_pure` takes
    functions over pure functions, and it is cast to take functions over
    functions that may fail. Such an argument cannot be tabulated, since its
    own domain carries an effect; cast down, it is one of the tabulated
    functions over pure functions, where the cast function looks it up."""
    pure_fn, failing_fn = arrow(UNIT, UNIT), arrow(UNIT, UNIT, dirt(("Fail",)))
    narrow, wide = arrow(pure_fn, UNIT), arrow(failing_fn, UNIT)
    apply_to_pure = Lam("h", narrow, App(Var("h"), Lam("u", UNIT, Return(UnitVal()))))
    co = value_inclusion_coercion(arrow(narrow, UNIT), arrow(wide, UNIT))
    cast = eval_value(TEST_SIG, {}, CastV(apply_to_pure, co))
    ignores = eval_value(TEST_SIG, {}, Lam("k", failing_fn, Return(UnitVal())))
    assert cast.table is None and ignores.table is None
    assert cast.apply(ignores) == TreeReturn(())


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
        sim, _, _, term = cli._simplified(item, "all", False)
        plan = witness.WitnessPlan(item.signature, sim)
        for i in range(5):
            rng = random.Random(f"sem:{name}:{i}")
            eta0 = sample_eta(item.signature, item.context, rng,
                              enumerable=True, poltype=item.poltype,
                              term=item.term)
            cli.check_sample(item, sim, term, eta0, plan)


# ---------------------------------------------------------------------------
# Casts are checked once, then interpreted


def test_spine_read_domain_matches_checked_endpoint(monkeypatch):
    """Every cast that verify interprets has the endpoints that `check_vco`
    gives its coercion. `interp_vco` casts between the endpoints its check
    returns; a cast in a term casts between the endpoints `vco_endpoint`
    reads off its coercion's spine, and those are the checked ones."""
    read = []
    spine = semantics.vco_endpoint

    def read_endpoint(co, upper):
        got = spine(co, upper)
        read.append((co, upper, got))
        return got

    monkeypatch.setattr(semantics, "vco_endpoint", read_endpoint)
    interps = count_calls(monkeypatch, semantics.interp_vco)
    reads = 0
    for item in load_bundled():
        if item.term is not None:
            report = cmd_verify(item, "all", samples=3)
            assert report["failures"] == [], item.name
            for co, upper, got in read:
                assert check_vco(item.signature, EMPTY_CONTEXT, co)[upper] == got
            assert interps, item.name
            reads += len(read)
            interps.clear()
            read.clear()
    assert reads > 100


@pytest.mark.parametrize("family_checked", [True, False])
def test_preservation_rejects_a_cast_with_wrong_endpoints(monkeypatch, family_checked):
    """A strengthened term whose cast got a coercion with the wrong
    endpoints fails a check before anything is evaluated."""
    item = {i.name: i for i in load_bundled()}["apply_randomly"]
    sim, _, _, term = cli._simplified(item, "none", False)
    build = cli.build_witness_total

    def bad_p1(sig, sim, eta0, *plan):
        wit = build(sig, sim, eta0, *plan)
        lo, _ = check_dco(sig, EMPTY_CONTEXT, wit.eta.dco["p1"])
        wit.eta.dco["p1"] = derived_refl_dirt(dirt(("Random",)) if lo == dirt() else dirt())
        return wit

    monkeypatch.setattr(cli, "build_witness_total", bad_p1)
    if not family_checked:
        monkeypatch.setattr(cli, "check_witness_total", lambda *args: None)
    plan = witness.WitnessPlan(item.signature, sim)
    for i in range(3):
        eta0 = sample_eta(item.signature, item.context, random.Random(f"bad:{i}"),
                          enumerable=True, poltype=item.poltype, term=item.term)
        with pytest.raises(CheckError):
            cli.check_sample(item, sim, term, eta0, plan)


def test_preservation_rejects_a_term_that_means_something_else():
    """A strengthened term of the original's type that denotes another
    value passes every typing and endpoint check and fails the comparison."""
    keep = Lam("x", BIT, OpCall("Random", UnitVal(), "y", BIT,
                                widen(Return(Var("x")), BIT, ("Random",))))
    swap = Lam("x", BIT, RAND_BIT)
    ty = check.type_of_value(TEST_SIG, EMPTY_CONTEXT, (), keep)
    assert check.type_of_value(TEST_SIG, EMPTY_CONTEXT, (), swap) == ty
    check_preservation(TEST_SIG, keep, keep, derived_refl_vty(ty))
    with pytest.raises(ModelBug, match="preservation failed"):
        check_preservation(TEST_SIG, keep, swap, derived_refl_vty(ty))


def test_preservation_rejects_a_cast_between_other_types():
    """The cast must run from the strengthened term's type to the
    original's. Each wrong cast here would pass the comparison: it only
    widens a dirt, which leaves the meaning alone."""
    ident = Lam("x", BIT, Return(Var("x")))
    lo, hi = arrow(BIT, BIT), arrow(BIT, BIT, dirt(("Random",)))
    up = value_inclusion_coercion(lo, hi)
    check_preservation(TEST_SIG, ident, ident, derived_refl_vty(lo))
    check_preservation(TEST_SIG, CastV(ident, up), ident, up)
    with pytest.raises(EndpointMismatch):
        check_preservation(TEST_SIG, ident, ident, up)
    with pytest.raises(EndpointMismatch):
        check_preservation(TEST_SIG, CastV(ident, up), ident, derived_refl_vty(hi))


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


def count_draws(monkeypatch):
    """Route every `Sampler.draw` through a wrapper; return the list of
    (keyword arguments, result) of the draws it sees."""
    calls = []
    original = sample.Sampler.draw

    def counted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        calls.append((kwargs, result))
        return result

    monkeypatch.setattr(sample.Sampler, "draw", counted)
    return calls


def count_method(monkeypatch, cls, name):
    """Route every call of method `name` of `cls` through a wrapper; return
    the list of (instance, positional arguments) of the calls it sees."""
    calls = []
    original = getattr(cls, name)

    def counted(self, *args, **kwargs):
        calls.append((self, args))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_verify_sample_checks_validity_twice_on_a_canonical_item(monkeypatch):
    """The sampler checks its draw and `check_witness_total` checks the
    replayed instantiation. Reduction returns a canonical input as it is,
    so the sample itself is the reduced instantiation; no third check."""
    item = {i.name: i for i in load_bundled()}["apply_if"]
    assert is_canonical(item.context)
    draws = count_draws(monkeypatch)
    checks = count_method(monkeypatch, subst.ValidityCheck, "check")
    assert cmd_verify(item, "all", samples=1)["passed"] == 1
    assert len(draws) == 1
    assert len(checks) == 2


@pytest.mark.parametrize("preset", ["none", "scc", "all"])
def test_verify_prepares_each_check_and_the_replay_once_per_run(monkeypatch, preset):
    """However many samples a `cmd_verify` run draws, it prepares one
    validity check for its draws, one reduction replay with its check
    where reduction changed the context, and one check of the strengthened
    context, which is the replay's own where the phases took no step.
    Every draw is checked, and each distinct sample twice more, once where
    reduction returned its input."""
    prepared = count_method(monkeypatch, subst.ValidityCheck, "__init__")
    replays = count_method(monkeypatch, witness.ReductionReplay, "__init__")
    plans = count_method(monkeypatch, witness.WitnessPlan, "__init__")
    checks = count_method(monkeypatch, subst.ValidityCheck, "check")
    draws = count_draws(monkeypatch)
    canonical = 0
    for item in load_bundled():
        if item.term is None:
            continue
        for samples in (1, 12):
            for calls in (prepared, replays, plans, checks, draws):
                calls.clear()
            report = cmd_verify(item, preset, samples=samples)
            assert report["passed"] == samples, item.name
            ((plan, (_, sim)),) = plans
            red = sim.reduction
            replayed = red.context is not sim.original
            assert len(replays) == replayed, item.name
            shared = replayed and sim.context is red.context
            contexts = [args[1] for _, args in prepared]
            want = [item.context] + [red.context] * replayed + [sim.context] * (not shared)
            assert len(contexts) == len(want), item.name
            assert all(map(operator.is_, contexts, want)), item.name
            assert (replayed and plan.valid is plan.replay.valid) == shared, item.name
            assert len(checks) == len(draws) + (1 + replayed) * report["distinct"], item.name
            canonical += not replayed
    assert canonical


def test_verify_sample_types_and_evaluates_the_original_once(monkeypatch):
    """The square check and the preservation check share one typing and
    one meaning of the instantiated original term, also where the
    strengthened term equals it (`do_let_term`)."""
    items = {i.name: i for i in load_bundled()}
    draws = count_draws(monkeypatch)
    typings = count_calls(monkeypatch, check.type_of_value)
    evals = count_calls(monkeypatch, semantics.eval_value)
    for name, differs in (("apply_randomly", True), ("do_let_term", False)):
        for calls in (draws, typings, evals):
            calls.clear()
        item = items[name]
        assert cmd_verify(item, "all", samples=1)["passed"] == 1
        ((_, eta0),) = draws
        original = subst.apply(eta0, item.term)
        assert sum(args[3] == original for args, _ in typings) == 1, name
        assert sum(args[2] == original for args, _ in evals) == 1, name
        # A strengthened term that differs is typed and evaluated too.
        assert sum(args[2] == () and args[3] != original for args, _ in typings) == differs
        assert sum(args[1] == {} and args[2] != original for args, _ in evals) == differs


def test_verify_checks_each_ground_coercion_once_per_signature(monkeypatch):
    """A compound ground coercion without a composition in it is checked
    once per signature, however often it recurs: a second `cmd_verify` on
    the same parsed item derives none of them, a fresh parse derives them
    again. Every check call still returns the endpoints of a fresh check."""
    fresh = {DCoUnionBoth: check._derive_dco, DCoUnionRight: check._derive_dco,
             VCoArrow: check._derive_vco}
    derived = []
    for name in ("_derive_dco", "_derive_vco"):
        derive = getattr(check, name)

        def recorded(sig, ctx, g, derive=derive):
            if ctx is EMPTY_CONTEXT:
                derived.append(g)
            return derive(sig, ctx, g)

        monkeypatch.setattr(check, name, recorded)
    checks = count_calls(monkeypatch, check.check_dco)
    checks += count_calls(monkeypatch, check.check_vco)

    def run(item):
        """The remembered coercions one run derives, and its ground checks
        of coercions of their kind."""
        derived.clear()
        checks.clear()
        assert cmd_verify(item, "all", samples=8)["passed"] == 8
        remembered = [g for g in derived if type(g) in fresh and check._flat(g)]
        assert len(remembered) == len(set(remembered)), item.name
        asked = [(args, got) for args, got in checks
                 if args[1] is EMPTY_CONTEXT and type(args[2]) in fresh and check._flat(args[2])]
        assert all(fresh[type(g)](sig, EMPTY_CONTEXT, g) == got
                   for (sig, _, g), got in asked), item.name
        return set(remembered), asked

    for name in ("apply_if", "apply_randomly", "ho_compose"):
        (item,) = [i for i in load_bundled() if i.name == name]
        first, asked = run(item)
        assert first and len(asked) > len(first), name
        again, asked = run(item)
        assert not again and asked, name
        (reparsed,) = [i for i in load_bundled() if i.name == name]
        assert reparsed.signature == item.signature
        assert run(reparsed)[0] == first, name


def test_ground_inclusions_equal_the_builders_on_every_drawn_pair(monkeypatch):
    """Every inclusion the sampler and `replay_reduction` take from the
    signature, over the bundled corpus, is what the builders give, and
    None exactly where they find no witness. Each is interned, and so are
    the endpoints it was asked for."""
    asked = count_calls(monkeypatch, check.interned_inclusion)
    for item in load_bundled():
        for i in range(4):
            sample_eta(item.signature, item.context, random.Random(f"incl:{i}"))
        if item.term is not None:
            for preset in ("none", "scc", "all"):
                assert cmd_verify(item, preset, samples=6)["passed"] == 6
    sorts, missing = set(), 0
    for (sig, lo, hi), got in asked:
        build = dirt_inclusion_coercion if isinstance(lo, Dirt) else value_inclusion_coercion
        assert intern(sig.interned, lo) is lo and intern(sig.interned, hi) is hi
        try:
            want = build(lo, hi)
        except NoWitness:
            want = None
        assert got == want, (lo, hi)
        assert got is None or intern(sig.interned, got) is got
        sorts.add(build)
        missing += got is None
    assert len(sorts) == 2 and missing


def test_verify_builds_each_ground_inclusion_once_per_signature(monkeypatch):
    """Over a whole `cmd_verify` run, the inclusion builders run at most
    once per distinct pair of endpoints, and the forced dirt content is
    computed once. A second run on the same parsed item builds none. Only
    the builders' outermost calls through `check` count: an arrow's
    builder builds its parts by recursion."""
    built = []
    depth = [0]
    for name in ("dirt_inclusion_coercion", "value_inclusion_coercion"):

        def recorded(lo, hi, build=getattr(check, name)):
            depth[0] += 1
            try:
                got = build(lo, hi)
            finally:
                depth[0] -= 1
            if not depth[0]:
                built.append((lo, hi))
            return got

        monkeypatch.setattr(check, name, recorded)
    forced = count_calls(monkeypatch, sample.forced_dirt_content)
    total = 0
    for item in load_bundled():
        if item.term is None:
            continue
        for preset in ("none", "scc", "all"):
            built.clear()
            forced.clear()
            report = cmd_verify(item, preset, samples=12)
            assert len(built) == len(set(built)), (item.name, preset)
            assert len(forced) == 1, (item.name, preset)
            total += len(built)
        built.clear()
        forced.clear()
        assert cmd_verify(item, "all", samples=12) == report
        assert not built and len(forced) == 1, item.name
    assert total


@pytest.mark.parametrize("preset", ["none", "scc", "all"])
def test_verify_passes_samples_that_need_the_strict_draw(monkeypatch, preset):
    """The unpinned parameter `a` can draw a type that the repair through
    `w` raises the pinned domain `b` to, one too large to enumerate; those
    samples are drawn again with every parameter pinned, and pass. A
    remembered `DomainTooLarge` still sends a repeated draw to its redraw."""
    (item,) = parse_corpus("""
        (item raised (signature (op Random (unit) (base bit)))
          (context (typaram a (arrow (unit) (unit))) (typaram b (arrow (unit) (unit)))
            (tyco w (param a) (param b)))
          (poltype (arrow (param b) (comp (unit) (dirt ()))))
          (term (lam x (param b) (return (unitval)))))""")
    draws = count_draws(monkeypatch)
    report = cmd_verify(item, preset, samples=40)
    assert report["passed"] == 40, report["failures"]
    strict = [kwargs.get("strict", False) for kwargs, _ in draws]
    redrawn = {"none": 10, "scc": 12, "all": 12}[preset]
    assert sum(strict) == redrawn and len(strict) == 40 + redrawn


def test_verify_checks_a_repeated_draw_once(monkeypatch):
    """`unit_value` draws one instantiation 40 times and checks it once."""
    item = {i.name: i for i in load_bundled()}["unit_value"]
    checks = count_calls(monkeypatch, cli.check_sample)
    report = cmd_verify(item, "all", samples=40)
    assert (report["passed"], report["distinct"], len(checks)) == (40, 1, 1)


def test_verify_remembers_outcomes_for_one_run_only(monkeypatch):
    """A second `cmd_verify` on the same parsed item checks every distinct
    draw again and reports the same."""
    item = {i.name: i for i in load_bundled()}["apply_if"]
    checks = count_calls(monkeypatch, cli.check_sample)
    first = cmd_verify(item, "all", samples=40)
    assert len(checks) == first["distinct"] > 1
    assert cmd_verify(item, "all", samples=40) == first
    assert len(checks) == 2 * first["distinct"]


def test_fingerprints_are_equal_exactly_when_draws_are():
    """Over every pair of draws of an item, enumerable and strict ones
    numbered by one table, equal fingerprints mean equal instantiations."""
    repeats = 0
    for item in load_bundled():
        images: dict = {}
        draws = []
        for i in range(20):
            for strict in (False, True):
                rng = random.Random(f"0:{item.name}:all:{i}")
                eta0 = sample_eta(item.signature, item.context, rng, enumerable=True,
                                  poltype=item.poltype, term=item.term, strict=strict)
                draws.append((cli.fingerprint(eta0, images), eta0))
        for (key1, eta1), (key2, eta2) in itertools.combinations(draws, 2):
            assert (key1 == key2) == (eta1 == eta2), item.name
            repeats += key1 == key2
    assert repeats


def nodes(value):
    """`value` and every node under it."""
    todo = [value]
    while todo:
        x = todo.pop()
        yield x
        todo.extend(v for v in (getattr(x, n) for n in type(x).__match_args__)
                    if not isinstance(v, (str, frozenset, type(None))))


@pytest.mark.parametrize("preset", ["none", "all"])
def test_equal_values_drawn_or_replayed_under_one_signature_are_one_object(monkeypatch, preset):
    """Every image a verify run draws or replays, and every node under it,
    is the one object its signature holds for its value: equal ones are
    identical, and each is found in `sig.interned` by its identity."""
    draws = count_draws(monkeypatch)
    replays = []
    original = witness.ReductionReplay.replay

    def replay(self, eta0):
        replays.append(original(self, eta0))
        return replays[-1]

    monkeypatch.setattr(witness.ReductionReplay, "replay", replay)
    checked = 0
    for item in load_bundled():
        if item.term is None:
            continue
        draws.clear()
        replays.clear()
        assert cmd_verify(item, preset, samples=12)["passed"] == 12
        table, first = item.signature.interned, {}
        for eta in [eta for _, eta in draws] + replays:
            for part in (eta.skel, eta.dirt, eta.ty, eta.dco, eta.vco):
                for image in part.values():
                    for x in nodes(image):
                        assert first.setdefault(x, x) is x, (item.name, x)
                        assert table[id(x)] is x, (item.name, x)
                        checked += 1
    assert checked > 400


def test_a_second_run_adds_no_table_entry_and_the_corpus_draws_25_instantiations():
    """The bundled corpus draws 25 distinct instantiations in its 320
    samples under `all`. A second run on the same parsed items reports the
    same and adds nothing to any table of their signatures."""
    items = [item for item in load_bundled() if item.term is not None]

    def sizes():
        return [(len(i.signature.interned), len(i.signature.ground_inclusions),
                 len(i.signature.ground_checks)) for i in items]

    first = [cmd_verify(item, "all", samples=40) for item in items]
    assert sum(r["samples"] for r in first) == 320
    assert sum(r["distinct"] for r in first) == 25
    grown = sizes()
    assert sum(n for n, _, _ in grown)
    assert [cmd_verify(item, "all", samples=40) for item in items] == first
    assert sizes() == grown


def test_fingerprints_of_short_lived_instantiations_never_match_unequal_ones():
    """Hand-built instantiations, none of them interned, each dropped before
    the next is built, so that the next may reuse its objects' memory: two
    have equal fingerprints exactly when they are equal, because the
    identities are those of the table's own objects."""
    rng = random.Random("short-lived")
    table, seen = {}, {}
    for i in range(400):
        ops = [frozenset(o for o in ("Random", "Fail") if rng.random() < 0.5) for _ in range(3)]
        eta = subst.Substitution(
            dirt={"d1": Dirt(ops[0]), "d2": Dirt(ops[1])},
            ty={"a1": TyArrow(TyUnit(), CompType(TyBase(rng.choice(["bit", "bool"])),
                                                  Dirt(ops[2])))},
            dco={"p1": dirt_inclusion_coercion(Dirt(ops[0]), Dirt(ops[0] | ops[1]))})
        key = cli.fingerprint(eta, table)
        text = repr(eta)
        del eta
        assert seen.setdefault(key, text) == text, i
    assert 1 < len(seen) < 400


@pytest.mark.parametrize("k", [1, 50])
def test_a_cast_along_k_links_tabulates_as_one_link(monkeypatch, k):
    """A cast along a composition of `k` links builds no more tables than
    a one-link cast with the same endpoints. The link-by-link interpreter
    builds one per arrow link."""
    lo, hi = arrow(BIT, BIT), arrow(BIT, BIT, dirt(("Random",)))
    one = value_inclusion_coercion(lo, hi)
    links = one
    for _ in range(k - 1):
        links = VCoCompose(derived_refl_vty(hi), links)
    assert check_vco(TEST_SIG, EMPTY_CONTEXT, links) == (lo, hi)
    f = eval_value(TEST_SIG, {}, Lam("x", BIT, Return(Var("x"))))
    built = []
    init = EffFn.__init__

    def counted(self, table, skel, fn=None):
        built.append(table)
        init(self, table, skel, fn)

    monkeypatch.setattr(EffFn, "__init__", counted)
    want = interp_vco(TEST_SIG, one, f)
    single = len(built)
    built.clear()
    assert interp_vco(TEST_SIG, links, f) == want
    assert len(built) <= single == 1
    built.clear()
    assert reference_semantics.cast(TEST_SIG, links, f, DEFAULT_BUDGET) == want
    assert len(built) == k


# ---------------------------------------------------------------------------
# The endpoint cast against the link-by-link interpreter


def same_meaning(x, y) -> bool:
    """Equal meanings. A function that was never tabulated cannot be
    compared; it matches only another such function with the same
    skeletal half."""
    if isinstance(x, EffFn) and isinstance(y, EffFn):
        if x.table is None or y.table is None:
            return x.table is None and y.table is None and x.skel is y.skel
        return len(x.table) == len(y.table) and all(
            a == b and same_meaning(r, s) for (a, r), (b, s) in zip(x.table, y.table))
    if isinstance(x, TreeReturn) and isinstance(y, TreeReturn):
        return same_meaning(x.value, y.value)
    if isinstance(x, TreeOp) and isinstance(y, TreeOp):
        return (x.op, x.arg) == (y.op, y.arg) and len(x.cont) == len(y.cont) and all(
            r == s and same_meaning(t, u) for (r, t), (s, u) in zip(x.cont, y.cont))
    return type(x) is type(y) and x == y


def record_casts(monkeypatch) -> list:
    """Route the casts that verify interprets through recorders; return the
    list of (signature, coercion, value cast, result, budget) they see."""
    seen, last = [], {}
    interp, value, comp = semantics.interp_vco, semantics.eval_value, semantics.eval_comp

    def interp_recorded(sig, co, x, budget=DEFAULT_BUDGET):
        out = interp(sig, co, x, budget)
        seen.append((sig, co, x, out, budget))
        return out

    # A cast term's operand is evaluated, in the same environment, just
    # before the cast: `last` holds that meaning.
    def value_recorded(sig, env, v, budget=DEFAULT_BUDGET):
        out = last[id(v), id(env)] = value(sig, env, v, budget)
        if isinstance(v, CastV):
            seen.append((sig, v.co, last[id(v.val), id(env)], out, budget))
        return out

    def comp_recorded(sig, env, c, budget=DEFAULT_BUDGET):
        out = last[id(c), id(env)] = comp(sig, env, c, budget)
        if isinstance(c, CastC):
            seen.append((sig, c.co, last[id(c.comp), id(env)], out, budget))
        return out

    monkeypatch.setattr(semantics, "interp_vco", interp_recorded)
    monkeypatch.setattr(semantics, "eval_value", value_recorded)
    monkeypatch.setattr(semantics, "eval_comp", comp_recorded)
    return seen


@pytest.mark.parametrize("preset", ["all", "scc"])
def test_endpoint_cast_matches_the_link_by_link_interpreter(monkeypatch, preset):
    """Every cast that verify interprets over the bundled corpus casts its
    value to what the link-by-link interpreter gives."""
    seen = record_casts(monkeypatch)
    for item in load_bundled():
        if item.term is not None:
            report = cmd_verify(item, preset, samples=6)
            assert report["failures"] == [], item.name
    assert len(seen) > 300
    for sig, co, x, got, budget in seen:
        if isinstance(co, CCoercion):
            want = reference_semantics.cast_comp(sig, co, x, budget)
        else:
            want = reference_semantics.cast(sig, co, x, budget)
        assert same_meaning(got, want), co


OPS = ("Fail", "Random")


@st.composite
def pure_types(draw, depth: int = 2):
    """Closed types of at most `depth` nested arrows, with empty dirts."""
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from([UNIT, BIT]))
    return arrow(draw(pure_types(depth - 1)), draw(pure_types(depth - 1)))


def shifted(draw, t, up: bool):
    """A type of the skeleton of `t` above it (below it if not `up`): dirts
    at positive positions grow and those at negative positions shrink."""
    if not isinstance(t, TyArrow):
        return t
    ops = frozenset(draw(st.sets(st.sampled_from(OPS))))
    ops = t.cod.dirt.ops | ops if up else t.cod.dirt.ops & ops
    return TyArrow(shifted(draw, t.dom, not up),
                   CompType(shifted(draw, t.cod.ty, up), Dirt(ops)))


@st.composite
def coercion_pairs(draw):
    """Types `a <= b` and two coercions between them: the straight one,
    and one through a middle type `a <= m <= b`."""
    a = draw(pure_types())
    m = shifted(draw, a, True)
    b = shifted(draw, m, True)
    through = VCoCompose(value_inclusion_coercion(m, b), value_inclusion_coercion(a, m))
    return a, b, value_inclusion_coercion(a, b), through


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(coercion_pairs())
def test_coercions_with_equal_endpoints_denote_equal_functions(pair):
    """Coherence: two checked ground coercions with the same endpoints
    denote the same function in the link-by-link interpreter, and the
    endpoint cast is that function."""
    a, b, straight, through = pair
    assert check_vco(TEST_SIG, EMPTY_CONTEXT, straight) == (a, b)
    assert check_vco(TEST_SIG, EMPTY_CONTEXT, through) == (a, b)
    for x in enum_vty(TEST_SIG, a):
        want = reference_semantics.cast(TEST_SIG, straight, x, DEFAULT_BUDGET)
        assert same_meaning(reference_semantics.cast(TEST_SIG, through, x, DEFAULT_BUDGET), want)
        assert same_meaning(interp_vco(TEST_SIG, through, x), want)
