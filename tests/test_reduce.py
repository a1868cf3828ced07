"""Reduction to canonical form, one clause at a time.

The dirt-constraint battery drives each of the eight shapes through an
isolated context and endpoint-checks the coercion recorded for the
original constraint name against the substituted bounds.
"""

import gc
import random
from collections import Counter

import pytest

from coersimp.check import (
    SkeletonMismatch,
    check_dco,
    check_vco,
    dirt_inclusion_coercion,
    wf_context,
)
from coersimp.reduce import (
    ReductionBug,
    ReductionResult,
    Unsatisfiable,
    is_canonical,
    reduce_context,
)
from coersimp.sample import SampleError, sample_eta
from coersimp.subst import (
    Substitution,
    apply as apply_dco,
    apply_dirt,
    apply as apply_vty,
    check_validity,
    compose,
)
from coersimp.syntax import (
    CompType,
    DCoParam,
    Dirt,
    EMPTY_CONTEXT,
    ParamContext,
    SkelArrow,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    dirt,
)

from coersimp.witness import ReductionReplay, replay_reduction

from gen import OPS, TEST_SIG, arrow_skel, random_context, random_dirt, structural_context
from reference_reduce import reference_reduce_context

R = frozenset({"Random"})
F = frozenset({"Fail"})
RF = frozenset({"Random", "Fail"})


def dctx(dirt_params, dirt_cos):
    return ParamContext((), tuple(dirt_params), (), tuple(dirt_cos), ())


def endpoints_match(red: ReductionResult, name, lo, hi):
    got = check_dco(TEST_SIG, red.context, apply_dco(red.subst, DCoParam(name)))
    want = (apply_dirt(red.subst, lo), apply_dirt(red.subst, hi))
    assert got == want, f"{name}: {got} != {want}"


# ---------------------------------------------------------------------------
# dirt constraint battery: eight shapes


def test_dc_closed_closed_subset():
    lo, hi = Dirt(R, None), Dirt(RF, None)
    red = reduce_context(TEST_SIG, dctx((), [("p", lo, hi)]))
    assert red.context.dirt_cos == ()
    endpoints_match(red, "p", lo, hi)


def test_dc_closed_closed_fail():
    with pytest.raises(Unsatisfiable):
        reduce_context(TEST_SIG, dctx((), [("p", Dirt(R, None), Dirt(F, None))]))


def test_dc_tail_closed_subset():
    lo, hi = Dirt(R, "d1"), Dirt(RF, None)
    red = reduce_context(TEST_SIG, dctx(("d1",), [("p", lo, hi)]))
    assert len(red.context.dirt_cos) == 1
    _, rlo, rhi = red.context.dirt_cos[0]
    assert rlo == dirt((), "d1")
    assert rhi == Dirt(RF, None)
    endpoints_match(red, "p", lo, hi)


def test_dc_tail_closed_fail():
    with pytest.raises(Unsatisfiable):
        reduce_context(
            TEST_SIG, dctx(("d1",), [("p", Dirt(R, "d1"), Dirt(F, None))]))


def test_dc_closed_tail_subset():
    lo, hi = Dirt(R, None), Dirt(R, "d2")
    red = reduce_context(TEST_SIG, dctx(("d2",), [("p", lo, hi)]))
    assert red.context.dirt_cos == ()
    assert red.context.dirt_params == ("d2",)
    endpoints_match(red, "p", lo, hi)


def test_dc_closed_tail_restart():
    """A concrete lower bound forces the upper tail to absorb it."""
    lo, hi = Dirt(R, None), Dirt(frozenset(), "d2")
    red = reduce_context(TEST_SIG, dctx(("d2",), [("p", lo, hi)]))
    assert red.context.dirt_cos == ()
    fresh = red.context.dirt_params[0]
    assert fresh != "d2"
    assert red.subst.dirt["d2"] == Dirt(R, fresh)
    endpoints_match(red, "p", lo, hi)


def test_dc_tail_tail_subset():
    lo, hi = Dirt(R, "d1"), Dirt(RF, "d2")
    red = reduce_context(TEST_SIG, dctx(("d1", "d2"), [("p", lo, hi)]))
    assert len(red.context.dirt_cos) == 1
    _, rlo, rhi = red.context.dirt_cos[0]
    assert rlo == dirt((), "d1")
    assert rhi == hi  # d1 may carry Random too
    endpoints_match(red, "p", lo, hi)


def test_dc_tail_tail_restart():
    lo, hi = Dirt(R, "d1"), Dirt(F, "d2")
    red = reduce_context(TEST_SIG, dctx(("d1", "d2"), [("p", lo, hi)]))
    assert len(red.context.dirt_cos) == 1
    _, rlo, rhi = red.context.dirt_cos[0]
    fresh = rhi.tail
    assert fresh is not None and fresh != "d2"
    assert rlo == dirt((), "d1")
    assert rhi.ops == RF
    assert red.subst.dirt["d2"] == Dirt(R, fresh)
    endpoints_match(red, "p", lo, hi)


def test_dc_tail_tail_keeps_a_shared_operation_on_the_lower_tail():
    """`{Random}+d3 <= {Random}+d1` holds where `d3` carries Random and
    `d1` does not. The reduced constraint keeps that instantiation, which
    then factors through the reduced context."""
    lo, hi = Dirt(R, "d3"), Dirt(R, "d1")
    ctx = dctx(("d1", "d3"), [("p", lo, hi)])
    red = reduce_context(TEST_SIG, ctx)
    ((_, rlo, rhi),) = red.context.dirt_cos
    assert (rlo, rhi) == (dirt((), "d3"), hi)
    eta0 = Substitution(dirt={"d1": dirt(), "d3": dirt(R)},
                        dco={"p": dirt_inclusion_coercion(dirt(R), dirt(R))})
    check_validity(TEST_SIG, ctx, eta0, EMPTY_CONTEXT)
    eta_r = replay_reduction(ReductionReplay(TEST_SIG, red), eta0)
    assert apply_dirt(compose(eta_r, red.subst), dirt((), "d3")) == dirt(R)
    endpoints_match(red, "p", lo, hi)


def test_every_drawn_instantiation_of_a_structural_context_factors():
    """Every valid draw of a seeded structural context replays through its
    reduction, as `replay_reduction` promises: dropping a shared operation
    from a kept upper bound lost some of them."""
    rng = random.Random(5)
    replayed = 0
    for i in range(300):
        ctx = random_structural_context(rng)
        try:
            red = reduce_context(TEST_SIG, ctx)
        except Unsatisfiable:
            continue
        plan = ReductionReplay(TEST_SIG, red)
        for j in range(3):
            try:
                eta0 = sample_eta(TEST_SIG, ctx, random.Random(f"{i}:{j}"))
            except SampleError:
                continue
            replay_reduction(plan, eta0)
            replayed += 1
    assert replayed > 600


def test_dc_restart_reprocesses_reduced_constraints():
    """Absorption must reopen constraints that were already canonical."""
    ctx = dctx(("d2", "d3"), [
        ("p1", dirt((), "d3"), dirt((), "d2")),
        ("p2", Dirt(R, None), dirt((), "d2")),
    ])
    red = reduce_context(TEST_SIG, ctx)
    assert len(red.context.dirt_cos) == 1
    name, rlo, rhi = red.context.dirt_cos[0]
    assert name == "p1"
    assert rlo == dirt((), "d3")
    assert rhi.ops == R
    endpoints_match(red, "p1", *ctx.dirt_cos[0][1:])
    endpoints_match(red, "p2", *ctx.dirt_cos[1][1:])


# ---------------------------------------------------------------------------
# type parameter and type constraint stages


def test_tp_unit_skeleton_eliminated():
    ctx = ParamContext((), (), (("a", SkelUnit()),), (), ())
    red = reduce_context(TEST_SIG, ctx)
    assert red.context.ty_params == ()
    assert red.subst.ty["a"] == TyUnit()


def test_tp_param_skeleton_kept():
    ctx = ParamContext(("s1",), (), (("a", SkelParam("s1")),), (), ())
    red = reduce_context(TEST_SIG, ctx)
    assert red.context == ctx
    assert not any(red.subst.maps())


def test_tp_arrow_skeleton_decomposed():
    ctx = ParamContext((), (), (("a", SkelArrow(SkelUnit(), SkelUnit())),), (), ())
    red = reduce_context(TEST_SIG, ctx)
    assert red.context.ty_params == ()
    assert len(red.context.dirt_params) == 1
    d = red.context.dirt_params[0]
    assert red.subst.ty["a"] == TyArrow(
        TyUnit(), CompType(TyUnit(), dirt((), d)))


def test_tp_decomposition_avoids_existing_names():
    """Generated params must not collide with names already in scope."""
    ctx = ParamContext(
        (), ("d1", "d2"), (("a", SkelArrow(SkelUnit(), SkelUnit())),), (), ())
    red = reduce_context(TEST_SIG, ctx)
    fresh = [d for d in red.context.dirt_params if d not in ("d1", "d2")]
    assert len(fresh) == 1
    assert set(red.context.dirt_params) == {"d1", "d2", fresh[0]}


def test_tc_unit_unit_eliminated():
    ctx = ParamContext((), (), (), (), (("w", TyUnit(), TyUnit()),))
    red = reduce_context(TEST_SIG, ctx)
    assert red.context.ty_cos == ()
    assert check_vco(TEST_SIG, red.context, red.subst.vco["w"]) == (TyUnit(), TyUnit())


def test_tc_param_param_kept():
    ctx = ParamContext(
        ("s1",), (), (("a1", SkelParam("s1")), ("a2", SkelParam("s1"))),
        (), (("w", TyParam("a1"), TyParam("a2")),))
    red = reduce_context(TEST_SIG, ctx)
    assert red.context == ctx
    assert not any(red.subst.maps())


def test_tc_arrow_arrow_split_contravariantly():
    s = SkelParam("s1")
    lo = TyArrow(TyParam("a1"), CompType(TyParam("a2"), dirt((), "d1")))
    hi = TyArrow(TyParam("b1"), CompType(TyParam("b2"), dirt((), "d2")))
    ctx = ParamContext(
        ("s1",), ("d1", "d2"),
        (("a1", s), ("a2", s), ("b1", s), ("b2", s)),
        (), (("w", lo, hi),))
    red = reduce_context(TEST_SIG, ctx)
    pairs = {(l, h) for _, l, h in red.context.ty_cos}
    assert pairs == {
        (TyParam("b1"), TyParam("a1")),  # argument side flips
        (TyParam("a2"), TyParam("b2")),
    }
    assert {(l, h) for _, l, h in red.context.dirt_cos} == {
        (dirt((), "d1"), dirt((), "d2"))}
    assert check_vco(TEST_SIG, red.context, red.subst.vco["w"]) == (lo, hi)


# ---------------------------------------------------------------------------
# whole reduction


def test_empty_context_identity():
    red = reduce_context(TEST_SIG, EMPTY_CONTEXT)
    assert red.context == EMPTY_CONTEXT
    assert not any(red.subst.maps())


def test_canonical_context_unchanged():
    from coersimp.corpus import load_bundled

    items = {i.name: i for i in load_bundled()}
    ctx = items["apply_if"].context
    red = reduce_context(TEST_SIG, ctx)
    assert red.context == ctx
    assert not any(red.subst.maps())


def test_self_constraint_on_arrow_param_grounds_fully():
    sk = SkelArrow(SkelUnit(), SkelUnit())
    ctx = ParamContext(
        (), (), (("a", sk),), (), (("w", TyParam("a"), TyParam("a")),))
    red = reduce_context(TEST_SIG, ctx)
    assert red.context.ty_params == ()
    assert red.context.ty_cos == ()
    wf_context(TEST_SIG, red.context)
    got = check_vco(TEST_SIG, red.context, red.subst.vco["w"])
    want = apply_vty(red.subst, TyParam("a"))
    assert got == (want, want)


def test_reduction_randomized_invariants():
    """Validity, canonicality, idempotence, and hygiene on random inputs."""
    rng = random.Random(71)
    for i in range(150):
        ctx = random_context(rng)
        red = reduce_context(TEST_SIG, ctx)
        wf_context(TEST_SIG, red.context)
        assert is_canonical(red.context)
        check_validity(TEST_SIG, ctx, red.subst, red.context)
        declared = (list(red.context.skel_params)
                    + list(red.context.dirt_params)
                    + [n for n, _ in red.context.ty_params])
        assert len(declared) == len(set(declared))
        again = reduce_context(TEST_SIG, red.context)
        assert again.context == red.context
        assert not any(again.subst.maps())


# ---------------------------------------------------------------------------
# Differential test against the reference reduction


def outcome(reduce, sig, ctx):
    """The reduced context and substitution, with each map's names in
    order, or the exception the reduction raised."""
    try:
        red = reduce(sig, ctx)
    except (Unsatisfiable, ReductionBug) as exc:
        return type(exc), str(exc)
    order = [list(getattr(red.subst, kind)) for kind in ("skel", "dirt", "ty", "dco", "vco")]
    return red.context, red.subst, order


def assert_same_reduction(sig, ctx, label):
    got = outcome(reduce_context, sig, ctx)
    assert got == outcome(reference_reduce_context, sig, ctx), label
    # Reduction maps no skeleton parameter; the witness lift rests on it.
    assert not isinstance(got[1], Substitution) or not got[1].skel, label
    return got


def _pair(rng, ctx, depth):
    """Two value types of one shape: equal leaves, type parameters of one
    skeleton, arrows of such pairs with random dirts."""
    params = {}
    for name, skel in ctx.ty_params:
        params.setdefault(skel, []).append(name)
    kind = rng.choice(["unit", "base", "param", "param"] + ["arrow"] * (depth > 0))
    if kind == "unit":
        return TyUnit(), TyUnit()
    if kind == "param" and params:
        names = rng.choice(list(params.values()))
        return TyParam(rng.choice(names)), TyParam(rng.choice(names))
    if kind != "arrow":
        return TyBase("bit"), TyBase("bit")
    dom, cod = _pair(rng, ctx, depth - 1), _pair(rng, ctx, depth - 1)
    return (TyArrow(dom[1], CompType(cod[0], random_dirt(rng, ctx))),
            TyArrow(dom[0], CompType(cod[1], random_dirt(rng, ctx))))


def random_structural_context(rng):
    """A random canonical context from `gen`, plus type parameters at one
    arrow skeleton, type constraints between types of one shape, and dirt
    constraints with operations on the lower side."""
    ctx = random_context(rng)
    skel = arrow_skel(rng.randint(0, 2))
    arrows = tuple((f"b{i + 1}", skel) for i in range(rng.randint(0, 3)))
    ctx = ParamContext(ctx.skel_params, ctx.dirt_params, ctx.ty_params + arrows,
                       ctx.dirt_cos, ctx.ty_cos)
    ty_cos = [(f"v{i + 1}", *_pair(rng, ctx, 2)) for i in range(rng.randint(0, 3))]
    dirt_cos = []
    if ctx.dirt_params:
        for i in range(rng.randint(0, 3)):
            hi = Dirt(frozenset(o for o in OPS if rng.random() < 0.3),
                      rng.choice(ctx.dirt_params + (None,)))
            dirt_cos.append((f"q{i + 1}", random_dirt(rng, ctx), hi))
    return ParamContext(ctx.skel_params, ctx.dirt_params, ctx.ty_params,
                        ctx.dirt_cos + tuple(dirt_cos), ctx.ty_cos + tuple(ty_cos))


def test_reduce_matches_reference_on_corpus():
    from coersimp.corpus import load_bundled

    for item in load_bundled():
        assert_same_reduction(item.signature, item.context, item.name)


def test_reduce_matches_reference_on_structural_shapes():
    for depth in (1, 2, 3):
        for size in (50, 100, 200):
            for seed, extra in ((0, 0), (1, 0), (2, 6)):
                got = assert_same_reduction(TEST_SIG, structural_context(depth, size, seed, extra),
                                            (depth, size, seed))
                if not extra:
                    assert got[1].dirt, (depth, size, seed)  # some tail absorbed


def test_reduce_matches_reference_on_base_skeletons():
    """A type parameter at a base skeleton, alone or inside an arrow
    skeleton, becomes the base type; its constraints become reflexivities."""
    from coersimp.corpus import parse_corpus

    (item,) = parse_corpus("""(item based (signature (op Random (unit) (base bit)))
      (context (skel s) (dirt d)
        (typaram a (base bool)) (typaram b (arrow (base bool) (param s)))
        (typaram c (arrow (base bool) (param s)))
        (tyco w (param a) (param a)) (tyco v (param b) (param c))
        (dco p (dirt (Random)) (dirt () d))))""")
    _, sub, _ = assert_same_reduction(item.signature, item.context, item.name)
    assert sub.ty["a"] == TyBase("bool")
    assert sub.ty["b"].dom == sub.ty["c"].dom == TyBase("bool")


def test_reduce_matches_reference_on_random_contexts():
    rng = random.Random(404)
    reduced = absorbed = 0
    for i in range(600):
        got = assert_same_reduction(TEST_SIG, random_structural_context(rng), i)
        if isinstance(got[0], ParamContext):
            reduced += 1
            absorbed += bool(got[1].dirt)
    assert reduced >= 300 and absorbed >= 50, (reduced, absorbed)


def test_reduce_cost_does_not_grow_with_steps(monkeypatch):
    """Reduction composes no substitutions, however many steps it takes."""
    import coersimp.reduce
    import coersimp.subst

    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (coersimp.reduce, coersimp.subst):
        if hasattr(module, "compose"):
            monkeypatch.setattr(module, "compose", counted(module.compose))
    for size in (100, 400):
        red = reduce_context(TEST_SIG, structural_context(2, size))
        assert len(red.subst.domain()) > size // 2
    assert calls == {}


def test_reduce_logs_its_moves_and_resolves_them_once(monkeypatch):
    """Reduction builds no substitution per move: at 100 and at 400 output
    parameters it builds the same few `Substitution` objects, and it
    resolves the log of its moves once. It leaves no reference cycle, so
    the log, the name supply and the stage-1 images die with the call
    rather than waiting for the cyclic collector."""
    import coersimp.reduce

    built, resolved = Counter(), Counter()
    init = Substitution.__init__

    def counted_init(self, *args, **kwargs):
        built[size] += 1
        init(self, *args, **kwargs)

    def counted_resolve(log, resolve=coersimp.reduce.resolve):
        resolved[size] += 1
        return resolve(log)

    monkeypatch.setattr(Substitution, "__init__", counted_init)
    monkeypatch.setattr(coersimp.reduce, "resolve", counted_resolve)
    for size in (100, 400):
        ctx = structural_context(2, size)
        gc.collect()
        gc.disable()
        try:
            red = reduce_context(TEST_SIG, ctx)
            assert gc.collect() == 0, size
        finally:
            gc.enable()
        assert len(red.subst.domain()) > size // 2
    assert built[100] == built[400] <= 3, built
    assert resolved == {100: 1, 400: 1}, resolved


def test_type_constraint_across_skeletons_is_unsatisfiable_without_wf_context():
    """`wf_context` refuses a type constraint between types of different
    skeletons, so reduction's type stage never meets one on a checked
    context. Its guard still holds for a caller that skips the check:
    reducing such a context directly raises `Unsatisfiable` there."""
    ctx = ParamContext(ty_cos=(("w", TyUnit(), TyBase("bit")),))
    with pytest.raises(SkeletonMismatch):
        wf_context(TEST_SIG, ctx)
    with pytest.raises(Unsatisfiable, match="type constraint w") as exc:
        reduce_context(TEST_SIG, ctx)
    assert exc.traceback[-1].name == "_phi_tc"
