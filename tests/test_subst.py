"""Randomized checks that substitution preserves every judgment form.

One thousand seeded draws across four properties: well-formedness of
skeletons, dirts, and types; coercion endpoints; term typing; and
validity of composition. Ground instantiations come from the sampler,
composition legs from the canonicalizing reduction.
"""

import random
from collections import Counter
from dataclasses import fields

import pytest

from coersimp import subst

from coersimp.check import (
    CheckError,
    EndpointMismatch,
    SkeletonMismatch,
    UnknownName,
    check_dco,
    check_vco,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    type_of_value,
    value_inclusion_coercion,
    wf_dirt,
    wf_skeleton,
    wf_vtype,
)
from coersimp.corpus import load_bundled
from coersimp.phases import PRESETS, parse_phase_config, simplify
from coersimp.polarity import EMPTY_FPS
from coersimp.reduce import Unsatisfiable, reduce_context
from coersimp.sample import SampleError, sample_eta
from coersimp.subst import (
    Substitution,
    UnmappedParam,
    ValidityCheck,
    apply as apply_dco,
    apply_dirt,
    apply as apply_skel,
    apply as apply_value,
    apply as apply_vco,
    apply as apply_vty,
    check_validity,
    compose,
    resolve,
)
from coersimp.witness import ReductionReplay, build_witness_total, replay_reduction
from coersimp.syntax import (
    CCoercion,
    CompTerm,
    CompType,
    DCoCompose,
    DCoEmptyUnder,
    DCoParam,
    DCoReflEmpty,
    DCoReflParam,
    DCoUnionBoth,
    DCoUnionRight,
    DCoercion,
    Dirt,
    EMPTY_CONTEXT,
    ParamContext,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    Skeleton,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    VCoArrow,
    VCoCompose,
    VCoParam,
    VCoReflBase,
    VCoReflParam,
    VCoReflUnit,
    VCoercion,
    ValueTerm,
    ValueType,
    dirt,
)

import reference_subst
import test_reduce
from gen import (SHAPES, TEST_SIG, random_context, random_dirt, random_vty, shape_context,
                 structural_context)
from support import identity, move_log


def random_vco(rng, ctx, depth=1):
    opts = ["refl"]
    if ctx.ty_cos:
        opts += ["param", "param", "compose"]
    if depth > 0 and ctx.dirt_cos and ctx.ty_cos:
        opts.append("arrow")
    kind = rng.choice(opts)
    if kind == "refl":
        return derived_refl_vty(random_vty(rng, ctx, depth=1))
    if kind == "param":
        return VCoParam(rng.choice([n for n, _, _ in ctx.ty_cos]))
    if kind == "compose":
        name, _, hi = rng.choice(ctx.ty_cos)
        return VCoCompose(derived_refl_vty(hi), VCoParam(name))
    arg = random_vco(rng, ctx, depth - 1)
    res = random_vco(rng, ctx, depth - 1)
    return VCoArrow(arg, CCoercion(res, DCoParam(rng.choice(
        [n for n, _, _ in ctx.dirt_cos]))))


def random_dco(rng, ctx):
    opts = ["refl", "empty"]
    if ctx.dirt_cos:
        opts += ["param", "param"]
    kind = rng.choice(opts)
    if kind == "refl":
        return derived_refl_dirt(random_dirt(rng, ctx))
    if kind == "empty":
        return derived_empty(random_dirt(rng, ctx))
    return DCoParam(rng.choice([n for n, _, _ in ctx.dirt_cos]))


def test_wf_preservation_randomized():
    """Skeleton, dirt, and type judgments survive grounding (300 draws)."""
    rng = random.Random(401)
    for i in range(300):
        ctx = random_context(rng)
        eta = sample_eta(TEST_SIG, ctx, rng)
        check_validity(TEST_SIG, ctx, eta, EMPTY_CONTEXT)
        d = random_dirt(rng, ctx)
        wf_dirt(TEST_SIG, ctx, d)
        wf_dirt(TEST_SIG, EMPTY_CONTEXT, apply_dirt(eta, d))
        t = random_vty(rng, ctx)
        sk = wf_vtype(TEST_SIG, ctx, t)
        wf_skeleton(ctx, sk)
        got = wf_vtype(TEST_SIG, EMPTY_CONTEXT, apply_vty(eta, t))
        assert got == apply_skel(eta, sk)
        wf_skeleton(EMPTY_CONTEXT, got)


def test_coercion_preservation_randomized():
    """Coercion endpoints commute with grounding (300 draws)."""
    rng = random.Random(402)
    for i in range(300):
        ctx = random_context(rng)
        eta = sample_eta(TEST_SIG, ctx, rng)
        co = random_vco(rng, ctx)
        lo, hi = check_vco(TEST_SIG, ctx, co)
        glo, ghi = check_vco(TEST_SIG, EMPTY_CONTEXT, apply_vco(eta, co))
        assert glo == apply_vty(eta, lo)
        assert ghi == apply_vty(eta, hi)
        dco = random_dco(rng, ctx)
        dlo, dhi = check_dco(TEST_SIG, ctx, dco)
        gdlo, gdhi = check_dco(TEST_SIG, EMPTY_CONTEXT, apply_dco(eta, dco))
        assert gdlo == apply_dirt(eta, dlo)
        assert gdhi == apply_dirt(eta, dhi)


def test_typing_preservation_randomized():
    """Ground instances of the corpus terms keep their types (200 draws)."""
    rng = random.Random(403)
    items = [i for i in load_bundled() if i.term is not None]
    for i in range(200):
        item = items[i % len(items)]
        eta = sample_eta(item.signature, item.context, rng)
        got = type_of_value(item.signature, EMPTY_CONTEXT, (),
                            apply_value(eta, item.term))
        assert got == apply_vty(eta, item.poltype), item.name


def test_composition_validity_randomized():
    """Reduction leg composed with a grounding leg stays valid (200 draws)."""
    rng = random.Random(404)
    for i in range(200):
        ctx = random_context(rng)
        red = reduce_context(TEST_SIG, ctx)
        check_validity(TEST_SIG, ctx, red.subst, red.context)
        eta = sample_eta(TEST_SIG, red.context, rng)
        both = compose(eta, red.subst)
        check_validity(TEST_SIG, ctx, both, EMPTY_CONTEXT)
        for name, _ in ctx.ty_params:
            assert apply_vty(both, TyParam(name)) == apply_vty(
                eta, apply_vty(red.subst, TyParam(name)))
        for name in ctx.dirt_params:
            probe = Dirt(frozenset(), name)
            assert apply_dirt(both, probe) == apply_dirt(
                eta, apply_dirt(red.subst, probe))


def test_identity_and_compose_units():
    ident = identity()
    sub = Substitution(ty={"a1": TyParam("a2")})
    assert compose(ident, sub).ty == sub.ty
    assert compose(sub, ident).ty == sub.ty


def test_check_validity_rejects_wrong_endpoint():
    rng = random.Random(7)
    ctx = random_context(rng)
    while not ctx.dirt_cos:
        ctx = random_context(rng)
    name, _, _ = ctx.dirt_cos[0]
    eta = sample_eta(TEST_SIG, ctx, random.Random(8))
    broken = eta.copy()
    broken.dco[name] = derived_refl_dirt(dirt(("Random", "Fail")))
    with pytest.raises(CheckError):
        check_validity(TEST_SIG, ctx, broken, EMPTY_CONTEXT)


def test_check_validity_names_each_failure():
    """An unmapped parameter missing from the target, an image of the wrong
    skeleton, a coercion image with the wrong endpoints and a mapped image
    that is itself ill-formed each raise their own error."""
    ctx = ParamContext(dirt_params=("d",))
    with pytest.raises(UnmappedParam) as unmapped:
        check_validity(TEST_SIG, ctx, Substitution(), EMPTY_CONTEXT)
    assert isinstance(unmapped.value.__cause__, UnknownName)
    check_validity(TEST_SIG, ctx, Substitution(), ctx)

    bad_op = Substitution(dirt={"d": dirt(("Nope",))})
    with pytest.raises(UnknownName):
        check_validity(TEST_SIG, ctx, bad_op, EMPTY_CONTEXT)

    ctx = ParamContext(ty_params=(("a", SkelBase("bit")),))
    check_validity(TEST_SIG, ctx, Substitution(ty={"a": TyBase("bit")}), EMPTY_CONTEXT)
    with pytest.raises(SkeletonMismatch):
        check_validity(TEST_SIG, ctx, Substitution(ty={"a": TyUnit()}), EMPTY_CONTEXT)

    ctx = ParamContext(ty_params=(("a", SkelUnit()),),
                       ty_cos=(("w", TyParam("a"), TyParam("a")),))
    good = Substitution(ty={"a": TyUnit()}, vco={"w": derived_refl_vty(TyUnit())})
    check_validity(TEST_SIG, ctx, good, EMPTY_CONTEXT)
    bad = Substitution(ty={"a": TyUnit()}, vco={"w": derived_refl_vty(TyBase("bit"))})
    with pytest.raises(EndpointMismatch):
        check_validity(TEST_SIG, ctx, bad, EMPTY_CONTEXT)


# ---------------------------------------------------------------------------
# Resolving a run's steps, against composing them one by one
#
# Step `k` maps some names of level `k` (`d2_1` is dirt parameter 1 of
# level 2), and its images mention only names of later levels, which a
# later step maps or none does. So every step maps each name at most once
# and mentions no name that it or an earlier step maps, as `resolve`
# requires.


def _later(rng, kind, k, levels):
    return f"{kind}{rng.randint(k + 1, levels)}_{rng.randint(1, 2)}"


def _skel(rng, k, levels, depth=2):
    pick = rng.randrange(4 if depth else 3)
    if pick == 0:
        return SkelParam(_later(rng, "s", k, levels))
    if pick == 1:
        return SkelUnit()
    if pick == 2:
        return SkelBase("bit")
    return SkelArrow(_skel(rng, k, levels, depth - 1), _skel(rng, k, levels, depth - 1))


def _dirt(rng, k, levels):
    ops = frozenset(op for op in ("Random", "Fail") if rng.random() < 0.4)
    return Dirt(ops, _later(rng, "d", k, levels) if rng.random() < 0.7 else None)


def _vty(rng, k, levels, depth=2):
    pick = rng.randrange(4 if depth else 3)
    if pick == 0:
        return TyParam(_later(rng, "a", k, levels))
    if pick == 1:
        return TyUnit()
    if pick == 2:
        return TyBase("bit")
    return TyArrow(_vty(rng, k, levels, depth - 1),
                   CompType(_vty(rng, k, levels, depth - 1), _dirt(rng, k, levels)))


def _dco(rng, k, levels, depth=3):
    pick = rng.randrange(7 if depth else 4)
    if pick == 0:
        return DCoParam(_later(rng, "p", k, levels))
    if pick == 1:
        return DCoReflParam(_later(rng, "d", k, levels))
    if pick == 2:
        return DCoReflEmpty()
    if pick == 3:
        return DCoEmptyUnder(_later(rng, "d", k, levels))
    if pick == 6:
        return DCoCompose(_dco(rng, k, levels, depth - 1), _dco(rng, k, levels, depth - 1))
    union = DCoUnionBoth if pick == 4 else DCoUnionRight
    return union(rng.choice(("Random", "Fail")), _dco(rng, k, levels, depth - 1))


def _vco(rng, k, levels, depth=3):
    pick = rng.randrange(6 if depth else 4)
    if pick == 0:
        return VCoParam(_later(rng, "w", k, levels))
    if pick == 1:
        return VCoReflParam(_later(rng, "a", k, levels))
    if pick == 2:
        return VCoReflUnit()
    if pick == 3:
        return VCoReflBase("bit")
    if pick == 4:
        return VCoArrow(_vco(rng, k, levels, depth - 1),
                        CCoercion(_vco(rng, k, levels, depth - 1), _dco(rng, k, levels)))
    return VCoCompose(_vco(rng, k, levels, depth - 1), _vco(rng, k, levels, depth - 1))


def layered_steps(rng, levels):
    steps = []
    for k in range(levels):
        step = Substitution()
        for part, kind, image in ((step.skel, "s", _skel), (step.dirt, "d", _dirt),
                                  (step.ty, "a", _vty), (step.dco, "p", _dco),
                                  (step.vco, "w", _vco)):
            for i in (1, 2):
                if rng.random() < 0.6:
                    part[f"{kind}{k}_{i}"] = image(rng, k, levels)
        steps.append(step)
    return steps


def test_resolve_equals_composing_the_steps_one_by_one(monkeypatch):
    """`resolve` of the steps' entries, as one log, gives what folding
    `compose` over the steps gives, each map's names in step order. The
    steps map skeleton parameters and compose coercions of both sorts whose
    links later steps rewrite."""
    seen = Counter()

    def counted(self, g, walk=subst._Resolver.walk):
        seen[type(g)] += 1
        return walk(self, g)

    monkeypatch.setattr(subst._Resolver, "walk", counted)
    rng = random.Random("resolve")
    rewritten = Counter()
    for i in range(300):
        steps = layered_steps(rng, rng.randint(1, 4))
        want = steps[0]
        for step in steps[1:]:
            want = compose(step, want)
        got = resolve(move_log(steps))
        assert got == want, i
        for part in ("skel", "dirt", "ty", "dco", "vco"):
            assert list(getattr(got, part)) == list(getattr(want, part)), (i, part)
            rewritten[part] += sum(getattr(got, part)[n] != image
                                   for step in steps for n, image in getattr(step, part).items())
    assert all(rewritten[part] for part in ("skel", "dirt", "ty", "dco", "vco")), rewritten
    assert seen[DCoCompose] and seen[VCoCompose], seen


def test_resolve_keeps_a_logged_image_whose_parts_no_later_move_maps():
    """`resolve` gives back a logged union or composition coercion itself
    when no later entry maps a name under it, and rebuilds one whose body
    a later entry maps."""
    union = DCoUnionBoth("get", DCoParam("w0"))
    lift = DCoUnionRight("put", DCoReflParam("d0"))
    dpair = DCoCompose(DCoParam("w0"), union)
    vpair = VCoCompose(VCoParam("v0"), VCoReflParam("a0"))
    moved = DCoUnionRight("get", DCoParam("w9"))
    log = ["dco", "w1", union, "dco", "w2", lift, "dco", "w3", dpair, "vco", "v1", vpair,
           "dco", "w4", moved, "dco", "w9", DCoReflParam("d1"), "dirt", "d9", dirt()]
    got = resolve(log)
    for name, image in (("w1", union), ("w2", lift), ("w3", dpair)):
        assert got.dco[name] is image, name
    assert got.vco["v1"] is vpair
    assert got.dco["w4"] == DCoUnionRight("get", DCoReflParam("d1"))


# ---------------------------------------------------------------------------
# Application shares what it does not change
#
# `tests/reference_subst.py` keeps one applier per syntax kind and
# `compose` as they were when every visited node was rebuilt. On every
# input below, `subst.apply` gives what the reference's applier of the
# input's kind gives, gives back the input itself when the substitution
# maps no name in it, and shares with the input every subtree in which it
# maps no name.

APPLIERS = {Skeleton: "apply_skel", Dirt: "apply_dirt", ValueType: "apply_vty",
            CompType: "apply_cty", DCoercion: "apply_dco", VCoercion: "apply_vco",
            CCoercion: "apply_cco", ValueTerm: "apply_value", CompTerm: "apply_comp"}
NODES = tuple(APPLIERS)


def kids(x) -> list:
    """The syntax nodes among the fields of `x`, in field order."""
    return [k for k in (getattr(x, f) for f in type(x).__match_args__) if isinstance(k, NODES)]


def maps_leaf(sub, x) -> bool:
    """Whether `sub` maps the name that the leaf `x` is or is built over."""
    for cls, part, attr in ((SkelParam, "skel", "name"), (TyParam, "ty", "name"),
                            (VCoReflParam, "ty", "name"), (VCoParam, "vco", "name"),
                            (Dirt, "dirt", "tail"), (DCoReflParam, "dirt", "name"),
                            (DCoEmptyUnder, "dirt", "tail"), (DCoParam, "dco", "name")):
        if isinstance(x, cls):
            return getattr(x, attr) in getattr(sub, part)
    return False


def maps_under(sub, x) -> bool:
    return maps_leaf(sub, x) or any(maps_under(sub, k) for k in kids(x))


def assert_shares(sub, x, got) -> None:
    """`got`, the image of `x`, is `x` itself where `sub` maps no name
    under it; above a mapped name it is a node of `x`'s class whose
    children are their own images."""
    if not maps_under(sub, x):
        assert got is x, x
    elif not maps_leaf(sub, x):
        assert type(got) is type(x), (x, got)
        for kid, image in zip(kids(x), kids(got), strict=True):
            assert_shares(sub, kid, image)


def assert_applies_as_the_reference(sub, x, seen: Counter) -> None:
    name = next(name for cls, name in APPLIERS.items() if isinstance(x, cls))
    got = subst.apply(sub, x)
    assert got == getattr(reference_subst, name)(sub, x), (name, x)
    assert_shares(sub, x, got)
    seen[name, maps_under(sub, x)] += 1


def random_partial_substitution(rng, ctx) -> Substitution:
    """About half of the names of `ctx`, each mapped to a random image over
    `ctx` of its kind; the images need not be valid ones."""
    def some(names):
        return [n for n in names if rng.random() < 0.5]

    return Substitution(
        {n: rng.choice([SkelUnit(), SkelArrow(SkelParam(ctx.skel_params[0]), SkelUnit())])
         for n in some(ctx.skel_params)},
        {n: random_dirt(rng, ctx) for n in some(ctx.dirt_params)},
        {n: random_vty(rng, ctx, depth=1) for n in some(n for n, _ in ctx.ty_params)},
        {n: random_dco(rng, ctx) for n in some(n for n, _, _ in ctx.dirt_cos)},
        {n: random_vco(rng, ctx) for n in some(n for n, _, _ in ctx.ty_cos)})


def test_appliers_share_what_they_do_not_change_on_random_syntax():
    """`tests/gen.py` types, dirts and coercions under random partial
    substitutions of their context, and the layered generators' images of
    every node class under the next level's step."""
    rng = random.Random("share:random")
    seen = Counter()
    for i in range(300):
        ctx = random_context(rng) if i % 2 else test_reduce.random_structural_context(rng)
        sub = random_partial_substitution(rng, ctx)
        vco, dco = random_vco(rng, ctx, depth=2), random_dco(rng, ctx)
        for x in (random_vty(rng, ctx, depth=3), random_dirt(rng, ctx),
                  CompType(random_vty(rng, ctx), random_dirt(rng, ctx)),
                  *(skel for _, skel in ctx.ty_params), vco, dco, CCoercion(vco, dco)):
            assert_applies_as_the_reference(sub, x, seen)
        steps = layered_steps(rng, 3)
        for image in (_skel, _dirt, _vty, _dco, _vco):
            assert_applies_as_the_reference(steps[1], image(rng, 0, 3), seen)
    # Each kind of types and coercions met inputs with and without a mapped name.
    assert {(name, mapped) for name in list(APPLIERS.values())[:7]
            for mapped in (False, True)} <= set(seen), seen


def test_appliers_share_what_they_do_not_change_on_corpus_items():
    """Each bundled item's type and term under its run's substitution, and
    under a random half of it; every phase step's coercion entries under
    the step's own substitution and under the phases' whole one."""
    rng = random.Random("share:corpus")
    seen = Counter()
    for item in load_bundled():
        for preset in PRESETS:
            try:
                sim = simplify(item.signature, item.context, EMPTY_FPS,
                               parse_phase_config(preset))
            except Unsatisfiable:
                continue
            half = Substitution(*({n: x for n, x in m.items() if rng.random() < 0.5}
                                  for m in sim.subst.maps()))
            for sub in (sim.subst, half):
                for x in (item.poltype, item.term):
                    if x is not None:
                        assert_applies_as_the_reference(sub, x, seen)
            assert_step_entries_apply_as_the_reference(sim.phases, seen)
    assert {("apply_vty", False), ("apply_vty", True), ("apply_value", False),
            ("apply_value", True), ("apply_dco", True), ("apply_vco", True)} <= set(seen), seen


def assert_step_entries_apply_as_the_reference(run, seen: Counter) -> None:
    for step in run.steps:
        for entry in (*step.eta.values(), *step.family.values()):
            if not isinstance(entry, tuple):  # a (lower, upper) pair of dirt bounds
                for sub in (step.subst, run.subst):
                    assert_applies_as_the_reference(sub, entry, seen)


def test_appliers_share_what_they_do_not_change_on_bench_shapes(shape_runs):
    """Every classifier and bound of the structural shapes under their
    reduction's and their run's substitution, and every phase step's
    coercion entries on the canonical shapes."""
    seen = Counter()
    for depth in (1, 2, 3):
        ctx = structural_context(depth, 60, extra=2)
        for preset in ("none", "scc", "all"):
            sim = simplify(TEST_SIG, ctx, EMPTY_FPS, parse_phase_config(preset))
            for sub in (sim.reduction.subst, sim.subst):
                for x in (*(s for _, s in ctx.ty_params),
                          *(b for _, lo, hi in ctx.dirt_cos + ctx.ty_cos for b in (lo, hi))):
                    assert_applies_as_the_reference(sub, x, seen)
            assert_step_entries_apply_as_the_reference(sim.phases, seen)
    for family in sorted(SHAPES):
        for preset in ("all", "full"):
            sim, _ = shape_runs(family, 50, preset)
            assert_step_entries_apply_as_the_reference(sim.phases, seen)
    assert {("apply_skel", False), ("apply_dirt", False), ("apply_dirt", True),
            ("apply_vty", True), ("apply_dco", True), ("apply_vco", True)} <= set(seen), seen


def test_compose_after_an_empty_substitution_walks_nothing(monkeypatch):
    """`compose(Substitution(), s)` never calls `apply` and gives what the
    reference gives: a copy of `s`, its images shared. After any other
    substitution it gives what the reference gives too, sharing each
    image that mentions no name the later substitution maps."""
    firsts = [reduce_context(TEST_SIG, structural_context(2, size)).subst for size in (100, 400)]
    firsts += [sub for item in load_bundled()
               if any((sub := simplify(item.signature, item.context, EMPTY_FPS,
                                       PRESETS["all"]).subst).maps())]
    calls = Counter()

    def counted(*args, fn=subst.apply):
        calls[type(args[1])] += 1
        return fn(*args)

    monkeypatch.setattr(subst, "apply", counted)
    for s in firsts:
        got = compose(Substitution(), s)
        assert got == reference_subst.compose(Substitution(), s)
        assert got is not s and not any(a is b for a, b in zip(got.maps(), s.maps()))
        assert all(list(a.items()) == list(b.items()) for a, b in zip(got.maps(), s.maps()))
    assert calls == {}, calls
    rng = random.Random("share:compose")
    for i in range(100):
        s1, s2 = layered_steps(rng, 3)[:2]
        got = compose(s2, s1)
        assert got == reference_subst.compose(s2, s1), i
        for part, images in zip(got.maps(), s1.maps()):
            for n, x in images.items():
                if not maps_under(s2, x):
                    assert part[n] is x, (i, n)
    assert calls, "the applications were not counted"


# ---------------------------------------------------------------------------
# The prepared check against the reference
#
# `tests/reference_subst.py` keeps the validity check as it was before it
# was prepared once per pair of contexts. On every substitution below,
# valid or broken, the reference, `check_validity` and one `ValidityCheck`
# used for a whole sequence of substitutions raise the same error class
# with the same message and cause, or all pass.

WRONG_DIRT = derived_refl_dirt(dirt(("Random", "Fail")))
WRONG_VTY = derived_refl_vty(TyArrow(TyUnit(), CompType(TyBase("bool"), dirt(("Fail",)))))


def verdict(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return None


def broken_copies(sig, dst, sub, rng):
    """Copies of `sub`, each broken in one way: an image dropped, a
    coercion image with other endpoints (the upper one only, or both), a
    dirt image with an operation outside the signature, a type image of
    another skeleton."""
    out = []
    for part, check, refl in (("dco", check_dco, derived_refl_dirt),
                              ("vco", check_vco, derived_refl_vty)):
        names = [n for n, g in getattr(sub, part).items() if verdict(check, sig, dst, g) is None]
        if names:
            bad = sub.copy()
            name = rng.choice(sorted(names))
            lo, _ = check(sig, dst, getattr(bad, part)[name])
            getattr(bad, part)[name] = refl(lo)
            out.append(bad)
    for part in ("skel", "dirt", "ty", "dco", "vco"):
        if getattr(sub, part):
            bad = sub.copy()
            del getattr(bad, part)[rng.choice(sorted(getattr(sub, part)))]
            out.append(bad)
    for part, wrong in (("dco", WRONG_DIRT), ("vco", WRONG_VTY)):
        if getattr(sub, part):
            bad = sub.copy()
            getattr(bad, part)[rng.choice(sorted(getattr(sub, part)))] = wrong
            out.append(bad)
    if sub.dirt:
        bad = sub.copy()
        name = rng.choice(sorted(sub.dirt))
        bad.dirt[name] = Dirt(bad.dirt[name].ops | {"Nope"}, bad.dirt[name].tail)
        out.append(bad)
    if sub.ty:
        bad = sub.copy()
        name = rng.choice(sorted(sub.ty))
        arrow = TyArrow(TyUnit(), CompType(TyUnit(), dirt()))
        bad.ty[name] = TyUnit() if isinstance(bad.ty[name], TyArrow) else arrow
        out.append(bad)
    return out


def assert_same_verdicts(sig, src, dst, sub, rng, seen: Counter) -> None:
    """`sub`, each broken copy of it with `sub` again in between, and a
    copy of `sub` broken in place after it passed get the reference's
    verdict from `check_validity` and from one prepared check."""
    prepared = ValidityCheck(sig, src, dst)
    subs = [sub]
    for bad in broken_copies(sig, dst, sub, rng):
        subs += [bad, sub]
    for s in subs:
        want = verdict(reference_subst.check_validity, sig, src, s, dst)
        assert verdict(check_validity, sig, src, s, dst) == want
        assert verdict(prepared.check, s) == want
        seen[None if want is None else want[0].__name__] += 1
    rows = [name for name in src.dirt_params if name in sub.dirt]
    if verdict(prepared.check, sub) is None and rows:
        prepared = ValidityCheck(sig, src, dst)
        in_place = sub.copy()
        prepared.check(in_place)
        name = rng.choice(rows)
        in_place.dirt[name] = Dirt(frozenset({"Nope"}), None)
        want = verdict(reference_subst.check_validity, sig, src, in_place, dst)
        assert want is not None and verdict(prepared.check, in_place) == want


def assert_same_verdicts_on_run(sig, ctx, preset, rng, seen, fps=EMPTY_FPS, term=None):
    """Symbolic, `sim.subst : original -> simplified`, and ground: a sample
    of the original, its replay over reduction and its witness's
    instantiation of the simplified context."""
    try:
        sim = simplify(sig, ctx, fps, parse_phase_config(preset))
    except Unsatisfiable:
        seen["unsatisfiable"] += 1
        return
    assert_same_verdicts(sig, ctx, sim.context, sim.subst, rng, seen)
    try:
        eta0 = sample_eta(sig, ctx, rng, enumerable=True, term=term)
    except SampleError:
        seen["unsampled"] += 1
        return
    assert_same_verdicts(sig, ctx, EMPTY_CONTEXT, eta0, rng, seen)
    red = sim.reduction
    if red.context is not sim.original:
        try:
            eta_r = replay_reduction(ReductionReplay(sig, red), eta0)
        except CheckError:  # a sample that the reduced context loses
            seen["unreplayed"] += 1
            return
        assert_same_verdicts(sig, red.context, EMPTY_CONTEXT, eta_r, rng, seen)
    wit = build_witness_total(sig, sim, eta0)
    assert_same_verdicts(sig, sim.context, EMPTY_CONTEXT, wit.eta, rng, seen)


def test_prepared_check_agrees_with_the_reference_on_corpus_items():
    rng = random.Random("valid:corpus")
    seen = Counter()
    for item in load_bundled():
        for preset in PRESETS:
            assert_same_verdicts_on_run(item.signature, item.context, preset, rng, seen,
                                        term=item.term)
    assert {"UnmappedParam", "EndpointMismatch", "UnknownName", "SkeletonMismatch"} <= set(seen)
    assert seen[None] > 500, seen


def test_prepared_check_agrees_with_the_reference_on_bench_shapes():
    rng = random.Random("valid:shapes")
    seen = Counter()
    for family in SHAPES:
        ctx, fps = shape_context(family, 40)
        assert_same_verdicts_on_run(TEST_SIG, ctx, "all", rng, seen, fps)
    for depth in (1, 2, 3):
        ctx = structural_context(depth, 60, extra=2)
        for preset in ("none", "scc", "all"):
            assert_same_verdicts_on_run(TEST_SIG, ctx, preset, rng, seen)
    # Type parameters at two arrow skeletons, each image checked against
    # its own classifier's image.
    ctx = structural_context(1, 30)
    deep = SkelArrow(SkelArrow(SkelParam("s1"), SkelParam("s1")), SkelParam("s1"))
    mixed = ParamContext(ctx.skel_params, ctx.dirt_params,
                         ctx.ty_params + (("m1", deep), ("m2", deep)), ctx.dirt_cos, ctx.ty_cos)
    for i in range(4):
        eta = sample_eta(TEST_SIG, mixed, rng)
        swapped = eta.copy()
        swapped.ty["f0"], swapped.ty["m1"] = eta.ty["m1"], eta.ty["f0"]
        for sub in (eta, swapped):
            assert_same_verdicts(TEST_SIG, mixed, EMPTY_CONTEXT, sub, rng, seen)
    assert {"UnmappedParam", "EndpointMismatch", "UnknownName", "SkeletonMismatch"} <= set(seen)


def test_prepared_check_agrees_with_the_reference_on_random_contexts():
    rng = random.Random("valid:random")
    seen = Counter()
    for i in range(60):
        ctx = random_context(rng) if i % 2 else test_reduce.random_structural_context(rng)
        assert_same_verdicts_on_run(TEST_SIG, ctx, rng.choice(list(PRESETS)), rng, seen)
    assert {"UnmappedParam", "EndpointMismatch", "UnknownName", "SkeletonMismatch"} <= set(seen)
    assert seen[None] > 100, seen


# ---------------------------------------------------------------------------
# Grounding an instantiation


def test_ground_fills_the_coercions_dirt_rows_first_in_context_order(monkeypatch):
    """`ValidityCheck.ground` asks the signature for the inclusion between
    each constraint's bounds' images, the dirt rows first, each sort in
    context order, and fills the coercion maps in that order. From a
    draw's skeleton, dirt and type images alone it gives back the draw.
    Some of the draws have unequal bounds' images of either sort."""
    items = [i for i in load_bundled() if len(i.context.dirt_cos) > 1 < len(i.context.ty_cos)]
    assert len(items) > 2
    asked, unequal = [], set()
    real = subst.interned_inclusion

    def recorded(sig, lo, hi):
        asked.append((lo, hi))
        return real(sig, lo, hi)

    monkeypatch.setattr(subst, "interned_inclusion", recorded)
    for item in items:
        ctx = item.context
        valid = ValidityCheck(item.signature, ctx, EMPTY_CONTEXT)
        names = [n for n, _, _ in ctx.dirt_cos + ctx.ty_cos]
        for k in range(5):
            eta0 = sample_eta(item.signature, ctx, random.Random(f"{item.name}:{k}"))
            asked.clear()
            images = Substitution(dict(eta0.skel), dict(eta0.dirt), dict(eta0.ty))
            assert valid.ground(images) is images and images == eta0
            assert list(images.dco) + list(images.vco) == names
            bounds = ([(apply_dirt(eta0, lo), apply_dirt(eta0, hi)) for _, lo, hi in ctx.dirt_cos]
                      + [(apply_vty(eta0, lo), apply_vty(eta0, hi)) for _, lo, hi in ctx.ty_cos])
            assert asked == bounds
            unequal.update(type(lo) for lo, hi in bounds if lo != hi)
    assert unequal == {Dirt, TyArrow}


# ---------------------------------------------------------------------------
# The constraint-sort table

SORT_CTX = ParamContext(
    (), ("d1", "d2"), (("a1", SkelUnit()), ("a2", SkelUnit())),
    (("p1", dirt((), "d1"), dirt(("Fail",), "d2")),),
    (("w1", TyParam("a1"), TyParam("a2")),))
SORT_SUB = Substitution(dirt={"d1": dirt(("Random",))}, ty={"a1": TyUnit()},
                        dco={"p1": DCoReflEmpty()}, vco={"w1": VCoReflUnit()})


def _arrow(*ops):
    return TyArrow(TyUnit(), CompType(TyUnit(), dirt(ops)))


# Per sort: a parameter and a constraint of SORT_CTX, what the sort's
# record should make of them, and three ground images that include each
# other in order, as bounds and as results.
SORT_DATA = {
    "type": dict(p="a1", w="w1", bare=TyParam("a1"), refl=VCoReflParam("a1"),
                 co_param=VCoParam("w1"), rows=SORT_CTX.ty_cos,
                 image=SORT_SUB.ty["a1"], co_image=SORT_SUB.vco["w1"],
                 closed=TyBase("bit"), compound=TyArrow(TyParam("a1"), CompType(
                     TyParam("a2"), dirt(("Fail",), "d1"))),
                 ground=(_arrow(), _arrow("Fail"), _arrow("Fail", "Random")),
                 include=value_inclusion_coercion),
    "dirt": dict(p="d1", w="p1", bare=dirt((), "d1"), refl=DCoReflParam("d1"),
                 co_param=DCoParam("p1"), rows=SORT_CTX.dirt_cos,
                 image=SORT_SUB.dirt["d1"], co_image=SORT_SUB.dco["p1"],
                 closed=dirt(("Fail",)), compound=dirt(("Fail",), "d1"),
                 ground=(dirt(()), dirt(("Fail",)), dirt(("Fail", "Random"))),
                 include=dirt_inclusion_coercion),
}


def _sort_checks(sort, data):
    """(field, property) for each field of `sort`, each property reading
    that field and comparing with what `data` says of the sort."""
    sig, sub, p, w, bare = TEST_SIG, SORT_SUB, data["p"], data["w"], data["bare"]
    lo, mid, hi = data["ground"]
    before, after = data["include"](lo, mid), data["include"](mid, hi)

    def read(bound):
        b, key, const = sort.reader({}, bound)
        if key is not None:
            return getattr(sub, sort.params).get(key, b)
        return const if const is not None else subst.apply(sub, b)

    def reader():
        shapes = [sort.reader({}, b)[1:] for b in (bare, data["closed"], data["compound"])]
        return (shapes[0] == (p, None) and shapes[1][0] is None and shapes[1][1] is not None
                and shapes[2] == (None, None)
                and all(read(b) == subst.apply(sub, b)
                        for b in (bare, data["closed"], data["compound"])))

    def subst_field():
        made = sort.subst({p: lo}, {w: before})
        return (getattr(made, sort.params) == {p: lo} and getattr(made, sort.cos) == {w: before}
                and made.domain() == {p, w})

    classifier = next((below, above) for name, below, above in data["rows"] if name == w)
    return [
        ("name", lambda: subst.SORTS[sort.name] is sort and sort is SORT_RECORDS[sort.name]),
        ("params", lambda: getattr(sub, sort.params)[p] == data["image"]),
        ("cos", lambda: getattr(sub, sort.cos)[w] == data["co_image"]),
        ("rows", lambda: getattr(SORT_CTX, sort.rows) == data["rows"]),
        ("coercion", lambda: isinstance(data["refl"], sort.coercion)
         and subst.sort_of(data["co_param"]) is sort),
        ("bare", lambda: sort.bare(p) == bare),
        ("named", lambda: sort.named(bare) == p and sort.named(lo) is None),
        ("check_co", lambda: sort.check_co(sig, SORT_CTX, data["co_param"]) == classifier),
        ("refl", lambda: sort.refl(bare) == data["refl"]
         and sort.check_co(sig, SORT_CTX, sort.refl(sort.bare(p))) == (bare, bare)),
        ("co_param", lambda: sort.co_param(w) == data["co_param"]
         and sort.check_co(sig, SORT_CTX, sort.co_param(w)) == classifier),
        ("compose", lambda: sort.check_co(sig, EMPTY_CONTEXT, sort.compose(after, before))
         == (lo, hi)),
        ("inclusion", lambda: sort.inclusion(lo, mid) == before),
        ("endpoint", lambda: all(
            (sort.endpoint(g, False), sort.endpoint(g, True))
            == sort.check_co(sig, EMPTY_CONTEXT, g)
            for g in (before, after, sort.compose(after, before)))),
        ("reader", reader),
        ("subst", subst_field),
    ]


SORT_RECORDS = {"type": subst.TYPE, "dirt": subst.DIRT}


@pytest.mark.parametrize("name", sorted(SORT_DATA))
def test_each_sort_record_holds_its_own_sorts_functions(name):
    """Every field of a sort's record is read once against what that sort
    is; a field given the other sort's value fails, named."""
    sort = SORT_RECORDS[name]
    checks = _sort_checks(sort, SORT_DATA[name])
    assert sorted(f for f, _ in checks) == sorted(f.name for f in fields(subst.Sort))
    failed = []
    for field, holds in checks:
        try:
            ok = holds()
        except Exception:  # another sort's function fails on this sort's data
            ok = False
        if not ok:
            failed.append(field)
    assert failed == [], failed
