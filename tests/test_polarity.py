"""Occurrence polarity and coercion families."""

import random

import pytest

from coersimp.check import EndpointMismatch, check_dco, check_vco, derived_refl_vty
from coersimp.polarity import (
    EMPTY_FPS,
    FamilyError,
    FreeParamSet,
    check_family,
    compose_families,
    extend_family_dirt,
    extend_family_vty,
    fp_cty,
    fp_dirt,
    fp_vty,
    precompose_family,
    subst_fps,
)
from coersimp.subst import Substitution, apply as apply_vty, compose
from coersimp.syntax import (
    CompType,
    DCoCompose,
    DCoParam,
    DCoReflParam,
    DCoUnionBoth,
    DCoUnionRight,
    Dirt,
    ParamContext,
    SkelParam,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    VCoCompose,
    VCoParam,
    VCoReflParam,
    VCoReflUnit,
    dirt,
)

from gen import TEST_SIG, random_context, random_vty

A, B, C, D, E = (TyParam(n) for n in "abcde")


def arrow(dom, cod_ty, cod_dirt=None):
    return TyArrow(dom, CompType(cod_ty, cod_dirt or dirt()))


def fps(pos=(), neg=()):
    return FreeParamSet(frozenset(pos), frozenset(neg))


# ---------------------------------------------------------------------------
# Occurrence tracking


def test_fp_leaves():
    assert fp_vty(A) == fps(pos="a")
    assert fp_vty(TyUnit()) == EMPTY_FPS
    assert fp_vty(TyBase("bit")) == EMPTY_FPS
    assert fp_dirt(Dirt(frozenset({"Random"}), None)) == EMPTY_FPS
    assert fp_dirt(dirt(("Random",), "d")) == fps(pos="d")


def test_fp_arrow_flips_argument():
    t = arrow(A, B, dirt((), "d"))
    assert fp_vty(t) == fps(pos={"b", "d"}, neg={"a"})


def test_fp_nested_argument_flips_twice():
    t = arrow(arrow(A, B, dirt((), "d")), C, dirt((), "e"))
    assert fp_vty(t) == fps(pos={"a", "c", "e"}, neg={"b", "d"})


def test_fp_bipolar_member():
    t = arrow(A, A)
    got = fp_vty(t)
    assert got.pos & got.neg == frozenset({"a"})
    assert got.members() == frozenset({"a"})


def test_fp_cty():
    c = CompType(A, dirt((), "d"))
    assert fp_cty(c) == fps(pos={"a", "d"})


def test_fps_algebra():
    f = fps(pos={"a", "b"}, neg={"b"})
    assert f.swap() == fps(pos={"b"}, neg={"a", "b"})
    assert f.union(fps(neg={"c"})) == fps(pos={"a", "b"}, neg={"b", "c"})
    assert f.pos & f.neg == frozenset({"b"})
    assert str(f) == "<+{a,b} -{b}>"


def test_subst_fps_respects_position():
    sub = Substitution()
    sub.ty["a"] = arrow(C, D, dirt((), "e"))
    sub.ty["b"] = arrow(C, D, dirt((), "e"))
    got = subst_fps(sub, fps(pos={"a"}, neg={"b"}))
    # a contributes its image as-is, b contributes it swapped
    assert got == fps(pos={"c", "d", "e"}, neg={"c", "d", "e"})


def test_subst_fps_unmapped_is_fixed():
    sub = Substitution()
    sub.dirt["d"] = dirt(("Random",), "e")
    assert subst_fps(sub, fps(pos={"d"}, neg={"x"})) == fps(pos={"e"}, neg={"x"})


# ---------------------------------------------------------------------------
# Families: a shared use context with one type edge and one dirt edge

USE_CTX = ParamContext(
    ("s1",),
    ("e1", "e2"),
    (("c1", SkelParam("s1")), ("c2", SkelParam("s1"))),
    (("p", dirt((), "e1"), dirt(("Random",), "e2")),),
    (("w", TyParam("c1"), TyParam("c2")),),
)


def test_extend_family_dirt():
    fam = {"d": DCoParam("p")}
    g = extend_family_dirt(fam, dirt(("Fail",), "d"))
    assert check_dco(TEST_SIG, USE_CTX, g) == (
        dirt(("Fail",), "e1"), dirt(("Fail", "Random"), "e2"))
    closed = extend_family_dirt(fam, dirt(("Fail", "Random")))
    want = dirt(("Fail", "Random"))
    assert check_dco(TEST_SIG, USE_CTX, closed) == (want, want)
    with pytest.raises(FamilyError):
        extend_family_dirt({}, dirt((), "d"))


def test_extend_family_vty_over_arrow():
    """Extension turns a family into a coercion between the two images."""
    t = arrow(A, B, dirt((), "d"))
    sub1, sub2 = Substitution(), Substitution()
    sub1.ty.update(a=TyParam("c2"), b=TyParam("c1"))
    sub1.dirt["d"] = dirt((), "e1")
    sub2.ty.update(a=TyParam("c1"), b=TyParam("c2"))
    sub2.dirt["d"] = dirt(("Random",), "e2")
    fam = {"a": VCoParam("w"), "b": VCoParam("w"), "d": DCoParam("p")}
    check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, fp_vty(t))
    g = extend_family_vty(fam, t)
    assert check_vco(TEST_SIG, USE_CTX, g) == (
        apply_vty(sub1, t), apply_vty(sub2, t))


def test_check_family_missing_entry():
    with pytest.raises(FamilyError):
        check_family(TEST_SIG, USE_CTX, {},
                     Substitution(), Substitution(), fps(pos={"a"}))


def test_check_family_direction():
    sub1, sub2 = Substitution(), Substitution()
    sub1.ty["b"] = TyParam("c1")
    sub2.ty["b"] = TyParam("c2")
    fam = {"b": VCoParam("w")}
    check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, fps(pos={"b"}))
    with pytest.raises(EndpointMismatch):
        check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, fps(neg={"b"}))


def test_check_family_bipolar_forces_equal_images():
    both = fps(pos={"b"}, neg={"b"})
    sub1, sub2 = Substitution(), Substitution()
    sub1.ty["b"] = TyParam("c1")
    sub2.ty["b"] = TyParam("c1")
    fam = {"b": VCoReflParam("c1")}
    check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, both)
    sub2.ty["b"] = TyParam("c2")
    with pytest.raises(EndpointMismatch):
        check_family(TEST_SIG, USE_CTX, {"b": VCoParam("w")},
                     sub1, sub2, both)


def test_check_family_holds_each_entry_to_its_parameters_sort():
    """A family is one map over both sorts: a dirt coercion at a type
    parameter and a value coercion at a dirt parameter are rejected."""
    sub1, sub2 = Substitution(), Substitution()
    sub1.ty["b"], sub2.ty["b"] = TyParam("c1"), TyParam("c2")
    sub1.dirt["k"], sub2.dirt["k"] = dirt((), "e1"), dirt(("Random",), "e2")
    pol = fps(pos={"b", "k"})
    check_family(TEST_SIG, USE_CTX, {"b": VCoParam("w"), "k": DCoParam("p")}, sub1, sub2, pol)
    for bad in ({"b": DCoParam("p"), "k": DCoParam("p")},
                {"b": VCoParam("w"), "k": VCoParam("w")}):
        with pytest.raises(EndpointMismatch):
            check_family(TEST_SIG, USE_CTX, bad, sub1, sub2, pol)


def test_compose_families_composes_a_mixed_family_entry_by_entry():
    """Value entries compose with `VCoCompose` and dirt entries with
    `DCoCompose`; only a strictly negative name runs `after` first."""
    before = {"a": VCoParam("w1"), "b": VCoParam("w2"), "c": VCoParam("w3"),
              "d": DCoParam("p1"), "e": DCoParam("p2"), "f": DCoParam("p3")}
    after = {"a": VCoParam("v1"), "b": VCoParam("v2"), "c": VCoParam("v3"),
             "d": DCoParam("q1"), "e": DCoParam("q2"), "f": DCoParam("q3")}
    pol = fps(pos={"a", "c", "d", "f"}, neg={"b", "c", "e", "f"})
    assert compose_families(after, before, pol) == {
        "a": VCoCompose(after["a"], before["a"]),
        "b": VCoCompose(before["b"], after["b"]),
        "c": VCoCompose(after["c"], before["c"]),
        "d": DCoCompose(after["d"], before["d"]),
        "e": DCoCompose(before["e"], after["e"]),
        "f": DCoCompose(after["f"], before["f"]),
    }


def subs_chain():
    """Three substitutions with d1 growing and d2 shrinking along the chain."""
    levels = [frozenset(), frozenset({"Fail"}), frozenset({"Fail", "Random"})]
    subs = []
    for i in range(3):
        s = Substitution()
        s.dirt["d1"] = Dirt(levels[i], "e1")
        s.dirt["d2"] = Dirt(levels[2 - i], "e1")
        subs.append(s)
    return subs


def test_compose_families_flips_at_negative_names():
    sub1, sub2, sub3 = subs_chain()
    pol = fps(pos={"d1"}, neg={"d2"})
    grow_f = DCoUnionRight("Fail", DCoReflParam("e1"))
    grow_fr = DCoUnionBoth("Fail", DCoUnionRight("Random", DCoReflParam("e1")))
    before = {"d1": grow_f, "d2": grow_fr}
    after = {"d1": grow_fr, "d2": grow_f}
    check_family(TEST_SIG, USE_CTX, before, sub1, sub2, pol)
    check_family(TEST_SIG, USE_CTX, after, sub2, sub3, pol)
    comp = compose_families(after, before, pol)
    check_family(TEST_SIG, USE_CTX, comp, sub1, sub3, pol)
    # positive entry runs `before` first, negative entry runs `after` first
    assert comp["d1"].before is before["d1"]
    assert comp["d2"].before is after["d2"]


def test_compose_families_missing_entry():
    with pytest.raises(FamilyError):
        compose_families({}, {"d": DCoReflParam("e1")}, fps(pos={"d"}))


def test_invert_family_swaps_direction():
    """A family for `sub1 <= sub2` at a polarity set is, unchanged, one for
    `sub2 <= sub1` at the swapped set."""
    sub1, sub2, _ = subs_chain()
    pol = fps(pos={"d1"}, neg={"d2"})
    grow_f = DCoUnionRight("Fail", DCoReflParam("e1"))
    grow_fr = DCoUnionBoth("Fail", DCoUnionRight("Random", DCoReflParam("e1")))
    fam = {"d1": grow_f, "d2": grow_fr}
    check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, pol)
    check_family(TEST_SIG, USE_CTX, fam, sub2, sub1, pol.swap())


def test_precompose_family():
    """Precomposition pushes a family through an inner substitution."""
    fam = {"b": VCoParam("w"), "k": DCoParam("p")}
    sub1, sub2 = Substitution(), Substitution()
    sub1.ty["b"] = TyParam("c1")
    sub1.dirt["k"] = dirt((), "e1")
    sub2.ty["b"] = TyParam("c2")
    sub2.dirt["k"] = dirt(("Random",), "e2")
    check_family(TEST_SIG, USE_CTX, fam, sub1, sub2, fps(pos={"b", "k"}))

    inner = Substitution()
    inner.ty["a"] = arrow(TyUnit(), TyParam("b"), dirt((), "k"))
    inner.dirt["d"] = dirt(("Fail",), "k")
    pre = precompose_family(fam, inner, ["a", "d", "b"])
    assert pre["a"] == extend_family_vty(fam, inner.ty["a"])
    assert pre["d"] == DCoUnionBoth("Fail", DCoParam("p"))
    assert pre["b"] is fam["b"]  # untouched names fall through
    check_family(TEST_SIG, USE_CTX, pre,
                 compose(sub1, inner), compose(sub2, inner),
                 fps(pos={"a", "d", "b"}))
    with pytest.raises(FamilyError):
        precompose_family(fam, inner, ["zz"])


def test_reflexivity_is_the_extension_of_each_parameters_reflexivity():
    """Over random types, `derived_refl_vty(t)` is `extend_family_vty` of the
    family that maps each parameter of `t` to its reflexivity, and both
    check to `(t, t)`."""
    rng = random.Random("refl-family")
    for _ in range(300):
        ctx = random_context(rng)
        t = random_vty(rng, ctx, depth=3)
        tys = {n for n, _ in ctx.ty_params}
        fam = {n: VCoReflParam(n) if n in tys else DCoReflParam(n) for n in fp_vty(t).members()}
        refl = derived_refl_vty(t)
        assert extend_family_vty(fam, t) == refl
        assert check_vco(TEST_SIG, ctx, refl) == (t, t)


def test_extend_family_vty_refl_leaves():
    fam = {}
    assert extend_family_vty(fam, TyUnit()) == VCoReflUnit()
    got = check_vco(TEST_SIG, USE_CTX, extend_family_vty(fam, TyBase("bit")))
    assert got == (TyBase("bit"), TyBase("bit"))
    with pytest.raises(FamilyError):
        extend_family_vty(fam, A)
