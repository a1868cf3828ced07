"""Positive/negative parameter occurrences and coercion families.

The polarity of a type or dirt parameter records on which side of the arrow
it occurs: argument positions flip polarity, result positions keep it, and
operation sets contribute nothing. A parameter can end up in both sets
(bipolar) or in neither (it does not occur).

A coercion family is a plain dict that assigns one coercion to each tracked
parameter, a value coercion at a type parameter and a dirt coercion at a
dirt parameter. It acts as a directed bridge between two substitutions:
checked against `(sub1, sub2)` at polarity set `F`, the family must run
`sub1(p) <= sub2(p)` for positive `p` and `sub2(p) <= sub1(p)` for
negative `p`. Bipolar parameters therefore
need both directions at once, which forces equal images and a reflexivity
witness. Families extend homomorphically to whole types, compose pointwise,
and precompose with substitutions; those three operations are what the
simplifier's completeness witnesses are assembled from.
"""

from __future__ import annotations

from .check import CheckError, EndpointMismatch, extend_dirt, extend_vty
from .subst import Substitution, apply, sort_of
from .syntax import (
    CompType,
    DCoercion,
    Dirt,
    ParamContext,
    Signature,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    VCoercion,
    ValueType,
    value_class,
)


@value_class
class FreeParamSet:
    pos: frozenset[str] = frozenset()
    neg: frozenset[str] = frozenset()

    def swap(self) -> FreeParamSet:
        return FreeParamSet(self.neg, self.pos)

    def union(self, other: FreeParamSet) -> FreeParamSet:
        return FreeParamSet(self.pos | other.pos, self.neg | other.neg)

    def members(self) -> frozenset[str]:
        return self.pos | self.neg

    def __str__(self) -> str:
        def fmt(names):
            return "{" + ",".join(sorted(names)) + "}"

        return f"<+{fmt(self.pos)} -{fmt(self.neg)}>"


EMPTY_FPS = FreeParamSet()


def fp_dirt(d: Dirt) -> FreeParamSet:
    if d.tail is None:
        return EMPTY_FPS
    return FreeParamSet(pos=frozenset({d.tail}))


def fp_vty(t: ValueType) -> FreeParamSet:
    if isinstance(t, TyParam):
        return FreeParamSet(pos=frozenset({t.name}))
    if isinstance(t, (TyUnit, TyBase)):
        return EMPTY_FPS
    if isinstance(t, TyArrow):
        return fp_vty(t.dom).swap().union(fp_cty(t.cod))
    raise TypeError(f"not a value type: {t!r}")


def fp_cty(c: CompType) -> FreeParamSet:
    return fp_vty(c.ty).union(fp_dirt(c.dirt))


def subst_fps(sub: Substitution, fps: FreeParamSet) -> FreeParamSet:
    """Image of a polarity set under a substitution.

    Positive members contribute the occurrences of their image as-is,
    negative members contribute them swapped; a parameter the substitution
    does not mention is its own image.
    """

    def image(name: str) -> FreeParamSet:
        if name in sub.ty:
            return fp_vty(sub.ty[name])
        if name in sub.dirt:
            return fp_dirt(sub.dirt[name])
        return FreeParamSet(pos=frozenset({name}))

    out = EMPTY_FPS
    for name in fps.pos:
        out = out.union(image(name))
    for name in fps.neg:
        out = out.union(image(name).swap())
    return out


# ---------------------------------------------------------------------------
# Coercion families

class FamilyError(CheckError):
    pass


def _entries(fam: dict, kind: str):
    """A family's entry at a parameter of one kind, as the extension reads it."""
    def at(name: str):
        try:
            return fam[name]
        except KeyError:
            raise FamilyError(f"family has no entry for {kind} parameter {name}")
    return at


def extend_family_dirt(fam: dict, d: Dirt) -> DCoercion:
    return extend_dirt(d, _entries(fam, "dirt"))


def extend_family_vty(fam: dict, t: ValueType) -> VCoercion:
    return extend_vty(t, _entries(fam, "type"), _entries(fam, "dirt"))


def compose_families(after: dict, before: dict, fps: FreeParamSet) -> dict:
    """Pointwise composition of `before : s1 <= s2` and `after : s2 <= s3`
    into a family for `s1 <= s3`.

    At positive parameters the entries chain left to right, so `before` runs
    first. At strictly negative parameters both entries point the other way
    (`s2(p) <= s1(p)` and `s3(p) <= s2(p)`), so `after` must run first for
    the middles to meet. Bipolar entries have equal endpoints on both sides
    and either order typechecks; the positive order is used.
    """
    flipped = fps.neg - fps.pos
    out = {}
    for name, g in before.items():
        if name not in after:
            raise FamilyError(f"composition: no matching entry for {name}")
        f = after[name]
        compose = sort_of(g).compose
        out[name] = compose(g, f) if name in flipped else compose(f, g)
    return out


def precompose_family(fam: dict, sub: Substitution, names) -> dict:
    """The family `a -> extend(fam, sub(a))` over the given parameter names."""
    out = {}
    for name in names:
        if name in sub.ty:
            out[name] = extend_family_vty(fam, sub.ty[name])
        elif name in sub.dirt:
            out[name] = extend_family_dirt(fam, sub.dirt[name])
        elif name in fam:
            out[name] = fam[name]
        else:
            raise FamilyError(f"cannot precompose: {name} unknown to family")
    return out


def check_family(
    sig: Signature,
    use_ctx: ParamContext,
    fam: dict,
    sub1: Substitution,
    sub2: Substitution,
    fps: FreeParamSet,
) -> None:
    """Check `fam : sub1 <=_fps sub2` into `use_ctx`.

    Every tracked parameter needs an entry whose endpoints are the two
    images, in the direction its polarity demands (both for bipolar ones).
    Each entry is held to the images of its own sort: an entry of the
    wrong sort is held to the bare parameter, which names no parameter of
    that sort.
    """

    for name in sorted(fps.members()):
        co = fam.get(name)
        sort = sort_of(co)
        if sort is None:
            raise FamilyError(f"family has no entry for {name}")
        got, bare = sort.check_co(sig, use_ctx, co), sort.bare(name)
        img1, img2 = apply(sub1, bare), apply(sub2, bare)
        if name in fps.pos and got != (img1, img2):
            raise EndpointMismatch(
                f"family entry for positive {name}: endpoints {got[0]} <= {got[1]}, "
                f"need {img1} <= {img2}"
            )
        if name in fps.neg and got != (img2, img1):
            raise EndpointMismatch(
                f"family entry for negative {name}: endpoints {got[0]} <= {got[1]}, "
                f"need {img2} <= {img1}"
            )
