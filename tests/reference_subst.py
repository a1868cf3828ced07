"""Validity checking as it was before the prepared `ValidityCheck`, kept as
a test-only differential oracle.

Each call walks the source context row by row: it builds the parameter
that stands for an unmapped name, substitutes every classifier, and checks
every image from scratch, coercions included. `tests/test_subst.py` checks
that `coersimp.subst.check_validity` and a `ValidityCheck` used for many
substitutions raise the same error class with the same message, or both
pass.

Below it, application and composition as they were before they shared
unchanged nodes: every applier rebuilds each node it visits, and
`compose` applies the later substitution to every image of the earlier
one. The check above substitutes its classifiers with them.
`tests/test_subst.py` checks that the package's appliers and `compose`
give equal results, sharing what they do not change.
"""

from __future__ import annotations

from coersimp.check import (
    CheckError,
    EndpointMismatch,
    SkeletonMismatch,
    check_dco,
    check_vco,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    wf_dirt,
    wf_skeleton,
    wf_vtype,
)
from coersimp.subst import Substitution, UnmappedParam
from coersimp.syntax import (
    App,
    CastC,
    CastV,
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
    Do,
    Lam,
    LetVal,
    OpCall,
    Return,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    Skeleton,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    UnitVal,
    VCoArrow,
    VCoCompose,
    VCoParam,
    VCoReflBase,
    VCoReflParam,
    VCoReflUnit,
    VCoercion,
    ValueTerm,
    ValueType,
    Var,
)


def check_validity(sig, src, sub, dst) -> None:
    """Check `sub : src -> dst`, left to right through `src`."""

    for name in src.skel_params:
        s = sub.skel.get(name)
        try:
            wf_skeleton(dst, SkelParam(name) if s is None else s)
        except CheckError as e:
            _fail(name, s is None, e)

    for name in src.dirt_params:
        d = sub.dirt.get(name)
        try:
            wf_dirt(sig, dst, Dirt(frozenset(), name) if d is None else d)
        except CheckError as e:
            _fail(name, d is None, e)

    for name, skel in src.ty_params:
        t = sub.ty.get(name)
        want = apply_skel(sub, skel)
        try:
            got = wf_vtype(sig, dst, TyParam(name) if t is None else t)
        except CheckError as e:
            _fail(name, t is None, e)
        else:
            if got != want:
                raise SkeletonMismatch(
                    f"image of {name} has skeleton {got}, classifier demands {want}"
                )

    for name, lo, hi in src.dirt_cos:
        g = sub.dco.get(name)
        want = (apply_dirt(sub, lo), apply_dirt(sub, hi))
        try:
            got = check_dco(sig, dst, DCoParam(name) if g is None else g)
        except CheckError as e:
            _fail(name, g is None, e)
        else:
            if got != want:
                raise EndpointMismatch(
                    f"image of {name} has endpoints {got[0]} <= {got[1]}, "
                    f"classifier demands {want[0]} <= {want[1]}"
                )

    for name, lo, hi in src.ty_cos:
        g = sub.vco.get(name)
        want = (apply_vty(sub, lo), apply_vty(sub, hi))
        try:
            got = check_vco(sig, dst, VCoParam(name) if g is None else g)
        except CheckError as e:
            _fail(name, g is None, e)
        else:
            if got != want:
                raise EndpointMismatch(
                    f"image of {name} has endpoints {got[0]} <= {got[1]}, "
                    f"classifier demands {want[0]} <= {want[1]}"
                )


def _fail(name: str, unmapped: bool, cause: CheckError):
    if unmapped:
        raise UnmappedParam(
            f"parameter {name} is unmapped and absent from the target context"
        ) from cause
    raise cause


# ---------------------------------------------------------------------------
# Application and composition, every node rebuilt

def apply_skel(sub: Substitution, s: Skeleton) -> Skeleton:
    if isinstance(s, SkelParam):
        return sub.skel.get(s.name, s)
    if isinstance(s, (SkelUnit, SkelBase)):
        return s
    if isinstance(s, SkelArrow):
        return SkelArrow(apply_skel(sub, s.dom), apply_skel(sub, s.cod))
    raise TypeError(f"not a skeleton: {s!r}")


def apply_dirt(sub: Substitution, d: Dirt) -> Dirt:
    image = sub.dirt.get(d.tail)
    if image is None:
        return d
    return Dirt(d.ops | image.ops, image.tail) if d.ops else image


def apply_vty(sub: Substitution, t: ValueType) -> ValueType:
    if isinstance(t, TyParam):
        return sub.ty.get(t.name, t)
    if isinstance(t, (TyUnit, TyBase)):
        return t
    if isinstance(t, TyArrow):
        return TyArrow(apply_vty(sub, t.dom), apply_cty(sub, t.cod))
    raise TypeError(f"not a value type: {t!r}")


def apply_cty(sub: Substitution, c: CompType) -> CompType:
    return CompType(apply_vty(sub, c.ty), apply_dirt(sub, c.dirt))


def apply_dco(sub: Substitution, g: DCoercion) -> DCoercion:
    if isinstance(g, DCoParam):
        return sub.dco.get(g.name, g)
    if isinstance(g, DCoReflParam):
        if g.name in sub.dirt:
            return derived_refl_dirt(sub.dirt[g.name])
        return g
    if isinstance(g, DCoReflEmpty):
        return g
    if isinstance(g, DCoEmptyUnder):
        if g.tail in sub.dirt:
            return derived_empty(sub.dirt[g.tail])
        return g
    if isinstance(g, DCoUnionBoth):
        return DCoUnionBoth(g.op, apply_dco(sub, g.body))
    if isinstance(g, DCoUnionRight):
        return DCoUnionRight(g.op, apply_dco(sub, g.body))
    if isinstance(g, DCoCompose):
        return DCoCompose(apply_dco(sub, g.after), apply_dco(sub, g.before))
    raise TypeError(f"not a dirt coercion: {g!r}")


def apply_vco(sub: Substitution, g: VCoercion) -> VCoercion:
    if isinstance(g, VCoParam):
        return sub.vco.get(g.name, g)
    if isinstance(g, VCoReflParam):
        if g.name in sub.ty:
            return derived_refl_vty(sub.ty[g.name])
        return g
    if isinstance(g, (VCoReflUnit, VCoReflBase)):
        return g
    if isinstance(g, VCoArrow):
        return VCoArrow(apply_vco(sub, g.arg), apply_cco(sub, g.res))
    if isinstance(g, VCoCompose):
        return VCoCompose(apply_vco(sub, g.after), apply_vco(sub, g.before))
    raise TypeError(f"not a value coercion: {g!r}")


def apply_cco(sub: Substitution, g: CCoercion) -> CCoercion:
    return CCoercion(apply_vco(sub, g.vco), apply_dco(sub, g.dco))


def apply_value(sub: Substitution, v: ValueTerm) -> ValueTerm:
    if isinstance(v, (Var, UnitVal)):
        return v
    if isinstance(v, Lam):
        return Lam(v.var, apply_vty(sub, v.ty), apply_comp(sub, v.body))
    if isinstance(v, CastV):
        return CastV(apply_value(sub, v.val), apply_vco(sub, v.co))
    raise TypeError(f"not a value term: {v!r}")


def apply_comp(sub: Substitution, c: CompTerm) -> CompTerm:
    if isinstance(c, Return):
        return Return(apply_value(sub, c.val))
    if isinstance(c, OpCall):
        return OpCall(
            c.op,
            apply_value(sub, c.arg),
            c.bind,
            apply_vty(sub, c.bind_ty),
            apply_comp(sub, c.cont),
        )
    if isinstance(c, Do):
        return Do(c.var, apply_comp(sub, c.first), apply_comp(sub, c.rest))
    if isinstance(c, App):
        return App(apply_value(sub, c.fn), apply_value(sub, c.arg))
    if isinstance(c, LetVal):
        return LetVal(c.var, apply_value(sub, c.val), apply_comp(sub, c.body))
    if isinstance(c, CastC):
        return CastC(apply_comp(sub, c.comp), apply_cco(sub, c.co))
    raise TypeError(f"not a computation term: {c!r}")


def compose(s2: Substitution, s1: Substitution) -> Substitution:
    out = Substitution(
        {n: apply_skel(s2, s) for n, s in s1.skel.items()},
        {n: apply_dirt(s2, d) for n, d in s1.dirt.items()},
        {n: apply_vty(s2, t) for n, t in s1.ty.items()},
        {n: apply_dco(s2, g) for n, g in s1.dco.items()},
        {n: apply_vco(s2, g) for n, g in s1.vco.items()})
    for part, later in zip(out.maps(), s2.maps()):
        if later:
            for n, x in later.items():
                part.setdefault(n, x)
    return out
