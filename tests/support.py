"""Helpers that only the tests need: the package itself never calls them."""

from __future__ import annotations

from coersimp.check import type_of_comp
from coersimp.semantics import (
    DEFAULT_BUDGET,
    ModelBug,
    enumerate_envs,
    equal_skel_tree,
    eval_comp,
    inject,
    skel_comp,
)
from coersimp.subst import Substitution
from coersimp.syntax import (
    EMPTY_CONTEXT,
    CompTerm,
    Dirt,
    OpSig,
    Signature,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    TypingContext,
    ValueType,
)


def signature(**ops: tuple[ValueType, ValueType]) -> Signature:
    return Signature(tuple((name, OpSig(a, b)) for name, (a, b) in ops.items()))


def identity() -> Substitution:
    return Substitution()


def move_log(steps) -> list:
    """The mappings of the substitutions `steps`, in order, as the flat log
    of `map, name, image` entries that `subst.resolve` reads, each step map
    by map."""
    return [item for step in steps for kind in ("skel", "dirt", "ty", "dco", "vco")
            for n, x in getattr(step, kind).items() for item in (kind, n, x)]


def check_square_comp(sig: Signature, tyctx: TypingContext, c: CompTerm,
                      budget: int = DEFAULT_BUDGET) -> None:
    """The commuting square of `semantics.check_square_value`, for a
    computation term: injecting its effectful meaning equals its skeletal
    meaning, at every environment."""
    ct = type_of_comp(sig, EMPTY_CONTEXT, tyctx, c)
    for env in enumerate_envs(sig, tyctx, budget):
        lhs = inject(eval_comp(sig, env, c, budget))
        rhs = skel_comp(sig, {n: inject(x) for n, x in env.items()}, c)
        if not equal_skel_tree(sig, ct.ty, lhs, rhs, budget):
            raise ModelBug(f"square failed for computation term at env {env!r}")


def alpha_equivalent(a: ValueType, b: ValueType) -> bool:
    """Structural equality of two value types up to a consistent renaming
    of type parameters and dirt parameters (base types match by name)."""

    fwd: dict[str, str] = {}
    bwd: dict[str, str] = {}

    def pair(x: str, y: str) -> bool:
        if fwd.get(x, y) != y or bwd.get(y, x) != x:
            return False
        fwd[x] = y
        bwd[y] = x
        return True

    def go_dirt(d1: Dirt, d2: Dirt) -> bool:
        if d1.ops != d2.ops:
            return False
        if (d1.tail is None) != (d2.tail is None):
            return False
        if d1.tail is None:
            return True
        return pair(d1.tail, d2.tail)

    def go(t1: ValueType, t2: ValueType) -> bool:
        if isinstance(t1, TyParam) and isinstance(t2, TyParam):
            return pair(t1.name, t2.name)
        if isinstance(t1, TyUnit) and isinstance(t2, TyUnit):
            return True
        if isinstance(t1, TyBase) and isinstance(t2, TyBase):
            return t1.name == t2.name
        if isinstance(t1, TyArrow) and isinstance(t2, TyArrow):
            return (
                go(t1.dom, t2.dom)
                and go(t1.cod.ty, t2.cod.ty)
                and go_dirt(t1.cod.dirt, t2.cod.dirt)
            )
        return False

    return go(a, b)
