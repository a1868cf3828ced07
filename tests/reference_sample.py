"""Ground instantiation sampling as it was before worklist repair, kept as a
test-only differential oracle.

Both repairs sweep every constraint in order, again and again, until a
sweep changes nothing, and the inclusion coercions are built after the
last sweep. `tests/test_sample.py` checks that `coersimp.sample.sample_eta`
returns an equal `Substitution`, or raises the same `SampleError`, on the
same draws.
"""

from __future__ import annotations

import random

from coersimp.check import (
    NoWitness,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
)
from coersimp.sample import (
    SampleError,
    _ground_of_skeleton,
    _join_vty,
    _sample_dirt,
    _sample_skeleton,
    buried_params,
    forced_dirt_content,
)
from coersimp.subst import (Substitution, apply as apply_skel, apply as apply_vty, apply_dirt,
                             check_validity)
from coersimp.syntax import (
    Dirt,
    EMPTY_CONTEXT,
    ParamContext,
    Signature,
    TyParam,
    ValueTerm,
    ValueType,
)


def sample_eta_reference(
    sig: Signature,
    ctx: ParamContext,
    rng: random.Random,
    enumerable: bool = False,
    poltype: ValueType | None = None,
    term: ValueTerm | None = None,
    strict: bool = False,
) -> Substitution:
    """One ground instantiation of `ctx`, validated before returning."""
    enumerable = enumerable or strict
    ops = sorted(sig.names())
    if strict:
        pinned = set(ctx.dirt_params) | {n for n, _ in ctx.ty_params}
    elif enumerable:
        pinned = buried_params(poltype, term)
    else:
        pinned = set()

    sub = Substitution()
    for s in ctx.skel_params:
        sub.skel[s] = _sample_skeleton(rng, enumerable)
    least = forced_dirt_content(ctx)
    for d in ctx.dirt_params:
        extra = _sample_dirt(rng, ops, d in pinned, {})
        sub.dirt[d] = Dirt(least[d] | extra.ops, None)

    # Repair dirt inclusions by shrinking lower tails. Forced content never
    # goes missing (the upper side carries it by construction), so each
    # pass only strips random noise and the loop terminates.
    for _ in range(len(ctx.dirt_params) * max(1, len(ops)) + 2):
        settled = True
        for name, lo, hi in ctx.dirt_cos:
            glo = apply_dirt(sub, lo)
            ghi = apply_dirt(sub, hi)
            missing = glo.ops - ghi.ops
            if not missing:
                continue
            settled = False
            if lo.tail is None or not missing <= sub.dirt[lo.tail].ops:
                raise SampleError(f"cannot satisfy {name}: {lo} <= {hi}")
            sub.dirt[lo.tail] = Dirt(sub.dirt[lo.tail].ops - missing, None)
        if settled:
            break
    else:
        raise SampleError("dirt repair did not converge")

    for name, skel in ctx.ty_params:
        gskel = apply_skel(sub, skel)
        sub.ty[name] = _ground_of_skeleton(gskel, rng, ops, name in pinned, {})

    # Repair type inclusions by raising the upper image to its join with
    # the lower one. Joins only climb a finite lattice, so this settles.
    for _ in range(64):
        settled = True
        for _, lo, hi in ctx.ty_cos:
            try:
                value_inclusion_coercion(apply_vty(sub, lo), apply_vty(sub, hi))
            except NoWitness:
                if not isinstance(hi, TyParam):
                    raise SampleError(f"cannot satisfy {lo} <= {hi}")
                sub.ty[hi.name] = _join_vty(apply_vty(sub, lo), apply_vty(sub, hi), {})
                settled = False
        if settled:
            break
    else:
        raise SampleError("type repair did not converge")

    for name, lo, hi in ctx.dirt_cos:
        sub.dco[name] = dirt_inclusion_coercion(apply_dirt(sub, lo), apply_dirt(sub, hi))
    for name, lo, hi in ctx.ty_cos:
        sub.vco[name] = value_inclusion_coercion(apply_vty(sub, lo), apply_vty(sub, hi))

    check_validity(sig, ctx, sub, EMPTY_CONTEXT)
    return sub
