"""Context reduction as it was before deltas and local restarts, kept as a
test-only differential oracle.

Every stage composes each step's substitution into the whole substitution
built so far, and every absorption requeues and rewrites every dirt
constraint. It is slow but simple; `tests/test_reduce.py` checks that
`coersimp.reduce.reduce_context` gives the same canonical context and the
same substitution.
"""

from __future__ import annotations

from collections import deque

from coersimp.check import dirt_inclusion_coercion
from coersimp.reduce import ReductionBug, ReductionResult, Unsatisfiable
from coersimp.subst import Substitution, apply_dirt, apply as apply_vty, compose
from coersimp.syntax import (
    CCoercion,
    DCoParam,
    DCoUnionBoth,
    Dirt,
    NameSupply,
    ParamContext,
    Signature,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    VCoArrow,
    VCoParam,
    VCoReflBase,
    VCoReflUnit,
    ValueType,
    CompType,
    dirt,
)


def _both_ext(ops: frozenset[str], body):
    for op in reversed(sorted(ops)):
        body = DCoUnionBoth(op, body)
    return body


def _phi_t(ctx: ParamContext, supply: NameSupply):
    """Stage 1: canonicalize type parameter classifiers."""
    sub = Substitution()
    kept: list[tuple[str, SkelParam]] = []
    new_dirts: list[str] = list(ctx.dirt_params)
    queue = deque(ctx.ty_params)
    while queue:
        name, skel = queue.popleft()
        if isinstance(skel, SkelParam):
            kept.append((name, skel))
        elif isinstance(skel, SkelUnit):
            sub = compose(Substitution(ty={name: TyUnit()}), sub)
        elif isinstance(skel, SkelBase):
            sub = compose(Substitution(ty={name: TyBase(skel.name)}), sub)
        elif isinstance(skel, SkelArrow):
            a1 = supply.fresh("a")
            a2 = supply.fresh("a")
            d = supply.fresh("d")
            new_dirts.append(d)
            image = TyArrow(TyParam(a1), CompType(TyParam(a2), dirt((), d)))
            sub = compose(Substitution(ty={name: image}), sub)
            queue.appendleft((a2, skel.cod))
            queue.appendleft((a1, skel.dom))
        else:
            raise TypeError(f"not a skeleton: {skel!r}")
    return kept, tuple(new_dirts), sub


def _phi_tc(ty_cos, supply: NameSupply, sub: Substitution, dirt_cos):
    """Stage 2: decompose type constraints down to parameter pairs.

    `ty_cos` must already have the stage-1 substitution applied; the fresh
    dirt constraints produced by arrow splitting are appended to `dirt_cos`.
    """
    kept: list[tuple[str, ValueType, ValueType]] = []
    out_dirt_cos = list(dirt_cos)
    queue = deque(ty_cos)
    while queue:
        name, lo, hi = queue.popleft()
        if isinstance(lo, TyParam) and isinstance(hi, TyParam):
            kept.append((name, lo, hi))
        elif isinstance(lo, TyUnit) and isinstance(hi, TyUnit):
            sub = compose(Substitution(vco={name: VCoReflUnit()}), sub)
        elif isinstance(lo, TyBase) and isinstance(hi, TyBase) and lo.name == hi.name:
            sub = compose(Substitution(vco={name: VCoReflBase(lo.name)}), sub)
        elif isinstance(lo, TyArrow) and isinstance(hi, TyArrow):
            w1 = supply.fresh("w")
            w2 = supply.fresh("w")
            p = supply.fresh("p")
            image = VCoArrow(VCoParam(w1), CCoercion(VCoParam(w2), DCoParam(p)))
            sub = compose(Substitution(vco={name: image}), sub)
            out_dirt_cos.append((p, lo.cod.dirt, hi.cod.dirt))
            # Argument side flips: w1 : hi.dom <= lo.dom.
            queue.appendleft((w2, lo.cod.ty, hi.cod.ty))
            queue.appendleft((w1, hi.dom, lo.dom))
        else:
            raise Unsatisfiable(f"type constraint {name}: {lo} <= {hi}")
    return kept, out_dirt_cos, sub


def _phi_dc(sig: Signature, dirt_cos, dirt_params, supply: NameSupply, sub: Substitution):
    """Stage 3: canonicalize dirt constraints, absorbing forced operations."""
    dparams = list(dirt_params)
    max_restarts = len(dparams) * max(1, len(sig.ops)) + 1
    restarts = 0
    kept: list[tuple[str, Dirt, Dirt]] = []
    queue = deque(dirt_cos)
    while queue:
        name, lo, hi = queue.popleft()
        o1, d1 = lo.ops, lo.tail
        o2, d2 = hi.ops, hi.tail
        if o1 <= o2:
            if d1 is None:
                # Left side closed: the constraint holds outright; record the
                # inclusion witness and drop it.
                sub = compose(
                    Substitution(dco={name: dirt_inclusion_coercion(lo, hi)}), sub
                )
            else:
                # Keep the less restrictive residual d1 <= O2 (+ d2).
                if not o1:
                    kept.append((name, lo, hi))
                else:
                    p = supply.fresh("p")
                    kept.append((p, dirt((), d1), hi))
                    sub = compose(
                        Substitution(dco={name: _both_ext(o1, DCoParam(p))}), sub
                    )
        else:
            if d2 is None:
                raise Unsatisfiable(f"dirt constraint {name}: {lo} <= {hi}")
            # The tail must absorb the missing operations; substitute and
            # reprocess everything, this constraint included.
            restarts += 1
            if restarts > max_restarts:
                raise ReductionBug("absorption did not terminate within its bound")
            fresh = supply.fresh("d")
            absorb = Substitution(dirt={d2: Dirt(o1 - o2, fresh)})
            dparams[dparams.index(d2)] = fresh
            requeue = list(kept) + [(name, lo, hi)] + list(queue)
            kept = []
            queue = deque(
                (n, apply_dirt(absorb, l), apply_dirt(absorb, h)) for n, l, h in requeue
            )
            sub = compose(absorb, sub)
    return kept, tuple(dparams), sub


def reference_reduce_context(sig: Signature, ctx: ParamContext, supply: NameSupply | None = None) -> ReductionResult:
    """Run the full reduction and return the canonical context with the
    substitution into it."""
    if supply is None:
        supply = NameSupply.seeded(ctx)
    ty_params, dirt_params, sub_t = _phi_t(ctx, supply)
    ty_cos_in = [
        (n, apply_vty(sub_t, lo), apply_vty(sub_t, hi)) for n, lo, hi in ctx.ty_cos
    ]
    ty_cos, dirt_cos_in, sub_tc = _phi_tc(ty_cos_in, supply, sub_t, ctx.dirt_cos)
    dirt_cos, dirt_params, sub_dc = _phi_dc(
        sig, dirt_cos_in, dirt_params, supply, sub_tc
    )
    out = ParamContext(
        skel_params=ctx.skel_params,
        dirt_params=dirt_params,
        ty_params=tuple(ty_params),
        dirt_cos=tuple(dirt_cos),
        ty_cos=tuple(ty_cos),
    )
    return ReductionResult(context=out, subst=sub_dc)
