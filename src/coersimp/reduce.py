"""Context reduction: rewrite a parameter context into canonical form.

Canonical form means:

* every type parameter is classified by a skeleton *parameter* (types whose
  skeleton is unit or a base are substituted away; arrow skeletons are split
  into fresh domain/codomain parameters and a fresh dirt),
* every type constraint relates two type parameters,
* every dirt constraint has a bare parameter on the left: `d <= O` or
  `d <= O + d'`.

The pass runs in three stages (types, type constraints, dirt constraints).
Each step appends its one-name move to one flat log (`map, name, image`);
the total, which maps the input context onto the canonical one and is
validity-checkable, is resolved once from that log (`subst.resolve`).
Stage 1 builds the image of each input type parameter while it expands the
parameter's skeleton, in pre-order, so stage 2 applies those images
without resolving the stage-1 moves first.

The dirt-constraint stage has one non-structural move: a constraint
`O1 <= O2 + d2` with `O1` not contained in `O2` forces `d2` to absorb the
missing operations. We substitute `d2 -> (O1 - O2) + d2'` with `d2'` fresh
and reprocess the triggering constraint, which then falls into a dropping
clause on the rerun, and every kept constraint whose lower tail was `d2`.
Other kept constraints would be kept unchanged by a rerun, so they are only
rewritten; rerunning the reopened ones in input order gives the kept order
and fresh names of a rerun of everything. (One circulating statement
of the corresponding keep-clause writes the kept tail as a primed parameter
even though no substitution introduces one there; the unprimed tail is the
reading that type-checks, and is what this code does.) Each absorption
permanently commits at least one new operation to a tail's lineage, so the
number of restarts is bounded by (#dirt parameters) x (#operations); the
bound is enforced and a violation raises `ReductionBug`.

Constraints that are already canonical keep their coercion parameter name
and record no mapping, so reduction is the identity on canonical contexts;
`reduce_context` returns such a context at once.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .check import both_extend, dirt_inclusion_coercion
from .subst import Substitution, apply, resolve
from .syntax import (
    CCoercion,
    DCoParam,
    Dirt,
    NO_OPS,
    NameSupply,
    ParamContext,
    Signature,
    SkelArrow,
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
)


class Unsatisfiable(Exception):
    """The constraint set admits no instantiation; reduction rejects it."""


class ReductionBug(Exception):
    """Internal invariant violation (fuel exhaustion)."""


@dataclass
class ReductionResult:
    context: ParamContext
    subst: Substitution


def is_canonical(ctx: ParamContext) -> bool:
    for _, skel in ctx.ty_params:
        if not isinstance(skel, SkelParam):
            return False
    for _, lo, hi in ctx.ty_cos:
        if not (isinstance(lo, TyParam) and isinstance(hi, TyParam)):
            return False
    for _, lo, hi in ctx.dirt_cos:
        if lo.tail is None or lo.ops:
            return False
    return True


def _phi_t(ctx: ParamContext, supply: NameSupply, log: list):
    """Stage 1: canonicalize type parameter classifiers. Also returns the
    stage-1 image of each input type parameter that is not kept."""
    kept, new_dirts = [], list(ctx.dirt_params)
    images = {name: image for name, skel in ctx.ty_params
              if (image := _expand(name, skel, supply, log, kept, new_dirts)) is not None}
    return kept, tuple(new_dirts), images


def _expand(name: str, skel, supply: NameSupply, log: list, kept: list, new_dirts: list):
    """Log the stage-1 move of `name`, then those of its fresh parameters,
    in pre-order, and return its stage-1 image (None: `name` is kept)."""
    if isinstance(skel, SkelParam):
        kept.append((name, skel))
        return None
    if isinstance(skel, SkelArrow):
        a1, a2, d = supply.fresh("a"), supply.fresh("a"), supply.fresh("d")
        new_dirts.append(d)
        step = TyArrow(TyParam(a1), CompType(TyParam(a2), Dirt(NO_OPS, d)))
        log += "ty", name, step
        dom = _expand(a1, skel.dom, supply, log, kept, new_dirts)
        cod = _expand(a2, skel.cod, supply, log, kept, new_dirts)
        if dom is None and cod is None:
            return step
        return TyArrow(step.dom if dom is None else dom,
                       CompType(step.cod.ty if cod is None else cod, step.cod.dirt))
    if isinstance(skel, SkelUnit):
        image = TyUnit()
    else:
        image = TyBase(skel.name)
    log += "ty", name, image
    return image


def _phi_tc(ty_cos, supply: NameSupply, log: list, dirt_cos):
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
            log += "vco", name, VCoReflUnit()
        elif isinstance(lo, TyBase) and isinstance(hi, TyBase) and lo.name == hi.name:
            log += "vco", name, VCoReflBase(lo.name)
        elif isinstance(lo, TyArrow) and isinstance(hi, TyArrow):
            w1, w2, p = supply.fresh("w"), supply.fresh("w"), supply.fresh("p")
            image = VCoArrow(VCoParam(w1), CCoercion(VCoParam(w2), DCoParam(p)))
            log += "vco", name, image
            out_dirt_cos.append((p, lo.cod.dirt, hi.cod.dirt))
            # Argument side flips: w1 : hi.dom <= lo.dom.
            queue.appendleft((w2, lo.cod.ty, hi.cod.ty))
            queue.appendleft((w1, hi.dom, lo.dom))
        else:
            raise Unsatisfiable(f"type constraint {name}: {lo} <= {hi}")
    return kept, out_dirt_cos


def _phi_dc(sig: Signature, dirt_cos, dirt_params, supply: NameSupply, log: list):
    """Stage 3: canonicalize dirt constraints, absorbing forced operations.

    `rows[i]` is the constraint at input position `i` as it stands now, or
    `None` once dropped. Positions below `nxt` have been processed: they are
    kept, dropped, or reopened by an absorption and waiting in `reopened`,
    and each is processed again before any later position. A position may
    wait twice; processing a kept constraint again keeps it unchanged.

    No popped position was dropped: only a constraint with a closed lower
    dirt is dropped, and one waits only as the trigger of its own
    absorption, so it is dropped, if at all, after it is popped."""
    dparams = list(dirt_params)
    max_restarts = len(dparams) * max(1, len(sig.ops)) + 1
    restarts = 0
    rows: list[tuple[str, Dirt, Dirt] | None] = list(dirt_cos)
    reopened: list[int] = []  # a heap of positions
    nxt = 0
    by_tail = None  # dirt parameter -> positions of rows that mention it
    while reopened or nxt < len(rows):
        if reopened:
            pos = heapq.heappop(reopened)
        else:
            pos, nxt = nxt, nxt + 1
        name, lo, hi = rows[pos]
        o1, d1 = lo.ops, lo.tail
        o2, d2 = hi.ops, hi.tail
        if o1 <= o2:
            if d1 is None:
                # Left side closed: the constraint holds outright; record the
                # inclusion witness and drop it.
                log += "dco", name, dirt_inclusion_coercion(lo, hi)
                rows[pos] = None
            elif o1:
                # Keep the less restrictive residual d1 <= O2 (+ d2): `O1`
                # is in `O2`, so `d1` may carry any of it.
                p = supply.fresh("p")
                rows[pos] = (p, Dirt(NO_OPS, d1), hi)
                log += "dco", name, both_extend(o1, DCoParam(p))
            continue
        if d2 is None:
            raise Unsatisfiable(f"dirt constraint {name}: {lo} <= {hi}")
        # The tail must absorb the missing operations; substitute, and
        # reprocess this constraint and the kept ones it reopens.
        restarts += 1
        if restarts > max_restarts:
            raise ReductionBug("absorption did not terminate within its bound")
        if by_tail is None:
            by_tail, dpos = {}, {d: i for i, d in enumerate(dparams)}
            for i, row in enumerate(rows):
                for tail in (row[1].tail, row[2].tail) if row else ():
                    by_tail.setdefault(tail, set()).add(i)
        fresh = supply.fresh("d")
        image = Dirt(o1 - o2, fresh)
        log += "dirt", d2, image
        dparams[dpos[d2]] = fresh
        dpos[fresh] = dpos.pop(d2)
        touched = by_tail.pop(d2)
        for i in touched:
            if rows[i] is not None:
                n, l, h = rows[i]
                rows[i] = (n, _absorbed(l, d2, image), _absorbed(h, d2, image))
                if i < nxt and l.tail == d2:
                    heapq.heappush(reopened, i)
        heapq.heappush(reopened, pos)
        by_tail[fresh] = touched
    kept = [row for row in rows if row is not None]
    return kept, tuple(dparams)


def _absorbed(d: Dirt, tail: str, image: Dirt) -> Dirt:
    """`d` after the absorption move `tail -> image`."""
    if d.tail != tail:
        return d
    return Dirt(d.ops | image.ops, image.tail) if d.ops else image


def reduce_context(sig: Signature, ctx: ParamContext, supply: NameSupply | None = None) -> ReductionResult:
    """Run the full reduction and return the canonical context with the
    substitution into it."""
    if is_canonical(ctx):
        return ReductionResult(context=ctx, subst=Substitution())
    if supply is None:
        supply = NameSupply.seeded(ctx)
    log: list = []  # the moves, as `subst.resolve` reads them
    ty_params, dirt_params, images = _phi_t(ctx, supply, log)
    sub_t = Substitution(ty=images)
    ty_cos_in = [
        (n, apply(sub_t, lo), apply(sub_t, hi)) for n, lo, hi in ctx.ty_cos
    ]
    ty_cos, dirt_cos_in = _phi_tc(ty_cos_in, supply, log, ctx.dirt_cos)
    dirt_cos, dirt_params = _phi_dc(sig, dirt_cos_in, dirt_params, supply, log)
    out = ParamContext(
        skel_params=ctx.skel_params,
        dirt_params=dirt_params,
        ty_params=tuple(ty_params),
        dirt_cos=tuple(dirt_cos),
        ty_cos=tuple(ty_cos),
    )
    return ReductionResult(context=out, subst=resolve(log))
