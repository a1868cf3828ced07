"""Random ground instantiations of well-formed contexts.

Dirt parameters are seeded at or above their forced content (the least
fixpoint pushed up by concrete operations on lower bounds) plus random
noise, then repaired by shrinking lower tails only; shrinking is monotone,
so the repair always lands on a valid assignment. Type upper bounds are
raised to their join with the lower bound when no inclusion coercion
exists. The draw's validity check then grounds it
(`ValidityCheck.ground`): each constraint name gets the inclusion
coercion between its bounds' final images, and the draw is checked.

A draw builds every image in its signature's intern table
(`Signature.interned`, `syntax.intern`), so equal images are one object.
The dirt repair runs on operation sets and interns each dirt once, when it
has settled. The type repair asks the signature's inclusion table, by the
identities of two images, whether a coercion exists
(`check.interned_inclusion`); the table decides each pair once and
remembers a missing coercion too, so an examination costs one lookup.
Grounding takes each constraint's coercion from the same table, so a
draw's coercions are a function of its images.

A `Sampler` prepares once what every draw of one context reads: the
forced content, the pinned parameters of each mode, the repairs' watcher
maps and the validity check of a draw. `verify` makes one per run and
draws every sample from it; `sample_eta` is one draw of a fresh one.

Both repairs run on a worklist (`_settle`): a repair re-examines only the
constraints that the parameter it changed may have unsettled, and reaches
each of them where an in-order sweep of all constraints, repeated until
one changed nothing, would have reached it. The repairs, and so the
samples, are those of the sweeps, at a cost of the changes made rather
than of the passes times the context. Neither repair has a pass bound:
each change strictly shrinks a finite dirt set or strictly raises a type
in a finite lattice.

An `enumerable` sample additionally keeps the carriers demanded by a term
evaluation finite: skeleton parameters become first-order shapes and every
dirt parameter occurring inside a function argument position (where lambda
tables force enumeration) is pinned to its forced content, usually empty.
The pinning is conservative; callers still catch `DomainTooLarge` and
retry with `strict=True`, which pins every parameter.
"""

from __future__ import annotations

import heapq
import random

from .check import interned_inclusion
from .subst import Substitution, ValidityCheck, apply
from .syntax import (
    CompTerm,
    CompType,
    Dirt,
    EMPTY_CONTEXT,
    Lam,
    ParamContext,
    Signature,
    SkelArrow,
    SkelBase,
    SkelUnit,
    Skeleton,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    ValueTerm,
    ValueType,
    closed_dirt,
    intern,
    leaf,
    node,
)


class SampleError(Exception):
    pass


def _walk_domains(t: ValueType, acc: set[str], in_dom: bool) -> None:
    """Add to `acc` the parameters of `t` in a function argument; all of them if `in_dom`."""
    if isinstance(t, TyParam):
        if in_dom:
            acc.add(t.name)
    elif isinstance(t, TyArrow):
        _walk_domains(t.dom, acc, True)
        if in_dom and t.cod.dirt.tail is not None:
            acc.add(t.cod.dirt.tail)
        _walk_domains(t.cod.ty, acc, in_dom)


def _walk_term(t: ValueTerm | CompTerm, acc: set[str]) -> None:
    """Add to `acc` the parameters of every lambda annotation in `t`."""
    if isinstance(t, Lam):
        _walk_domains(t.ty, acc, True)  # the whole annotation gets enumerated
    for name in type(t).__match_args__:
        kid = getattr(t, name)
        if isinstance(kid, (ValueTerm, CompTerm)):
            _walk_term(kid, acc)


def buried_params(poltype: ValueType | None, term=None) -> set[str]:
    """Parameters whose instantiations must stay finitely enumerable."""
    acc: set[str] = set()
    if poltype is not None:
        _walk_domains(poltype, acc, False)
    if term is not None:
        _walk_term(term, acc)
    return acc


def _sample_skeleton(rng: random.Random, enumerable: bool) -> Skeleton:
    picks = ["unit", "bool", "bit"]
    if not enumerable:
        picks += ["arrow"]
    kind = rng.choice(picks)
    if kind == "unit":
        return SkelUnit()
    if kind == "arrow":
        return SkelArrow(SkelUnit(), SkelUnit())
    return SkelBase(kind)


def _sample_dirt(rng: random.Random, ops, pinned: bool, table: dict) -> Dirt:
    """A closed dirt of random operations, made in `table` (see
    `syntax.closed_dirt`)."""
    if pinned:
        return closed_dirt(table, frozenset())
    return closed_dirt(table, frozenset(op for op in ops if rng.random() < 0.4))


def forced_dirt_content(ctx: ParamContext) -> dict[str, frozenset]:
    """Least operations each dirt parameter must carry.

    Concrete operations on a lower bound propagate into open upper tails;
    iterating to a fixpoint yields the smallest solution of all the dirt
    constraints. A closed pair that cannot hold even there is
    unsatisfiable.
    """
    least = {d: frozenset() for d in ctx.dirt_params}
    changed = True
    while changed:
        changed = False
        for name, lo, hi in ctx.dirt_cos:
            req = lo.ops
            if lo.tail is not None:
                req = req | least[lo.tail]
            if hi.tail is not None:
                need = req - hi.ops
                if not need <= least[hi.tail]:
                    least[hi.tail] = least[hi.tail] | need
                    changed = True
            elif not req <= hi.ops:
                raise SampleError(f"unsatisfiable constraint {name}: {lo} <= {hi}")
    return least


def _join_vty(a: ValueType, b: ValueType, table: dict, up: bool = True) -> ValueType:
    """Least upper bound (`up`) or greatest lower bound of two ground types of one skeleton,
    made in `table` (see `syntax.node`); an arrow takes the other bound of its domains."""
    if a is b or a == b:
        return a
    if isinstance(a, TyArrow) and isinstance(b, TyArrow):
        ops = a.cod.dirt.ops | b.cod.dirt.ops if up else a.cod.dirt.ops & b.cod.dirt.ops
        return node(table, TyArrow, _join_vty(a.dom, b.dom, table, not up), node(
            table, CompType, _join_vty(a.cod.ty, b.cod.ty, table, up), closed_dirt(table, ops)))
    raise SampleError(f"no {'join' if up else 'meet'} of {a} and {b}")


def _ground_of_skeleton(s: Skeleton, rng: random.Random, ops, pinned: bool,
                        table: dict) -> ValueType:
    """A ground type of skeleton `s`, its dirts drawn, made in `table`."""
    if isinstance(s, SkelUnit):
        return leaf(table, TyUnit)
    if isinstance(s, SkelBase):
        return leaf(table, TyBase, s.name)
    if isinstance(s, SkelArrow):
        dom = _ground_of_skeleton(s.dom, rng, ops, pinned, table)
        cod = _ground_of_skeleton(s.cod, rng, ops, pinned, table)
        d = _sample_dirt(rng, ops, pinned, table)
        return node(table, TyArrow, dom, node(table, CompType, cod, d))
    raise SampleError(f"cannot ground skeleton {s}")


def _settle(count: int, repair, watchers: dict[str, list[int]]) -> None:
    """Repair constraints `0 .. count-1` to a fixpoint, in the order that
    in-order sweeps repeated until one changes nothing would repair them,
    but examining only constraints that may be unsettled.

    `repair(i)` examines constraint `i`, fixes it if needed and returns the
    parameter it changed, or None. `watchers[p]` lists the constraints a
    change of `p` may unsettle; every other constraint a sweep would find
    as it left it. A constraint unsettled by the repair of constraint `i`
    is examined later in the current sweep if it comes after `i`, else in
    the next one, as a sweep would reach it. The first sweep examines every
    constraint, so it runs in order and queues only for the next one.
    """
    later: set[int] = set()
    for i in range(count):
        changed = repair(i)
        if changed is not None:
            later.update(j for j in watchers.get(changed, ()) if j <= i)
    while later:
        sweep, queued, later = sorted(later), later, set()  # a sorted list is a heap
        while sweep:
            i = heapq.heappop(sweep)
            queued.discard(i)
            changed = repair(i)
            if changed is None:
                continue
            for j in watchers.get(changed, ()):
                if j <= i:
                    later.add(j)
                elif j not in queued:
                    queued.add(j)
                    heapq.heappush(sweep, j)


class Sampler:
    """Ground instantiations of `ctx`, one per `draw`.

    What depends only on the context is computed once, here: the operation
    list, the forced dirt content, the parameters pinned by an enumerable
    and by a strict draw, the constraints each repair's change may
    unsettle, and the check that a draw is valid. A draw reads these
    tables and never changes them. A context without any valid
    instantiation is not refused here: each draw draws its skeletons and
    then raises the `SampleError`, as `sample_eta` does.
    """

    def __init__(self, sig: Signature, ctx: ParamContext,
                 poltype: ValueType | None = None, term: ValueTerm | None = None):
        self.sig, self.ctx = sig, ctx
        self.ops = sorted(sig.names())
        try:
            self.least, self.unsat = forced_dirt_content(ctx), None
        except SampleError as exc:
            self.least, self.unsat = None, str(exc)
        self.buried = frozenset(buried_params(poltype, term))
        self.every = frozenset(ctx.dirt_params) | {n for n, _ in ctx.ty_params}
        # A dirt repair shrinks a lower tail, which may unsettle the
        # constraints with that tail above; a type repair raises an upper
        # parameter, which may unsettle every constraint that mentions it.
        self.uppers: dict[str, list[int]] = {}
        for i, (_, _, hi) in enumerate(ctx.dirt_cos):
            if hi.tail is not None:
                self.uppers.setdefault(hi.tail, []).append(i)
        self.mentions: dict[str, list[int]] = {}
        for i, (_, lo, hi) in enumerate(ctx.ty_cos):
            names: set[str] = set()
            _walk_domains(lo, names, True)
            _walk_domains(hi, names, True)
            for n in names:
                self.mentions.setdefault(n, []).append(i)
        shared: dict = {}  # equal classifiers of type parameters share one object
        self.ty_params = [(n, shared.setdefault(s, s)) for n, s in ctx.ty_params]
        self.valid = ValidityCheck(sig, ctx, EMPTY_CONTEXT)

    def draw(self, rng: random.Random, enumerable: bool = False,
             strict: bool = False) -> Substitution:
        """One ground instantiation, grounded and validated by the prepared
        check before returning. Every image is interned in `sig.interned`."""
        sig, ctx, ops, table = self.sig, self.ctx, self.ops, self.sig.interned
        enumerable = enumerable or strict
        pinned = self.every if strict else self.buried if enumerable else frozenset()

        sub = Substitution()
        for s in ctx.skel_params:
            sub.skel[s] = intern(table, _sample_skeleton(rng, enumerable))
        if self.unsat is not None:
            raise SampleError(self.unsat)
        least = self.least
        sets = {d: least[d] | _sample_dirt(rng, ops, d in pinned, table).ops
                for d in ctx.dirt_params}

        def ops_of(d: Dirt) -> frozenset:
            image = sets.get(d.tail)
            return d.ops if image is None else d.ops | image if d.ops else image

        # Repair dirt inclusions by shrinking lower tails: the lower tail keeps
        # only what the upper side carries. Forced content never goes missing
        # (the upper side carries it by construction), so a repair only strips
        # random noise, and only a shrunk upper tail can unsettle a constraint.
        def repair_dirt(i: int) -> str | None:
            name, lo, hi = ctx.dirt_cos[i]
            missing = ops_of(lo) - ops_of(hi)
            if not missing:
                return None
            if lo.tail is None or not missing <= sets[lo.tail]:
                raise SampleError(f"cannot satisfy {name}: {lo} <= {hi}")
            sets[lo.tail] -= missing
            return lo.tail

        _settle(len(ctx.dirt_cos), repair_dirt, self.uppers)
        for d, s in sets.items():
            sub.dirt[d] = closed_dirt(table, s)

        tys = sub.ty
        gskels: dict[int, Skeleton] = {}  # id(classifier) -> its image
        for name, skel in self.ty_params:
            gskel = gskels.get(id(skel))
            if gskel is None:
                gskel = gskels[id(skel)] = apply(sub, skel)
            tys[name] = _ground_of_skeleton(gskel, rng, ops, name in pinned, table)

        def image(t: ValueType) -> ValueType:
            if type(t) is TyParam:
                return tys.get(t.name) or intern(table, t)
            return intern(table, apply(sub, t))

        # Repair type inclusions by raising the upper image to its join with
        # the lower one. Joins only climb a finite lattice, so this settles.
        def repair_type(i: int) -> str | None:
            _, lo, hi = ctx.ty_cos[i]
            glo, ghi = image(lo), image(hi)
            if interned_inclusion(sig, glo, ghi) is not None:
                return None
            if not isinstance(hi, TyParam):
                raise SampleError(f"cannot satisfy {lo} <= {hi}")
            tys[hi.name] = _join_vty(glo, ghi, table)
            return hi.name

        _settle(len(ctx.ty_cos), repair_type, self.mentions)
        return self.valid.ground(sub)


def sample_eta(
    sig: Signature,
    ctx: ParamContext,
    rng: random.Random,
    enumerable: bool = False,
    poltype: ValueType | None = None,
    term: ValueTerm | None = None,
    strict: bool = False,
) -> Substitution:
    """One ground instantiation of `ctx`, validated before returning: one
    draw of a `Sampler` made for it."""
    return Sampler(sig, ctx, poltype, term).draw(rng, enumerable, strict)
