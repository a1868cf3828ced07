"""Well-formedness, coercion endpoint checking, and term typing.

The judgments here are all syntax-directed and total: each function either
returns the classifying object (a skeleton for types, an endpoint pair for
coercions, a type for terms) or raises a `CheckError` subclass.

Two conventions worth spelling out, both load-bearing for everything built
on top:

* The arrow coercion is contravariant on the argument side. If
  `cv : A <= A'` and `cc : C <= C'` then `(cv -> cc) : (A' -> C) <= (A -> C')`.
  (Some presentations of this rule circulate with the primes swapped in the
  conclusion; that version contradicts both the semantic reading of the
  coercion as a function-space injection and the way arrow constraints are
  decomposed during reduction, so it is not used here.)

* The admissible "empty below a dirt" coercion for a compound dirt is built
  by *right* extension over the tail: `empty({Op} u d)` is `{Op} u+ empty(d)`,
  with endpoints `{} <= {Op}+d`. Extending both sides instead would produce
  the wrong lower endpoint.
"""

from __future__ import annotations

from .syntax import (
    CCoercion,
    CompTerm,
    CompType,
    CastC,
    CastV,
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
    EMPTY_CONTEXT,
    App,
    Lam,
    LetVal,
    OpCall,
    ParamContext,
    Return,
    Signature,
    SkelArrow,
    SkelBase,
    SkelParam,
    SkelUnit,
    Skeleton,
    TyArrow,
    TyBase,
    TyParam,
    TyUnit,
    TypingContext,
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
    dirt,
    intern,
)


class CheckError(Exception):
    pass


class UnknownName(CheckError):
    pass


class IllFormed(CheckError):
    pass


class SkeletonMismatch(CheckError):
    pass


class EndpointMismatch(CheckError):
    pass


class TypeMismatch(CheckError):
    pass


class NoWitness(CheckError):
    """No canonical coercion exists between the requested endpoints."""


# ---------------------------------------------------------------------------
# Well-formedness

def wf_skeleton(ctx: ParamContext, s: Skeleton) -> None:
    if isinstance(s, SkelParam):
        if s.name not in ctx.skel_param_set:
            raise UnknownName(f"skeleton parameter {s.name} not in context")
    elif isinstance(s, (SkelUnit, SkelBase)):
        pass
    elif isinstance(s, SkelArrow):
        wf_skeleton(ctx, s.dom)
        wf_skeleton(ctx, s.cod)
    else:
        raise IllFormed(f"not a skeleton: {s!r}")


def wf_dirt(sig: Signature, ctx: ParamContext, d: Dirt) -> None:
    if not d.ops <= sig.name_set:
        for op in d.ops:
            if op not in sig:
                raise UnknownName(f"operation {op} not in signature")
    if d.tail is not None and d.tail not in ctx.dirt_param_set:
        raise UnknownName(f"dirt parameter {d.tail} not in context")


def wf_vtype(sig: Signature, ctx: ParamContext, t: ValueType) -> Skeleton:
    """Check well-formedness and return the type's skeleton."""
    if isinstance(t, TyParam):
        s = ctx.ty_param_skeleton(t.name)
        if s is None:
            raise UnknownName(f"type parameter {t.name} not in context")
        return s
    if isinstance(t, TyUnit):
        return SkelUnit()
    if isinstance(t, TyBase):
        return SkelBase(t.name)
    if isinstance(t, TyArrow):
        sd = wf_vtype(sig, ctx, t.dom)
        sc = wf_ctype(sig, ctx, t.cod)
        return SkelArrow(sd, sc)
    raise IllFormed(f"not a value type: {t!r}")


def wf_ctype(sig: Signature, ctx: ParamContext, c: CompType) -> Skeleton:
    s = wf_vtype(sig, ctx, c.ty)
    wf_dirt(sig, ctx, c.dirt)
    return s


def is_closed_vty(t: ValueType) -> bool:
    if isinstance(t, (TyUnit, TyBase)):
        return True
    if isinstance(t, TyParam):
        return False
    if isinstance(t, TyArrow):
        return (
            is_closed_vty(t.dom)
            and is_closed_vty(t.cod.ty)
            and t.cod.dirt.is_closed
        )
    raise IllFormed(f"not a value type: {t!r}")


def is_ground_vty(t: ValueType) -> bool:
    """Ground types: built from unit and bases only (no arrows, no params)."""
    return isinstance(t, (TyUnit, TyBase))


def wf_signature(sig: Signature) -> None:
    """Every entry type closed; every result type ground."""
    seen = set()
    for name, entry in sig.ops:
        if name in seen:
            raise IllFormed(f"duplicate operation {name}")
        seen.add(name)
        if not is_closed_vty(entry.arg):
            raise IllFormed(f"operation {name}: argument type not closed")
        if not is_ground_vty(entry.result):
            raise IllFormed(f"operation {name}: result type not ground")


def wf_context(sig: Signature, ctx: ParamContext) -> None:
    """Check the whole parameter context, in dependency order.

    Coercion classifiers must relate types of equal skeleton; dirt coercion
    classifiers just need two well-formed dirts.
    """
    seen: set[str] = set()

    def declare(name: str) -> None:
        if name in seen:
            raise IllFormed(f"duplicate parameter {name}")
        seen.add(name)

    for s in ctx.skel_params:
        declare(s)
    for d in ctx.dirt_params:
        declare(d)
    for name, skel in ctx.ty_params:
        declare(name)
        wf_skeleton(ctx, skel)
    for name, lo, hi in ctx.dirt_cos:
        declare(name)
        wf_dirt(sig, ctx, lo)
        wf_dirt(sig, ctx, hi)
    for name, lo, hi in ctx.ty_cos:
        declare(name)
        slo = wf_vtype(sig, ctx, lo)
        shi = wf_vtype(sig, ctx, hi)
        if slo != shi:
            raise SkeletonMismatch(
                f"coercion parameter {name} relates skeletons {slo} and {shi}"
            )


# ---------------------------------------------------------------------------
# Coercion endpoints

_PURE = dirt()
_UNIT = TyUnit()


def _flat(g) -> bool:
    """Whether a coercion has no composition in it."""
    while isinstance(g, (DCoUnionBoth, DCoUnionRight)):
        g = g.body
    if isinstance(g, VCoArrow):
        return _flat(g.arg) and _flat(g.res.vco) and _flat(g.res.dco)
    return not isinstance(g, (VCoCompose, DCoCompose))


def _remembered(derive, sig: Signature, g):
    """`derive(sig, EMPTY_CONTEXT, g)`, derived once per signature.

    Against the empty context a coercion's endpoints depend only on the
    signature and the coercion, so `sig.ground_checks` keeps them and a
    repeated check returns the endpoints the first one derived. A failed
    check is not remembered.

    Only compound coercions without a composition in them are remembered:
    a leaf costs less to check than to look up, and comparing two witness
    families, which nest one composition per phase step, recurses as deep
    as they go. A composition's links are checked through the memo, one by
    one."""
    if not isinstance(g, (DCoUnionBoth, DCoUnionRight, VCoArrow)) or not _flat(g):
        return derive(sig, EMPTY_CONTEXT, g)
    memo = sig.ground_checks
    got = memo.get(g)
    if got is None:
        got = memo[g] = derive(sig, EMPTY_CONTEXT, g)
    return got


def check_dco(sig: Signature, ctx: ParamContext, g: DCoercion) -> tuple[Dirt, Dirt]:
    if ctx is EMPTY_CONTEXT:
        return _remembered(_derive_dco, sig, g)
    return _derive_dco(sig, ctx, g)


def check_vco(sig: Signature, ctx: ParamContext, g: VCoercion) -> tuple[ValueType, ValueType]:
    if ctx is EMPTY_CONTEXT:
        return _remembered(_derive_vco, sig, g)
    return _derive_vco(sig, ctx, g)


def _derive_dco(sig: Signature, ctx: ParamContext, g: DCoercion) -> tuple[Dirt, Dirt]:
    if isinstance(g, DCoParam):
        cls = ctx.dirt_co_classifier(g.name)
        if cls is None:
            raise UnknownName(f"dirt coercion parameter {g.name} not in context")
        return cls
    if isinstance(g, DCoReflParam):
        if g.name not in ctx.dirt_param_set:
            raise UnknownName(f"dirt parameter {g.name} not in context")
        d = dirt((), g.name)
        return d, d
    if isinstance(g, DCoReflEmpty):
        return _PURE, _PURE
    if isinstance(g, DCoEmptyUnder):
        if g.tail not in ctx.dirt_param_set:
            raise UnknownName(f"dirt parameter {g.tail} not in context")
        return _PURE, dirt((), g.tail)
    if isinstance(g, DCoUnionBoth):
        if g.op not in sig:
            raise UnknownName(f"operation {g.op} not in signature")
        lo, hi = check_dco(sig, ctx, g.body)
        return lo.with_ops({g.op}), hi.with_ops({g.op})
    if isinstance(g, DCoUnionRight):
        if g.op not in sig:
            raise UnknownName(f"operation {g.op} not in signature")
        lo, hi = check_dco(sig, ctx, g.body)
        return lo, hi.with_ops({g.op})
    if isinstance(g, DCoCompose):
        return _check_chain(sig, ctx, g, DCoCompose, check_dco, "dirt")
    raise IllFormed(f"not a dirt coercion: {g!r}")


def _derive_vco(sig: Signature, ctx: ParamContext, g: VCoercion) -> tuple[ValueType, ValueType]:
    if isinstance(g, VCoParam):
        cls = ctx.ty_co_classifier(g.name)
        if cls is None:
            raise UnknownName(f"type coercion parameter {g.name} not in context")
        return cls
    if isinstance(g, VCoReflParam):
        if ctx.ty_param_skeleton(g.name) is None:
            raise UnknownName(f"type parameter {g.name} not in context")
        t = TyParam(g.name)
        return t, t
    if isinstance(g, VCoReflUnit):
        return _UNIT, _UNIT
    if isinstance(g, VCoReflBase):
        t = TyBase(g.name)
        return t, t
    if isinstance(g, VCoArrow):
        a, a2 = check_vco(sig, ctx, g.arg)
        c, c2 = check_cco(sig, ctx, g.res)
        return TyArrow(a2, c), TyArrow(a, c2)
    if isinstance(g, VCoCompose):
        return _check_chain(sig, ctx, g, VCoCompose, check_vco, "value")
    raise IllFormed(f"not a value coercion: {g!r}")


def _check_chain(sig: Signature, ctx: ParamContext, g, compose, check, what: str):
    """Endpoints of a tree of compositions: its links, in the order they
    apply, must meet end to start. The tree is walked with an explicit
    stack rather than by recursion, because a witness family nests one
    composition per phase step."""
    todo = [g.after, g.before]
    lo, hi = None, None
    while todo:
        node = todo.pop()
        if isinstance(node, compose):
            todo.append(node.after)
            todo.append(node.before)
            continue
        lo2, hi2 = check(sig, ctx, node)
        if hi is None:
            lo = lo2
        elif hi != lo2:
            raise EndpointMismatch(f"{what} coercion composition: {hi} vs {lo2}")
        hi = hi2
    return lo, hi


def check_cco(sig: Signature, ctx: ParamContext, g: CCoercion) -> tuple[CompType, CompType]:
    a1, a2 = check_vco(sig, ctx, g.vco)
    d1, d2 = check_dco(sig, ctx, g.dco)
    return CompType(a1, d1), CompType(a2, d2)


def vco_endpoint(g: VCoercion, upper: bool) -> ValueType:
    """One endpoint of a ground value coercion that checks, read off its
    spine without checking it: the source of the link that applies first,
    or the target of the one that applies last."""
    while isinstance(g, VCoCompose):
        g = g.after if upper else g.before
    if isinstance(g, VCoReflUnit):
        return TyUnit()
    if isinstance(g, VCoReflBase):
        return TyBase(g.name)
    if isinstance(g, VCoArrow):
        res = CompType(vco_endpoint(g.res.vco, upper), dco_endpoint(g.res.dco, upper))
        return TyArrow(vco_endpoint(g.arg, not upper), res)
    raise IllFormed(f"not a ground value coercion: {g!r}")


def dco_endpoint(g: DCoercion, upper: bool) -> Dirt:
    """`vco_endpoint` for a ground dirt coercion."""
    ops = set()
    while not isinstance(g, DCoReflEmpty):
        if isinstance(g, DCoCompose):
            g = g.after if upper else g.before
            continue
        if not isinstance(g, (DCoUnionBoth, DCoUnionRight)):
            raise IllFormed(f"not a ground dirt coercion: {g!r}")
        if upper or isinstance(g, DCoUnionBoth):
            ops.add(g.op)
        g = g.body
    return Dirt(frozenset(ops), None)


# ---------------------------------------------------------------------------
# Derived (admissible) coercions

def both_extend(ops, body: DCoercion) -> DCoercion:
    """Add the given operations to both endpoints of a dirt coercion."""
    for op in sorted(ops, reverse=True):
        body = DCoUnionBoth(op, body)
    return body


def right_extend(ops, body: DCoercion) -> DCoercion:
    """Add the given operations to the upper endpoint only."""
    for op in sorted(ops, reverse=True):
        body = DCoUnionRight(op, body)
    return body


def derived_empty(d: Dirt) -> DCoercion:
    """The admissible coercion `{} <= d`, built by right extension."""
    return right_extend(d.ops, DCoReflEmpty() if d.tail is None else DCoEmptyUnder(d.tail))


def derived_refl_dirt(d: Dirt) -> DCoercion:
    return both_extend(d.ops, DCoReflEmpty() if d.tail is None else DCoReflParam(d.tail))


def derived_refl_vty(t: ValueType) -> VCoercion:
    if isinstance(t, TyParam):
        return VCoReflParam(t.name)
    if isinstance(t, TyUnit):
        return VCoReflUnit()
    if isinstance(t, TyBase):
        return VCoReflBase(t.name)
    if isinstance(t, TyArrow):
        return VCoArrow(derived_refl_vty(t.dom), derived_refl_cty(t.cod))
    raise IllFormed(f"not a value type: {t!r}")


def derived_refl_cty(c: CompType) -> CCoercion:
    return CCoercion(derived_refl_vty(c.ty), derived_refl_dirt(c.dirt))


# ---------------------------------------------------------------------------
# Canonical inclusion witnesses
#
# These decide derivable subtyping and produce the witness, for the shapes
# the simplifier needs: dirt inclusions that only add operations, and closed
# value types. There is deliberately no rule placing an operation "under" a
# tail parameter, so {Op} <= d has no witness even though some instantiation
# of d may contain Op.

def dirt_inclusion_coercion(lo: Dirt, hi: Dirt) -> DCoercion:
    if lo.tail is not None and lo.tail != hi.tail:
        raise NoWitness(f"no dirt coercion {lo} <= {hi}")
    if not lo.ops <= hi.ops:
        raise NoWitness(f"no dirt coercion {lo} <= {hi}")
    if lo.tail == hi.tail:
        body = right_extend(hi.ops - lo.ops, derived_refl_dirt(Dirt(frozenset(), lo.tail)))
    else:
        # lo is closed, hi has a tail.
        body = derived_empty(Dirt(hi.ops - lo.ops, hi.tail))
    return both_extend(lo.ops, body)


def value_inclusion_coercion(lo: ValueType, hi: ValueType) -> VCoercion:
    """Witness `lo <= hi` for closed types (and identical parameters)."""
    if lo == hi:
        return derived_refl_vty(lo)
    if isinstance(lo, TyArrow) and isinstance(hi, TyArrow):
        arg = value_inclusion_coercion(hi.dom, lo.dom)
        res_v = value_inclusion_coercion(lo.cod.ty, hi.cod.ty)
        res_d = dirt_inclusion_coercion(lo.cod.dirt, hi.cod.dirt)
        return VCoArrow(arg, CCoercion(res_v, res_d))
    raise NoWitness(f"no value coercion {lo} <= {hi}")


def interned_inclusion(sig: Signature, lo: Dirt | ValueType,
                       hi: Dirt | ValueType) -> DCoercion | VCoercion | None:
    """The canonical inclusion coercion `lo <= hi` between two closed dirts
    or two value types interned in `sig.interned`, or None where there is
    none.

    `sig.ground_inclusions` keeps the answer for each pair, by the two
    identities, so each pair is decided once per signature and a repeated
    request costs one lookup: the same coercion, interned too, or None.
    Where there is none, `dirt_inclusion_coercion` or
    `value_inclusion_coercion` raises `NoWitness` with its own message."""
    memo = sig.ground_inclusions
    key = (id(lo), id(hi))
    try:
        return memo[key]
    except KeyError:
        pass
    build = dirt_inclusion_coercion if isinstance(lo, Dirt) else value_inclusion_coercion
    try:
        got = intern(sig.interned, build(lo, hi))
    except NoWitness:
        got = None
    memo[key] = got
    return got


# ---------------------------------------------------------------------------
# Term typing

def _lookup(tyctx: TypingContext, x: str) -> ValueType:
    for name, t in reversed(tyctx):
        if name == x:
            return t
    raise UnknownName(f"unbound variable {x}")


def type_of_value(
    sig: Signature, ctx: ParamContext, tyctx: TypingContext, v: ValueTerm
) -> ValueType:
    if isinstance(v, Var):
        return _lookup(tyctx, v.name)
    if isinstance(v, UnitVal):
        return TyUnit()
    if isinstance(v, Lam):
        wf_vtype(sig, ctx, v.ty)
        c = type_of_comp(sig, ctx, tyctx + ((v.var, v.ty),), v.body)
        return TyArrow(v.ty, c)
    if isinstance(v, CastV):
        a = type_of_value(sig, ctx, tyctx, v.val)
        lo, hi = check_vco(sig, ctx, v.co)
        if a != lo:
            raise TypeMismatch(f"cast source {lo} but value has type {a}")
        return hi
    raise IllFormed(f"not a value term: {v!r}")


def type_of_comp(
    sig: Signature, ctx: ParamContext, tyctx: TypingContext, c: CompTerm
) -> CompType:
    if isinstance(c, Return):
        return CompType(type_of_value(sig, ctx, tyctx, c.val), dirt())
    if isinstance(c, OpCall):
        entry = sig.get(c.op)
        if entry is None:
            raise UnknownName(f"operation {c.op} not in signature")
        a = type_of_value(sig, ctx, tyctx, c.arg)
        if a != entry.arg:
            raise TypeMismatch(
                f"operation {c.op} expects {entry.arg}, argument has {a}"
            )
        if c.bind_ty != entry.result:
            raise TypeMismatch(
                f"operation {c.op} binds {entry.result}, annotation says {c.bind_ty}"
            )
        body = type_of_comp(sig, ctx, tyctx + ((c.bind, entry.result),), c.cont)
        if c.op not in body.dirt.ops:
            raise TypeMismatch(
                f"operation {c.op} not covered by the continuation dirt {body.dirt}"
            )
        return body
    if isinstance(c, Do):
        first = type_of_comp(sig, ctx, tyctx, c.first)
        rest = type_of_comp(sig, ctx, tyctx + ((c.var, first.ty),), c.rest)
        if rest.dirt != first.dirt:
            raise TypeMismatch(
                f"do branches have dirts {first.dirt} and {rest.dirt}"
            )
        return rest
    if isinstance(c, App):
        f = type_of_value(sig, ctx, tyctx, c.fn)
        if not isinstance(f, TyArrow):
            raise TypeMismatch(f"application head has non-arrow type {f}")
        a = type_of_value(sig, ctx, tyctx, c.arg)
        if a != f.dom:
            raise TypeMismatch(f"function expects {f.dom}, argument has {a}")
        return f.cod
    if isinstance(c, LetVal):
        a = type_of_value(sig, ctx, tyctx, c.val)
        return type_of_comp(sig, ctx, tyctx + ((c.var, a),), c.body)
    if isinstance(c, CastC):
        got = type_of_comp(sig, ctx, tyctx, c.comp)
        lo, hi = check_cco(sig, ctx, c.co)
        if got != lo:
            raise TypeMismatch(f"cast source {lo} but computation has type {got}")
        return hi
    raise IllFormed(f"not a computation term: {c!r}")
