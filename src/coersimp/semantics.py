"""A desk-scale denotational model used as a testing oracle.

Computations denote finite call trees: a leaf returns a value, a node names
an operation, its argument, and one subtree per possible result. A
computation typed with dirt `D` may only use operations from `D`, so the
trees of the empty dirt are bare leaves and carriers stay finite.

Every value type also has a skeletal (effect-erased) reading where all
operations are allowed. Function values are pairs: a finite table for the
effectful reading plus a lazy skeletal function. The two are linked by an
injection (take the skeletal half of a pair, inject tree leaves pointwise),
and evaluation commutes with it: injecting the result of the effectful
evaluator gives what the skeletal evaluator computes on the injected
environment. `check_square` tests exactly that.

Two representation choices keep this executable:

* Effectful values are immutable tables, so semantic equality is structural
  equality, with one twist: the skeletal half of a function pair is ignored
  by `==` because its observable content is already determined by the table.
* Skeletal functions are lazy memoized closures. With a non-empty signature
  their full graph is infinite (call trees have unbounded depth), so they
  are compared by probing at injected effectful arguments only: that is the
  fragment the commuting square constrains. `equal_skel_at` implements this
  type-directed comparison.

Coercions are checked once and then interpreted by their endpoints: every
leaf coercion is the identity on data, so a ground cast depends only on the
types it relates. `interp_vco`/`interp_cco` check theirs on entry and cast
between the checked endpoints, and the checks typecheck each term once,
before evaluating it (`check_preservation` takes the original's type and
meaning from its square check). Evaluation (`eval_value`, `eval_comp`)
assumes a well-typed term: it interprets a cast without re-checking it,
between the endpoints `vco_endpoint` reads off its composition spine.

Carriers are enumerated only where evaluation demands it (lambda tables and
operation continuations). Enumeration fails with `DomainTooLarge` when a
carrier is infinite (a non-empty dirt in a function argument) or exceeds the
budget; `verify` draws instantiations that keep the demanded carriers
small (`sample.Sampler.draw`), and retries smaller ones when they miss.

The model imports nothing from the pipeline it checks, only the checker
and the syntax: `check_preservation` takes closed ground terms and a
ground cast, which `cli.check_sample` builds.
"""

from __future__ import annotations

import itertools

from .check import (
    EndpointMismatch,
    check_cco,
    check_vco,
    type_of_value,
    vco_endpoint,
    wf_vtype,
)
from .syntax import (
    App,
    CastC,
    CastV,
    CCoercion,
    CompTerm,
    CompType,
    Do,
    EMPTY_CONTEXT,
    Lam,
    LetVal,
    OpCall,
    Return,
    Signature,
    Skeleton,
    SkelArrow,
    SkelBase,
    SkelUnit,
    TyArrow,
    TyBase,
    TyUnit,
    TypingContext,
    UnitVal,
    ValueType,
    ValueTerm,
    Var,
    VCoercion,
    value_class,
)


class DomainTooLarge(Exception):
    """A demanded carrier is infinite or exceeds the enumeration budget."""


class ModelBug(Exception):
    """An evaluation invariant failed; indicates a defect upstream."""


DEFAULT_BUDGET = 4096

# Fixed small carriers for base types; unknown bases fall back to two
# symbolic elements so any signature stays runnable.
BASE_CARRIERS = {
    "bool": (False, True),
    "bit": (0, 1),
    "int": (0, 1, 2),
}


def base_carrier(name: str) -> tuple:
    return BASE_CARRIERS.get(name, (name + ":0", name + ":1"))


# ---------------------------------------------------------------------------
# Values

@value_class
class TreeReturn:
    value: object


@value_class
class TreeOp:
    op: str
    arg: object
    cont: tuple  # ((result, tree), ...) in carrier order


class SkelFn:
    """Lazy skeletal function; memoized, compared by identity.

    Extensional comparison happens in `equal_skel_at`, which probes at the
    injected elements of an effectful carrier.
    """

    __slots__ = ("fn", "memo")

    def __init__(self, fn):
        self.fn = fn
        self.memo = {}

    def call(self, u):
        if u not in self.memo:
            self.memo[u] = self.fn(u)
        return self.memo[u]

    def __repr__(self):
        return f"<skelfn {id(self):#x}>"


class EffFn:
    """Function value: effectful table plus its skeletal half.

    When the domain carrier is enumerable the table is explicit, and equality
    compares tables only; on the injected arguments the skeletal half carries
    no extra information. A function whose domain is too large to tabulate
    (a strengthened annotation can put operations into a domain dirt) is kept
    as a closure instead: it can still be applied, and an arrow cast whose
    target domain is enumerable retabulates it. Comparing an untabulated
    function is a model error.
    """

    __slots__ = ("table", "skel", "fn")

    def __init__(self, table: tuple | None, skel: SkelFn, fn=None):
        self.table = table
        self.skel = skel
        self.fn = fn

    def apply(self, arg):
        if self.table is None:
            return self.fn(arg)
        for k, v in self.table:
            if k == arg:
                return v
        raise ModelBug(f"argument {arg!r} outside function table")

    def __eq__(self, other):
        if not isinstance(other, EffFn):
            return NotImplemented
        if self.table is None or other.table is None:
            raise ModelBug("comparing a function that was never tabulated")
        return self.table == other.table

    def __hash__(self):
        return hash(self.table) if self.table is not None else id(self)

    def __repr__(self):
        return f"<fn {self.table!r}>" if self.table is not None else f"<fn lazy {id(self):#x}>"


def inject(x):
    """Move an effectful value into the skeletal reading."""
    if isinstance(x, EffFn):
        return x.skel
    if isinstance(x, TreeReturn):
        return TreeReturn(inject(x.value))
    if isinstance(x, TreeOp):
        return TreeOp(x.op, x.arg, tuple((r, inject(t)) for r, t in x.cont))
    return x


def graft(tree, f):
    """Monadic bind on call trees."""
    if isinstance(tree, TreeReturn):
        return f(tree.value)
    if isinstance(tree, TreeOp):
        return TreeOp(tree.op, tree.arg,
                      tuple((r, graft(t, f)) for r, t in tree.cont))
    raise ModelBug(f"not a tree: {tree!r}")


def default_skel(sig: Signature, s: Skeleton):
    """A canonical inhabitant of a skeletal carrier, used for the points a
    table-derived skeletal function leaves unconstrained."""
    if isinstance(s, SkelUnit):
        return ()
    if isinstance(s, SkelBase):
        return base_carrier(s.name)[0]
    if isinstance(s, SkelArrow):
        leaf = TreeReturn(default_skel(sig, s.cod))
        return SkelFn(lambda _u: leaf)
    raise ModelBug(f"not a ground skeleton: {s}")


# ---------------------------------------------------------------------------
# Carrier enumeration

def enum_vty(sig: Signature, t: ValueType, budget: int = DEFAULT_BUDGET) -> tuple:
    if isinstance(t, TyUnit):
        return ((),)
    if isinstance(t, TyBase):
        return base_carrier(t.name)
    if isinstance(t, TyArrow):
        doms = enum_vty(sig, t.dom, budget)
        cods = enum_comp(sig, t.cod, budget)
        count = len(cods) ** len(doms)
        if count > budget:
            raise DomainTooLarge(
                f"{len(cods)}^{len(doms)} function tables for {t}"
            )
        fallback = TreeReturn(default_skel(sig, wf_vtype(sig, EMPTY_CONTEXT, t.cod.ty)))
        out = []
        for combo in itertools.product(cods, repeat=len(doms)):
            table = tuple(zip(doms, combo))
            out.append(_pair_for_table(table, fallback))
        return tuple(out)
    raise DomainTooLarge(f"cannot enumerate {t}")


def _pair_for_table(table: tuple, fallback) -> EffFn:
    injected = {}
    for a, res in table:
        injected.setdefault(inject(a), inject(res))

    def fn(u):
        return injected.get(u, fallback)

    return EffFn(table, SkelFn(fn))


def enum_comp(sig: Signature, c: CompType, budget: int = DEFAULT_BUDGET) -> tuple:
    if c.dirt.ops:
        raise DomainTooLarge(f"call trees over non-empty dirt {c.dirt}")
    if c.dirt.tail is not None:
        raise ModelBug(f"open dirt {c.dirt} in the model")
    return tuple(TreeReturn(v) for v in enum_vty(sig, c.ty, budget))


def enumerate_envs(sig: Signature, tyctx: TypingContext,
                   budget: int = DEFAULT_BUDGET) -> list[dict]:
    """All environments for a typing context, as variable-to-value dicts."""
    names = [n for n, _ in tyctx]
    carriers = [enum_vty(sig, t, budget) for _, t in tyctx]
    total = 1
    for c in carriers:
        total *= len(c)
        if total > budget:
            raise DomainTooLarge("environment space exceeds budget")
    return [dict(zip(names, combo)) for combo in itertools.product(*carriers)]


# ---------------------------------------------------------------------------
# Coercion interpretation (ground coercions only)
#
# Every leaf coercion of the model is the identity on data, so a ground
# cast depends only on its endpoints (coherence): a cast between equal
# types, or into a type without arrows, leaves its value alone, and an arrow
# cast tabulates the function once over the target's domain, casting the
# argument down and the result up by their own endpoints.

def interp_cco(sig: Signature, co: CCoercion, tree, budget: int):
    lo, hi = check_cco(sig, EMPTY_CONTEXT, co)
    return _cast_tree(sig, lo.ty, hi.ty, tree, budget)


def interp_vco(sig: Signature, co: VCoercion, x, budget: int = DEFAULT_BUDGET):
    lo, hi = check_vco(sig, EMPTY_CONTEXT, co)
    return _cast(sig, lo, hi, x, budget)


def _cast_tree(sig: Signature, src: ValueType, dst: ValueType, tree, budget: int):
    # Widening the allowed operation set does not change the tree.
    if src == dst or not isinstance(dst, TyArrow):
        return tree
    return graft(tree, lambda v: TreeReturn(_cast(sig, src, dst, v, budget)))


def _cast(sig: Signature, src: ValueType, dst: ValueType, x, budget: int):
    if src == dst or not isinstance(dst, TyArrow):
        return x
    if not isinstance(x, EffFn):
        raise ModelBug(f"arrow cast of non-function {x!r}")

    def chain(a):
        arg = _cast(sig, dst.dom, src.dom, a, budget)
        return _cast_tree(sig, src.cod.ty, dst.cod.ty, x.apply(arg), budget)

    try:
        doms = enum_vty(sig, dst.dom, budget)
    except DomainTooLarge:
        return EffFn(None, x.skel, chain)
    return EffFn(tuple((a, chain(a)) for a in doms), x.skel)


# ---------------------------------------------------------------------------
# Evaluation: effectful and skeletal

def eval_value(sig: Signature, env: dict, v: ValueTerm, budget: int = DEFAULT_BUDGET):
    """The effectful meaning of `v` in `env`. `v` must typecheck: its casts
    are interpreted without checking them."""
    if isinstance(v, Var):
        if v.name not in env:
            raise ModelBug(f"unbound variable {v.name}")
        return env[v.name]
    if isinstance(v, UnitVal):
        return ()
    if isinstance(v, Lam):
        senv = {name: inject(val) for name, val in env.items()}

        def sfn(u):
            return skel_comp(sig, {**senv, v.var: u}, v.body)

        def run(a):
            return eval_comp(sig, {**env, v.var: a}, v.body, budget)

        try:
            doms = enum_vty(sig, v.ty, budget)
        except DomainTooLarge:
            return EffFn(None, SkelFn(sfn), run)
        return EffFn(tuple((a, run(a)) for a in doms), SkelFn(sfn))
    if isinstance(v, CastV):
        return _cast(sig, vco_endpoint(v.co, upper=False), vco_endpoint(v.co, upper=True),
                     eval_value(sig, env, v.val, budget), budget)
    raise ModelBug(f"not a value term: {v!r}")


def eval_comp(sig: Signature, env: dict, c: CompTerm, budget: int = DEFAULT_BUDGET):
    if isinstance(c, Return):
        return TreeReturn(eval_value(sig, env, c.val, budget))
    if isinstance(c, OpCall):
        arg = eval_value(sig, env, c.arg, budget)
        entry = sig.get(c.op)
        cont = tuple(
            (r, eval_comp(sig, {**env, c.bind: r}, c.cont, budget))
            for r in enum_vty(sig, entry.result, budget)
        )
        return TreeOp(c.op, arg, cont)
    if isinstance(c, Do):
        first = eval_comp(sig, env, c.first, budget)
        return graft(first, lambda a: eval_comp(sig, {**env, c.var: a}, c.rest, budget))
    if isinstance(c, App):
        fn = eval_value(sig, env, c.fn, budget)
        if not isinstance(fn, EffFn):
            raise ModelBug(f"application of non-function {fn!r}")
        return fn.apply(eval_value(sig, env, c.arg, budget))
    if isinstance(c, LetVal):
        return eval_comp(sig, {**env, c.var: eval_value(sig, env, c.val, budget)},
                         c.body, budget)
    if isinstance(c, CastC):
        return _cast_tree(sig, vco_endpoint(c.co.vco, upper=False),
                          vco_endpoint(c.co.vco, upper=True),
                          eval_comp(sig, env, c.comp, budget), budget)
    raise ModelBug(f"not a computation term: {c!r}")


def skel_value(sig: Signature, env: dict, v: ValueTerm):
    if isinstance(v, Var):
        return env[v.name]
    if isinstance(v, UnitVal):
        return ()
    if isinstance(v, Lam):
        def fn(u):
            return skel_comp(sig, {**env, v.var: u}, v.body)

        return SkelFn(fn)
    if isinstance(v, CastV):
        return skel_value(sig, env, v.val)  # casts are skeletally invisible
    raise ModelBug(f"not a value term: {v!r}")


def skel_comp(sig: Signature, env: dict, c: CompTerm):
    if isinstance(c, Return):
        return TreeReturn(skel_value(sig, env, c.val))
    if isinstance(c, OpCall):
        arg = skel_value(sig, env, c.arg)
        entry = sig.get(c.op)
        cont = tuple(
            (r, skel_comp(sig, {**env, c.bind: r}, c.cont))
            for r in enum_vty(sig, entry.result)
        )
        return TreeOp(c.op, arg, cont)
    if isinstance(c, Do):
        first = skel_comp(sig, env, c.first)
        return graft(first, lambda u: skel_comp(sig, {**env, c.var: u}, c.rest))
    if isinstance(c, App):
        fn = skel_value(sig, env, c.fn)
        if not isinstance(fn, SkelFn):
            raise ModelBug(f"application of non-function {fn!r}")
        return fn.call(skel_value(sig, env, c.arg))
    if isinstance(c, LetVal):
        return skel_comp(sig, {**env, c.var: skel_value(sig, env, c.val)}, c.body)
    if isinstance(c, CastC):
        return skel_comp(sig, env, c.comp)
    raise ModelBug(f"not a computation term: {c!r}")


# ---------------------------------------------------------------------------
# Type-directed equality at the observable fragment

def equal_skel_at(sig: Signature, t: ValueType, x, y, budget: int = DEFAULT_BUDGET) -> bool:
    """Skeletal equality at effectful type `t`, probing functions on the
    injected elements of the effectful domain carrier."""
    if isinstance(t, (TyUnit, TyBase)):
        return x == y
    if isinstance(t, TyArrow):
        if not isinstance(x, SkelFn) or not isinstance(y, SkelFn):
            raise ModelBug("skeletal function expected")
        for a in enum_vty(sig, t.dom, budget):
            u = inject(a)
            if not equal_skel_tree(sig, t.cod.ty, x.call(u), y.call(u), budget):
                return False
        return True
    raise ModelBug(f"not a closed type: {t}")


def equal_skel_tree(sig: Signature, leaf_ty: ValueType, tx, ty_, budget: int) -> bool:
    if isinstance(tx, TreeReturn) and isinstance(ty_, TreeReturn):
        return equal_skel_at(sig, leaf_ty, tx.value, ty_.value, budget)
    if isinstance(tx, TreeOp) and isinstance(ty_, TreeOp):
        if tx.op != ty_.op or tx.arg != ty_.arg:
            return False
        if [r for r, _ in tx.cont] != [r for r, _ in ty_.cont]:
            return False
        return all(
            equal_skel_tree(sig, leaf_ty, a, b, budget)
            for (_, a), (_, b) in zip(tx.cont, ty_.cont)
        )
    return False


# ---------------------------------------------------------------------------
# The commuting square

def check_square_value(sig: Signature, tyctx: TypingContext, v: ValueTerm,
                       budget: int = DEFAULT_BUDGET) -> tuple[ValueType, object]:
    """Injecting the effectful meaning equals the skeletal meaning of the
    same term over the injected environment, at every environment.

    Returns the type of `v` and its effectful meaning at the last
    environment, which for a closed term is the only one (the empty one).
    """
    t = type_of_value(sig, EMPTY_CONTEXT, tyctx, v)
    for env in enumerate_envs(sig, tyctx, budget):
        meaning = eval_value(sig, env, v, budget)
        rhs = skel_value(sig, {n: inject(x) for n, x in env.items()}, v)
        if not equal_skel_at(sig, t, inject(meaning), rhs, budget):
            raise ModelBug(f"square failed for value term at env {env!r}")
    return t, meaning


# ---------------------------------------------------------------------------
# Semantic preservation across simplification

def check_preservation(sig: Signature, original: ValueTerm, strengthened: ValueTerm,
                       co: VCoercion, budget: int = DEFAULT_BUDGET) -> None:
    """Both semantic claims about a closed ground term and its
    simplification, instantiated.

    First the commuting square holds for `original`. Then its meaning
    survives simplification: `strengthened`, cast along `co`, denotes the
    same value. `co` must run from the type of `strengthened` to the type
    of `original`. The original is typed and evaluated once; the square
    check returns its type and meaning, and a strengthened term equal to
    the original reuses both.
    """
    original_ty, lhs = check_square_value(sig, (), original, budget)
    # Typecheck the strengthened term; `interp_vco` checks the cast, which
    # then has the endpoints its spine shows.
    same = strengthened == original
    types = [original_ty if same else type_of_value(sig, EMPTY_CONTEXT, (), strengthened),
             original_ty]
    if [vco_endpoint(co, upper=False), vco_endpoint(co, upper=True)] != types:
        raise EndpointMismatch(f"the cast does not run from {types[0]} to {types[1]}")
    meaning = lhs if same else eval_value(sig, {}, strengthened, budget)
    rhs_cast = interp_vco(sig, co, meaning, budget)
    if lhs != rhs_cast:
        raise ModelBug(
            f"preservation failed: original denotes {lhs!r}, "
            f"strengthened-and-cast denotes {rhs_cast!r}"
        )
