"""Syntax trees for the calculus: skeletons, dirts, types, coercions, terms.

Everything here is a frozen dataclass so values can live in dicts and sets.
The node classes are slotted (`slots=True`, and `__slots__ = ()` on their
abstract bases), so a node keeps no instance dict; `ParamContext` keeps
one, for its lookup index.

Dirts are kept in a canonical form throughout: a sorted set of operation
names plus an optional tail parameter, so `{Op} u ({Op'} u d)` and
`{Op', Op} u d` are the same object. Construction goes through `dirt()`.

Parameters of all five kinds (skeleton, dirt, type, dirt-coercion,
type-coercion) are plain strings; which kind a name has is determined by
where it is declared in a `ParamContext`. A context answers lookups by name
from indexes it builds on the first lookup of each kind and keeps outside
its fields, so a lookup costs constant time and a context that is never
queried builds none.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property


# ---------------------------------------------------------------------------
# Skeletons

class Skeleton:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class SkelParam(Skeleton):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SkelUnit(Skeleton):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class SkelBase(Skeleton):
    # Each base type is its own skeleton constant.
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class SkelArrow(Skeleton):
    dom: Skeleton
    cod: Skeleton

    def __str__(self) -> str:
        return f"({self.dom} -> {self.cod})"


# ---------------------------------------------------------------------------
# Dirt

@dataclass(frozen=True, slots=True)
class Dirt:
    """An operation set plus an optional dirt-parameter tail."""

    ops: frozenset[str]
    tail: str | None = None

    def sorted_ops(self) -> list[str]:
        return sorted(self.ops)

    @property
    def is_closed(self) -> bool:
        return self.tail is None

    def with_ops(self, more: frozenset[str] | set[str]) -> Dirt:
        return Dirt(self.ops | frozenset(more), self.tail)

    def __str__(self) -> str:
        if not self.ops:
            return self.tail if self.tail is not None else "{}"
        body = "{" + ",".join(self.sorted_ops()) + "}"
        return body if self.tail is None else f"{body}+{self.tail}"


def dirt(ops=(), tail: str | None = None) -> Dirt:
    return Dirt(frozenset(ops), tail)


EMPTY_DIRT = dirt()


# ---------------------------------------------------------------------------
# Types

class ValueType:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class TyParam(ValueType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class TyUnit(ValueType):
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True, slots=True)
class TyBase(ValueType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class CompType:
    """A computation type: a value type annotated with a dirt."""

    ty: ValueType
    dirt: Dirt

    def __str__(self) -> str:
        return f"{self.ty}!{self.dirt}"


@dataclass(frozen=True, slots=True)
class TyArrow(ValueType):
    dom: ValueType
    cod: CompType

    def __str__(self) -> str:
        return f"({self.dom} -> {self.cod})"


# ---------------------------------------------------------------------------
# Coercions

class VCoercion:
    __slots__ = ()


class DCoercion:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class VCoParam(VCoercion):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class VCoReflParam(VCoercion):
    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, slots=True)
class VCoReflUnit(VCoercion):
    def __str__(self) -> str:
        return "<unit>"


@dataclass(frozen=True, slots=True)
class VCoReflBase(VCoercion):
    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, slots=True)
class CCoercion:
    """A computation coercion: value coercion bang dirt coercion."""

    vco: VCoercion
    dco: DCoercion

    def __str__(self) -> str:
        return f"{self.vco}!{self.dco}"


@dataclass(frozen=True, slots=True)
class VCoArrow(VCoercion):
    # arg : A <= A' and res : C <= C' yield (A' -> C) <= (A -> C'):
    # contravariant on the argument side.
    arg: VCoercion
    res: CCoercion

    def __str__(self) -> str:
        return f"({self.arg} -> {self.res})"


@dataclass(frozen=True, slots=True)
class VCoCompose(VCoercion):
    # after o before, diagrammatic source-to-target right to left.
    after: VCoercion
    before: VCoercion

    def __str__(self) -> str:
        return f"({self.after} . {self.before})"


@dataclass(frozen=True, slots=True)
class DCoParam(DCoercion):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class DCoReflParam(DCoercion):
    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True, slots=True)
class DCoReflEmpty(DCoercion):
    def __str__(self) -> str:
        return "<{}>"


@dataclass(frozen=True, slots=True)
class DCoEmptyUnder(DCoercion):
    """The empty dirt below a dirt parameter: witnesses {} <= tail."""

    tail: str

    def __str__(self) -> str:
        return f"0_{self.tail}"


@dataclass(frozen=True, slots=True)
class DCoUnionBoth(DCoercion):
    """Add one operation to both endpoints of a dirt coercion."""

    op: str
    body: DCoercion

    def __str__(self) -> str:
        return f"({{{self.op}}}u{self.body})"


@dataclass(frozen=True, slots=True)
class DCoUnionRight(DCoercion):
    """Add one operation to the upper endpoint only."""

    op: str
    body: DCoercion

    def __str__(self) -> str:
        return f"({{{self.op}}}u+{self.body})"


@dataclass(frozen=True, slots=True)
class DCoCompose(DCoercion):
    after: DCoercion
    before: DCoercion

    def __str__(self) -> str:
        return f"({self.after} . {self.before})"


# ---------------------------------------------------------------------------
# Terms (fine-grain call-by-value: values and computations are distinct)

class ValueTerm:
    __slots__ = ()


class CompTerm:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Var(ValueTerm):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class UnitVal(ValueTerm):
    def __str__(self) -> str:
        return "()"


@dataclass(frozen=True, slots=True)
class Lam(ValueTerm):
    var: str
    ty: ValueType
    body: CompTerm

    def __str__(self) -> str:
        return f"(fun {self.var}:{self.ty}. {self.body})"


@dataclass(frozen=True, slots=True)
class CastV(ValueTerm):
    val: ValueTerm
    co: VCoercion

    def __str__(self) -> str:
        return f"({self.val} |> {self.co})"


@dataclass(frozen=True, slots=True)
class Return(CompTerm):
    val: ValueTerm

    def __str__(self) -> str:
        return f"return {self.val}"


@dataclass(frozen=True, slots=True)
class OpCall(CompTerm):
    """Perform `op` with argument `arg`, binding the result in `cont`.

    `bind_ty` repeats the operation's declared result type; the checker
    insists they agree.
    """

    op: str
    arg: ValueTerm
    bind: str
    bind_ty: ValueType
    cont: CompTerm

    def __str__(self) -> str:
        return f"{self.op}({self.arg}; {self.bind}:{self.bind_ty}. {self.cont})"


@dataclass(frozen=True, slots=True)
class Do(CompTerm):
    var: str
    first: CompTerm
    rest: CompTerm

    def __str__(self) -> str:
        return f"do {self.var} <- {self.first} in {self.rest}"


@dataclass(frozen=True, slots=True)
class App(CompTerm):
    fn: ValueTerm
    arg: ValueTerm

    def __str__(self) -> str:
        return f"{self.fn} {self.arg}"


@dataclass(frozen=True, slots=True)
class LetVal(CompTerm):
    var: str
    val: ValueTerm
    body: CompTerm

    def __str__(self) -> str:
        return f"let {self.var} = {self.val} in {self.body}"


@dataclass(frozen=True, slots=True)
class CastC(CompTerm):
    comp: CompTerm
    co: CCoercion

    def __str__(self) -> str:
        return f"({self.comp} |> {self.co})"


# ---------------------------------------------------------------------------
# Signatures and contexts

@dataclass(frozen=True, slots=True)
class OpSig:
    """Argument and result type of one operation.

    Both must be closed; the result additionally must be ground (no arrows),
    which the well-formedness checker enforces.
    """

    arg: ValueType
    result: ValueType


@dataclass(frozen=True, slots=True)
class Signature:
    ops: tuple[tuple[str, OpSig], ...]

    def names(self) -> list[str]:
        return [name for name, _ in self.ops]

    def __contains__(self, op: str) -> bool:
        return any(name == op for name, _ in self.ops)

    def get(self, op: str) -> OpSig | None:
        for name, sig in self.ops:
            if name == op:
                return sig
        return None


def signature(**ops: tuple[ValueType, ValueType]) -> Signature:
    return Signature(tuple((name, OpSig(a, b)) for name, (a, b) in ops.items()))


EMPTY_SIG = Signature(())


@dataclass(frozen=True)
class ParamContext:
    """The five parameter lists, in dependency order.

    skel_params: skeleton parameter names
    dirt_params: dirt parameter names
    ty_params:   (name, skeleton) pairs
    dirt_cos:    (name, lower dirt, upper dirt) triples
    ty_cos:      (name, lower type, upper type) triples
    """

    skel_params: tuple[str, ...] = ()
    dirt_params: tuple[str, ...] = ()
    ty_params: tuple[tuple[str, Skeleton], ...] = ()
    dirt_cos: tuple[tuple[str, Dirt, Dirt], ...] = ()
    ty_cos: tuple[tuple[str, ValueType, ValueType], ...] = ()

    # Name-to-row indexes, each built on its first lookup. They live in the
    # instance dict, outside the fields, so `==`, `hash` and `repr` ignore
    # them. Rows are read last to first, so a name declared twice maps to
    # its first row.

    @cached_property
    def skel_param_set(self) -> frozenset[str]:
        return frozenset(self.skel_params)

    @cached_property
    def dirt_param_set(self) -> frozenset[str]:
        return frozenset(self.dirt_params)

    @cached_property
    def _ty_param_rows(self) -> dict[str, Skeleton]:
        return dict(reversed(self.ty_params))

    @cached_property
    def _dirt_co_rows(self) -> dict[str, tuple[Dirt, Dirt]]:
        return {n: (lo, hi) for n, lo, hi in reversed(self.dirt_cos)}

    @cached_property
    def _ty_co_rows(self) -> dict[str, tuple[ValueType, ValueType]]:
        return {n: (lo, hi) for n, lo, hi in reversed(self.ty_cos)}

    def ty_param_skeleton(self, name: str) -> Skeleton | None:
        return self._ty_param_rows.get(name)

    def dirt_co_classifier(self, name: str) -> tuple[Dirt, Dirt] | None:
        return self._dirt_co_rows.get(name)

    def ty_co_classifier(self, name: str) -> tuple[ValueType, ValueType] | None:
        return self._ty_co_rows.get(name)

    def all_names(self) -> set[str]:
        names = set(self.skel_params) | set(self.dirt_params)
        names.update(n for n, _ in self.ty_params)
        names.update(n for n, _, _ in self.dirt_cos)
        names.update(n for n, _, _ in self.ty_cos)
        return names

    def describe(self) -> str:
        parts = []
        parts.extend(self.skel_params)
        parts.extend(self.dirt_params)
        parts.extend(f"{n}:{s}" for n, s in self.ty_params)
        parts.extend(f"{n}:{lo}<={hi}" for n, lo, hi in self.dirt_cos)
        parts.extend(f"{n}:{lo}<={hi}" for n, lo, hi in self.ty_cos)
        return "; ".join(parts)


TypingContext = tuple[tuple[str, ValueType], ...]

EMPTY_CONTEXT = ParamContext((), (), (), (), ())


# ---------------------------------------------------------------------------
# Fresh names

@dataclass
class NameSupply:
    """Deterministic fresh-name source: prefix plus a running counter.

    Seed it with every name already in scope so fresh names never collide.
    """

    used: set[str] = field(default_factory=set)
    counters: dict[str, int] = field(default_factory=dict)

    @classmethod
    def seeded(cls, *contexts: ParamContext, extra=()) -> NameSupply:
        used: set[str] = set(extra)
        for ctx in contexts:
            used |= ctx.all_names()
        return cls(used=used)

    def fresh(self, prefix: str) -> str:
        n = self.counters.get(prefix, 0)
        while True:
            n += 1
            cand = f"{prefix}{n}"
            if cand not in self.used:
                self.counters[prefix] = n
                self.used.add(cand)
                return cand


# ---------------------------------------------------------------------------
# Alpha equivalence (renaming of type and dirt parameters)

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
