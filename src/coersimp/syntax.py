"""Syntax trees for the calculus: skeletons, dirts, types, coercions, terms.

Every node here is a frozen value so values can live in dicts and sets.
The node classes are built by `value_class`, which makes them slotted (with
`__slots__ = ()` on their abstract bases), so a node keeps no instance
dict, and compiles five methods of each from its fields: `__init__`,
`__eq__`, `__hash__`, `rebuild` and, from the %-format the class declares,
`__str__`. The same fields give each class's form to the reader in
`corpus`. `Signature`, `ParamContext` and `NameSupply` stay dataclasses;
`ParamContext` keeps an instance dict, for its lookup index.

Dirts are kept in a canonical form throughout: a sorted set of operation
names plus an optional tail parameter, so `{Op} u ({Op'} u d)` and
`{Op', Op} u d` are the same object. Construction goes through `dirt()`.

Parameters of all five kinds (skeleton, dirt, type, dirt-coercion,
type-coercion) are plain strings; which kind a name has is determined by
where it is declared in a `ParamContext`. A context answers lookups by name
from indexes it builds on the first lookup of each kind and keeps outside
its fields, so a lookup costs constant time and a context that is never
queried builds none.

An intern table (`intern`) holds one object per distinct value, so that
`is` decides the equality of values interned in one table; a signature
keeps the table of the values its ground instantiations use.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property


# ---------------------------------------------------------------------------
# Value classes
#
# `value_class` gives a class what `dataclass(frozen=True, slots=True)`
# would, as far as the package uses it: the same `__init__`, `==`, `hash`,
# `__match_args__` and repr, refusal of assignment, and a `__reduce__` for
# copy and pickle. It compiles all its methods from one source text with a
# single `exec`, where a dataclass takes six for `__init__`, `__eq__` and
# `__hash__`, and `__init__` sets each slot through its descriptor, as
# `__setattr__` refuses.
# `__eq__` compares field by field, identity first, as a tuple comparison
# does, but at two frames a nesting level where comparing tuples takes three.
#
# The same text gives a class with children `rebuild(f, arg)`: the one
# traversal of the syntax (Lämmel and Peyton Jones, "Scrap your
# boilerplate", 2003). It calls `f(arg, child)` on each child, passes
# the atom fields through, and returns the node itself when every result is
# its old child, else a new node. A child is a field not annotated as an
# atom (`ATOM_FIELDS`); the classes without children share `_no_children`.
#
# A class that declares `__str__` as a %-format of its fields, in field
# order, gets a compiled `__str__` that formats the tuple of its fields: two
# frames a nesting level, where an f-string takes three. Only `Dirt` prints
# by hand. `corpus` reads each class's form from the same annotations.

_VALUE_METHODS = """\
def __init__(self, {params}):
{sets}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {same}
    return NotImplemented
def __hash__(self):
    return hash(({own}))
"""

_REBUILD = """\
def rebuild(self, _f, _arg):
{calls}    if {same}:
        return self
    return _cls({args})
"""

_STR = """\
def __str__(self):
    return {shows!r} % ({own})
"""

# The annotations of the atom fields: the names, operation sets and absent
# tails that `_ATOMS` classifies.
ATOM_FIELDS = ("str", "str | None", "frozenset[str]")


def value_class(cls):
    """`cls` rebuilt as a frozen slotted class over its annotated fields,
    in annotation order; a field's class attribute is its default, and a
    string `__str__` is the %-format of its fields."""
    annotations = cls.__dict__.get("__annotations__", {})
    names = tuple(annotations)
    kids = [n for n in names if annotations[n] not in ATOM_FIELDS]
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__", *names)}
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    cls = type(cls.__name__, cls.__bases__, {**body, "__slots__": names, "__match_args__": names})
    scope = {f"_set_{n}": cls.__dict__[n].__set__ for n in names}
    scope["_cls"] = cls
    own = "".join(f"self.{n}," for n in names)
    source = _VALUE_METHODS.format(
        params=", ".join(names), sets="".join(f"    _set_{n}(self, {n})\n" for n in names) or "    pass",
        own=own,
        same=" and ".join(f"(self.{n} is other.{n} or self.{n} == other.{n})" for n in names)
        or "True")
    if kids:
        source += _REBUILD.format(
            calls="".join(f"    {n} = _f(_arg, self.{n})\n" for n in kids),
            same=" and ".join(f"{n} is self.{n}" for n in kids),
            args=", ".join(n if n in kids else f"self.{n}" for n in names))
    if type(body.get("__str__")) is str:
        source += _STR.format(shows=body["__str__"], own=own)
    exec(source, scope)
    scope["__init__"].__defaults__ = defaults
    cls.rebuild = _no_children
    for name in ("__init__", "__eq__", "__hash__", "rebuild", "__str__"):
        if name in scope:
            scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, scope[name])
    cls.__repr__, cls.__reduce__ = _value_repr, _value_reduce
    cls.__setattr__ = cls.__delattr__ = _refuse_change
    return cls


def _no_children(self, f, arg):
    """`rebuild` of a class without children: the node itself."""
    return self


def _value_repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def _value_reduce(self):
    return type(self), tuple(getattr(self, n) for n in self.__match_args__)


def _refuse_change(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# ---------------------------------------------------------------------------
# Skeletons

class Skeleton:
    __slots__ = ()


@value_class
class SkelParam(Skeleton):
    name: str
    __str__ = "%s"


@value_class
class SkelUnit(Skeleton):
    __str__ = "unit"


@value_class
class SkelBase(Skeleton):
    # Each base type is its own skeleton constant.
    name: str
    __str__ = "%s"


@value_class
class SkelArrow(Skeleton):
    dom: Skeleton
    cod: Skeleton
    __str__ = "(%s -> %s)"


# ---------------------------------------------------------------------------
# Dirt

@value_class
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


# The one empty operation set: CPython keeps no shared empty frozenset, and
# most dirts of a corpus carry no operation.
NO_OPS: frozenset[str] = frozenset()


def dirt(ops=(), tail: str | None = None) -> Dirt:
    """The dirt of the operations `ops` and the tail `tail`; a dirt without
    operations holds `NO_OPS`."""
    return Dirt(frozenset(ops) or NO_OPS, tail)


# ---------------------------------------------------------------------------
# Types

class ValueType:
    __slots__ = ()


@value_class
class TyParam(ValueType):
    name: str
    __str__ = "%s"


@value_class
class TyUnit(ValueType):
    __str__ = "unit"


@value_class
class TyBase(ValueType):
    name: str
    __str__ = "%s"


@value_class
class CompType:
    """A computation type: a value type annotated with a dirt."""

    ty: ValueType
    dirt: Dirt
    __str__ = "%s!%s"


@value_class
class TyArrow(ValueType):
    dom: ValueType
    cod: CompType
    __str__ = "(%s -> %s)"


# ---------------------------------------------------------------------------
# Coercions

class VCoercion:
    __slots__ = ()


class DCoercion:
    __slots__ = ()


@value_class
class VCoParam(VCoercion):
    name: str
    __str__ = "%s"


@value_class
class VCoReflParam(VCoercion):
    name: str
    __str__ = "<%s>"


@value_class
class VCoReflUnit(VCoercion):
    __str__ = "<unit>"


@value_class
class VCoReflBase(VCoercion):
    name: str
    __str__ = "<%s>"


@value_class
class CCoercion:
    """A computation coercion: value coercion bang dirt coercion."""

    vco: VCoercion
    dco: DCoercion
    __str__ = "%s!%s"


@value_class
class VCoArrow(VCoercion):
    # arg : A <= A' and res : C <= C' yield (A' -> C) <= (A -> C'):
    # contravariant on the argument side.
    arg: VCoercion
    res: CCoercion
    __str__ = "(%s -> %s)"


@value_class
class VCoCompose(VCoercion):
    # after o before, diagrammatic source-to-target right to left.
    after: VCoercion
    before: VCoercion
    __str__ = "(%s . %s)"


@value_class
class DCoParam(DCoercion):
    name: str
    __str__ = "%s"


@value_class
class DCoReflParam(DCoercion):
    name: str
    __str__ = "<%s>"


@value_class
class DCoReflEmpty(DCoercion):
    __str__ = "<{}>"


@value_class
class DCoEmptyUnder(DCoercion):
    """The empty dirt below a dirt parameter: witnesses {} <= tail."""

    tail: str
    __str__ = "0_%s"


@value_class
class DCoUnionBoth(DCoercion):
    """Add one operation to both endpoints of a dirt coercion."""

    op: str
    body: DCoercion
    __str__ = "({%s}u%s)"


@value_class
class DCoUnionRight(DCoercion):
    """Add one operation to the upper endpoint only."""

    op: str
    body: DCoercion
    __str__ = "({%s}u+%s)"


@value_class
class DCoCompose(DCoercion):
    after: DCoercion
    before: DCoercion
    __str__ = "(%s . %s)"


# ---------------------------------------------------------------------------
# Terms (fine-grain call-by-value: values and computations are distinct)

class ValueTerm:
    __slots__ = ()


class CompTerm:
    __slots__ = ()


@value_class
class Var(ValueTerm):
    name: str
    __str__ = "%s"


@value_class
class UnitVal(ValueTerm):
    __str__ = "()"


@value_class
class Lam(ValueTerm):
    var: str
    ty: ValueType
    body: CompTerm
    __str__ = "(fun %s:%s. %s)"


@value_class
class CastV(ValueTerm):
    val: ValueTerm
    co: VCoercion
    __str__ = "(%s |> %s)"


@value_class
class Return(CompTerm):
    val: ValueTerm
    __str__ = "return %s"


@value_class
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
    __str__ = "%s(%s; %s:%s. %s)"


@value_class
class Do(CompTerm):
    var: str
    first: CompTerm
    rest: CompTerm
    __str__ = "do %s <- %s in %s"


@value_class
class App(CompTerm):
    fn: ValueTerm
    arg: ValueTerm
    __str__ = "%s %s"


@value_class
class LetVal(CompTerm):
    var: str
    val: ValueTerm
    body: CompTerm
    __str__ = "let %s = %s in %s"


@value_class
class CastC(CompTerm):
    comp: CompTerm
    co: CCoercion
    __str__ = "(%s |> %s)"


# ---------------------------------------------------------------------------
# Signatures and contexts

@value_class
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
    # The operation names, for membership in constant time; built once.
    name_set: frozenset[str] = field(init=False, repr=False, compare=False)
    # Endpoints of the ground coercions checked under this signature, by
    # coercion; `check` fills it (see `check._remembered`).
    ground_checks: dict = field(init=False, repr=False, compare=False)
    # One object per distinct value drawn or built for a ground
    # instantiation under this signature (see `intern`), which keeps it
    # alive, so its identity stands for its value.
    interned: dict = field(init=False, repr=False, compare=False)
    # The canonical inclusion coercion between two interned values, or
    # None where there is none, by the identities of the two;
    # `check.interned_inclusion` fills it.
    ground_inclusions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "name_set", frozenset(name for name, _ in self.ops))
        object.__setattr__(self, "ground_checks", {})
        object.__setattr__(self, "interned", {})
        object.__setattr__(self, "ground_inclusions", {})

    def names(self) -> list[str]:
        return [name for name, _ in self.ops]

    def __contains__(self, op: str) -> bool:
        return op in self.name_set

    def get(self, op: str) -> OpSig | None:
        for name, sig in self.ops:
            if name == op:
                return sig
        return None


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
# Hash-consing (Filliâtre and Conchon, "Type-safe modular hash-consing", 2006)
#
# An intern table holds one node per distinct value. A node is entered
# only over children that the table holds, under its key and under its own
# identity. A closed dirt's key is its operation set; any other node's key
# is its class, its atoms (names, operation sets, an absent tail) and the
# identities of its children. The table keeps every node alive, so no
# identity in it is reused while it lives, and equal values interned in one
# table are one object: `is` decides their equality.

_ATOMS = (str, frozenset, type(None))


def intern(table: dict, x):
    """The node of `table` equal to the syntax value `x`: `x` itself if the
    table holds it, else the node over `x`'s children interned first."""
    got = table.get(id(x))
    if got is x:
        return x
    cls = type(x)
    if cls is Dirt and x.tail is None:
        return closed_dirt(table, x.ops)
    parts = [v if isinstance(v, _ATOMS) else intern(table, v)
             for v in [getattr(x, n) for n in cls.__match_args__]]
    return _entry(table, (cls, *[v if isinstance(v, _ATOMS) else id(v) for v in parts]),
                  cls, parts)


def node(table: dict, cls, *kids):
    """The node `cls(*kids)` of `table`, over children that are its nodes."""
    return _entry(table, (cls, *map(id, kids)), cls, kids)


def leaf(table: dict, cls, *atoms):
    """The node `cls(*atoms)` of `table`, whose fields are all atoms (a
    closed dirt is `closed_dirt`'s)."""
    return _entry(table, (cls, *atoms), cls, atoms)


def _entry(table: dict, key: tuple, cls, parts):
    got = table.get(key)
    if got is None:
        got = table[key] = cls(*parts)
        table[id(got)] = got
    return got


def closed_dirt(table: dict, ops: frozenset) -> Dirt:
    """The closed dirt with operations `ops` of `table`, keyed by its
    operation set."""
    got = table.get(ops)
    if got is None:
        got = table[ops] = Dirt(ops, None)
        table[id(got)] = got
    return got


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
    def seeded(cls, *contexts: ParamContext) -> NameSupply:
        used: set[str] = set()
        for ctx in contexts:
            used |= ctx.all_names()
        return cls(used=used)

    def fresh(self, prefix: str) -> str:
        n = self.counters.get(prefix, 0) + 1
        while (cand := f"{prefix}{n}") in self.used:
            n += 1
        self.counters[prefix] = n
        self.used.add(cand)
        return cand
