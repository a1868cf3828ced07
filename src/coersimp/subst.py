"""Substitutions over the five parameter kinds, their application, validity
checking, and composition, and the erasure of the casts that application
made trivial.

A substitution is five finite maps. Mappings that are omitted are identities:
applying a substitution to a parameter outside its domain leaves it alone.
One function, `apply`, applies a substitution to syntax of every class. It
reads the substitution at the eight leaf classes of `_LEAVES` and is
homomorphic on every other node, through the node's `rebuild`
(`syntax.value_class`). Two of the leaf clauses are not obvious:

* reflexivity coercions on parameters turn into the *derived* reflexivity of
  the image (`refl_a` under `{a -> unit -> unit!d}` becomes the full arrow
  reflexivity), and
* the empty-below-tail coercion turns into the derived empty coercion of the
  image dirt.

Dirt application (`apply_dirt`) flattens: substituting a tail
re-canonicalizes the op set.

Application and composition share what they do not change: `apply`
returns the node it was given where no name under it is mapped, and
rebuilds only the spine above a mapped name; composing after a
substitution that maps nothing copies the maps without walking an image.

Validity of `sub : src -> dst` is checked parameter by parameter, left to
right through `src`, against the substituted classifier. A parameter without
a mapping must itself exist (suitably classified) in `dst`; if it does not,
the failure is reported as `UnmappedParam`.

The two constraint sorts, value types with value coercions and dirts with
dirt coercions, each have one `Sort` record here (`TYPE`, `DIRT`): what the
phases, the witness and the checks need to know to treat both alike.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .check import (
    CheckError,
    EndpointMismatch,
    SkeletonMismatch,
    check_dco,
    check_vco,
    dco_endpoint,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    interned_inclusion,
    is_closed_vty,
    value_inclusion_coercion,
    vco_endpoint,
    wf_dirt,
    wf_skeleton,
    wf_vtype,
)
from .syntax import (
    EMPTY_CONTEXT,
    CastC,
    CastV,
    CCoercion,
    CompTerm,
    DCoCompose,
    DCoEmptyUnder,
    DCoParam,
    DCoReflEmpty,
    DCoReflParam,
    DCoUnionBoth,
    DCoercion,
    Dirt,
    NO_OPS,
    ParamContext,
    Signature,
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
    intern,
)


class UnmappedParam(CheckError):
    """A source parameter has no image and does not survive into the target."""


@dataclass
class Substitution:
    skel: dict[str, Skeleton] = field(default_factory=dict)
    dirt: dict[str, Dirt] = field(default_factory=dict)
    ty: dict[str, ValueType] = field(default_factory=dict)
    dco: dict[str, DCoercion] = field(default_factory=dict)
    vco: dict[str, VCoercion] = field(default_factory=dict)

    def maps(self) -> tuple[dict, dict, dict, dict, dict]:
        """The five maps, in declaration order."""
        return self.skel, self.dirt, self.ty, self.dco, self.vco

    def domain(self) -> set[str]:
        return set().union(*self.maps())

    def copy(self) -> Substitution:
        return Substitution(*map(dict, self.maps()))


# ---------------------------------------------------------------------------
# Application

def apply(sub: Substitution, x):
    """The syntax `x`, of any class, under `sub`: a leaf of `_LEAVES` reads
    `sub`, every other node is rebuilt over its children's images."""
    leaf = _LEAVES.get(type(x))
    return x.rebuild(apply, sub) if leaf is None else leaf(sub, x)


def apply_dirt(sub: Substitution, d: Dirt) -> Dirt:
    image = sub.dirt.get(d.tail)
    if image is None:
        return d
    return Dirt(d.ops | image.ops, image.tail) if d.ops else image


# The nodes that a substitution reads: the parameters, the derived
# coercions of a mapped parameter's image, and dirts, which flatten.
_LEAVES = {
    SkelParam: lambda sub, s: sub.skel.get(s.name, s),
    TyParam: lambda sub, t: sub.ty.get(t.name, t),
    VCoParam: lambda sub, g: sub.vco.get(g.name, g),
    DCoParam: lambda sub, g: sub.dco.get(g.name, g),
    VCoReflParam: lambda sub, g: derived_refl_vty(sub.ty[g.name]) if g.name in sub.ty else g,
    DCoReflParam: lambda sub, g: derived_refl_dirt(sub.dirt[g.name]) if g.name in sub.dirt else g,
    DCoEmptyUnder: lambda sub, g: derived_empty(sub.dirt[g.tail]) if g.tail in sub.dirt else g,
    Dirt: apply_dirt,
}


# ---------------------------------------------------------------------------
# Erasure of trivial casts
#
# A reflexive coercion is a reflexivity on a parameter, unit or a base type;
# a composition of reflexive links; or an arrow or computation coercion, or
# a `DCoUnionBoth`, whose parts all are. `DCoUnionRight`, `DCoEmptyUnder`
# and coercion parameters never are. Erasure drops a reflexive link of a
# composition (`refl . c = c`, `c . refl = c`) and a cast by a reflexive
# coercion, keeps the tree shape of what it keeps, and returns a node itself
# where nothing under it is erased. One walk, `_erase`, does it: a node of
# no class below goes through its `rebuild`, which hands each child's
# erasure the list that it appends the child's reflexivity to.

def erase_value(t: ValueTerm | CompTerm) -> ValueTerm | CompTerm:
    """`t`, a value or a computation term, with its trivial casts erased (`t` if it has none)."""
    return _erase([], t)


def _erase(refl: list, x):
    """`x` with its reflexive links and trivial casts erased; appends to
    `refl` whether `x` is a reflexive coercion."""
    cls = type(x)
    if cls in _REFLEXIVE:
        refl.append(True)
        return x
    if cls is VCoCompose or cls is DCoCompose:
        links = []
        after, before = _erase(links, x.after), _erase(links, x.before)
        a_refl, b_refl = links
        refl.append(a_refl and b_refl)
        if a_refl:
            return before
        if b_refl:
            return after
        return x if after is x.after and before is x.before else cls(after, before)
    if cls in _KEPT:
        refl.append(False)
        return x
    parts = []
    new = x.rebuild(_erase, parts)
    refl.append(cls in _REFLEXIVE_IF_ALL and False not in parts)
    if cls in _CASTS and parts[1]:
        return getattr(new, _CASTS[cls])
    return new


_REFLEXIVE = {VCoReflParam, VCoReflUnit, VCoReflBase, DCoReflEmpty, DCoReflParam}
_REFLEXIVE_IF_ALL = {VCoArrow, CCoercion, DCoUnionBoth}
_CASTS = {CastV: "val", CastC: "comp"}  # each by the field of what it casts
# Types and nodes without children, returned as they are without a `rebuild`.
_KEPT = {TyParam, TyUnit, TyBase, TyArrow, Var, UnitVal, VCoParam, DCoParam, DCoEmptyUnder}


def apply_context(sub: Substitution, ctx: ParamContext) -> ParamContext:
    """Target context of a strengthening: mapped parameters are dropped,
    surviving classifiers are substituted."""
    dom = sub.domain()
    return ParamContext(
        skel_params=tuple(s for s in ctx.skel_params if s not in dom),
        dirt_params=tuple(d for d in ctx.dirt_params if d not in dom),
        ty_params=tuple(
            (n, apply(sub, s)) for n, s in ctx.ty_params if n not in dom
        ),
        dirt_cos=tuple(
            (n, apply_dirt(sub, lo), apply_dirt(sub, hi))
            for n, lo, hi in ctx.dirt_cos
            if n not in dom
        ),
        ty_cos=tuple(
            (n, apply(sub, lo), apply(sub, hi))
            for n, lo, hi in ctx.ty_cos
            if n not in dom
        ),
    )


# ---------------------------------------------------------------------------
# Composition: (compose(s2, s1))(p) = s2(s1(p))

def compose(s2: Substitution, s1: Substitution) -> Substitution:
    if not any(s2.maps()):  # every image of s1 is its own image under s2
        return s1.copy()
    out = Substitution(*({n: apply(s2, x) for n, x in part.items()} for part in s1.maps()))
    for part, later in zip(out.maps(), s2.maps()):
        if later:
            for n, x in later.items():
                part.setdefault(n, x)
    return out


def compose_at(s2: Substitution, s1: Substitution, names) -> Substitution:
    """`compose(s2, s1)` at the type and dirt parameters in `names` only,
    at the cost of those names rather than of both substitutions."""
    out = Substitution()
    for part, first, later in ((out.ty, s1.ty, s2.ty), (out.dirt, s1.dirt, s2.dirt)):
        for n in names:
            if n in first:
                part[n] = apply(s2, first[n])
            elif n in later:
                part[n] = later[n]
    return out


def resolve(log) -> Substitution:
    """The substitution that a run's moves make together. `log` lists them
    in run order, each as the three items `map, name, image` of one flat
    list (no entry is an object the collector tracks); `map` names one of
    the five maps of a `Substitution`. The result equals composing the
    entries' one-name substitutions, each after those before; it is built
    once, from the last entry back, with each map's names in log order.

    A run maps each name at most once, and an entry's image mentions only
    names that no earlier entry and not the entry itself maps. The later
    entries then rewrite an image leaf by leaf, so each leaf's final image
    is built once and shared. A reflexivity or empty-below coercion of a
    mapped parameter becomes the derived coercion of its logged image,
    rewritten by the later entries, as repeated application does (not the
    derived coercion of the final image).
    """
    final = _Resolver()
    sub = final.sub
    skels, dirts, tys, dcos, vcos = sub.maps()
    step_dirt, step_ty, walk = final.step_dirt, final.step_ty, final.walk
    items = reversed(log)
    for x, n, kind in zip(items, items, items):  # the entries, last first
        if kind == "dco":
            dcos[n] = walk(x)
        elif kind == "dirt":
            dirts[n] = apply_dirt(sub, x)
            step_dirt[n] = x
        elif kind == "vco":
            vcos[n] = walk(x)
        elif kind == "ty":
            tys[n] = apply(sub, x)
            step_ty[n] = x
        else:
            skels[n] = apply(sub, x)
    return Substitution(*(dict(reversed(m.items())) for m in sub.maps()))  # in log order


class _Resolver:
    """Final images of the names that the entries read so far map.

    The derived reflexivity or empty-below coercion of a mapped parameter
    is built when an image first mentions it; most are never mentioned. It
    is built from the parameter's logged image and the final images of the
    names that image mentions, which only later entries map, all read by
    then: building it later gives the same coercion. An entry that maps a
    parameter to another mentions the other's reflexivity itself, so a
    chain of such entries builds its reflexivities one at a time, not by
    deep recursion.
    """

    def __init__(self):
        self.sub = Substitution()
        self.step_ty: dict[str, ValueType] = {}
        self.refl_ty: dict[str, VCoercion] = {}
        self.step_dirt: dict[str, Dirt] = {}
        self.refl_dirt: dict[str, DCoercion] = {}
        self.empty_under: dict[str, DCoercion] = {}

    def walk(self, g):
        """The coercion `g`, of either sort, under the final images."""
        cls = type(g)
        if cls is DCoParam:
            return self.sub.dco.get(g.name, g)
        if cls is VCoParam:
            return self.sub.vco.get(g.name, g)
        if cls is DCoReflParam:
            return self._derived(g, g.name, self.step_dirt, self.refl_dirt, derived_refl_dirt)
        if cls is DCoEmptyUnder:
            return self._derived(g, g.tail, self.step_dirt, self.empty_under, derived_empty)
        if cls is VCoReflParam:
            return self._derived(g, g.name, self.step_ty, self.refl_ty, derived_refl_vty)
        return g.rebuild(_Resolver.walk, self)

    def _derived(self, g, name: str, logged: dict, built: dict, derive: Callable):
        """`g`, the derived coercion `derive` of the parameter `name`, built
        once from `name`'s logged image; `g` itself if no entry maps `name`."""
        if name not in logged:
            return g
        got = built.get(name)
        if got is None:
            got = built[name] = self.walk(derive(logged[name]))
        return got


# ---------------------------------------------------------------------------
# Validity

def check_validity(
    sig: Signature, src: ParamContext, sub: Substitution, dst: ParamContext
) -> None:
    """Check `sub : src -> dst`, left to right through `src`: prepare the
    check once, then run it once."""
    ValidityCheck(sig, src, dst).check(sub)


class ValidityCheck:
    """The check of `sub : src -> dst` for every `sub`, prepared once for
    one signature and pair of contexts.

    Each row of `src` keeps a reader for each classifier: a bare parameter
    (or a dirt that is a bare tail) is read as its image by name, a closed
    classifier is its own image, and any other is substituted, once per
    check for equal classifiers of type parameters. A check then costs
    lookups and comparisons.

    Skeletons and endpoints are compared as interned values, so equal ones
    usually compare by identity: a check against `EMPTY_CONTEXT` interns
    them in `sig.interned`, which a draw's images already are, and any
    other check in a table of its own. Three things are remembered for the
    checker's life. By the identity of an image: the skeleton of each type
    image, and the endpoints of each coercion image (and, before that, once
    per signature in `sig.ground_checks`). An entry holds its image, so no
    other object can take that identity while the entry lives: an entry
    found by identity is the image's own. And copies of the maps of the
    last substitution that passed: a substitution equal to it passes
    without its rows being read again. The witness of a run without phase steps is one, as it
    grounds the reduced context with the replayed instantiation's own
    images, whose comparison meets the same objects. A failed check
    remembers nothing.

    The rows are checked in the order of `src`, and each failure raises
    what the judgments in `check` raise, as `UnmappedParam` for an
    unmapped name that `dst` lacks. The rows of a ground check also give
    a draw or a replay its coercions (`ground`).
    """

    def __init__(self, sig: Signature, src: ParamContext, dst: ParamContext):
        self.sig, self.src, self.dst = sig, src, dst
        # Only a ground check shares the signature's table of ground values.
        self.table = table = sig.interned if dst is EMPTY_CONTEXT else {}
        shared: dict = {}  # equal classifiers of type parameters share one object
        self.ty_rows = [(n, *_skel_reader(table, s, shared)) for n, s in src.ty_params]
        # Per sort, in context order: each constraint and its bounds' readers.
        self.co_rows = [(sort, [(n, *sort.reader(table, lo), *sort.reader(table, hi))
                                for n, lo, hi in getattr(src, sort.rows)])
                        for sort in SORTS.values()]
        self.skeletons: dict[int, tuple] = {}  # id(type image) -> (image, its skeleton)
        self.ends: dict[int, tuple] = {}  # id(coercion) -> (coercion, endpoints)
        self.accepted: tuple | None = None

    def check(self, sub: Substitution) -> None:
        maps = sub.maps()
        if maps == self.accepted:
            return
        sig, dst, ends, table = self.sig, self.dst, self.ends, self.table
        skels, dirts, tys = sub.skel, sub.dirt, sub.ty

        for name in self.src.skel_params:
            s = skels.get(name)
            try:
                wf_skeleton(dst, SkelParam(name) if s is None else s)
            except CheckError as e:
                _fail(name, s is None, e)

        for name in self.src.dirt_params:
            d = dirts.get(name)
            try:
                wf_dirt(sig, dst, Dirt(NO_OPS, name) if d is None else d)
            except CheckError as e:
                _fail(name, d is None, e)

        wants: dict[int, Skeleton] = {}  # id(classifier) -> its image
        skeletons = self.skeletons
        for name, skel, key, const in self.ty_rows:
            t = tys.get(name)
            if key is not None:
                want = skels.get(key, skel)
            elif const is not None:
                want = const
            else:
                want = wants.get(id(skel))
                if want is None:
                    want = wants[id(skel)] = intern(table, apply(sub, skel))
            known = skeletons.get(id(t))
            if known is not None:
                got = known[1]
            else:
                try:
                    got = intern(table, wf_vtype(sig, dst, TyParam(name) if t is None else t))
                except CheckError as e:
                    _fail(name, t is None, e)
                if t is not None:
                    skeletons[id(t)] = (t, got)
            if got is not want and got != want:
                raise SkeletonMismatch(
                    f"image of {name} has skeleton {got}, classifier demands {want}"
                )

        for sort, rows in self.co_rows:
            images, cos = getattr(sub, sort.params), getattr(sub, sort.cos)
            for name, lo, lkey, lconst, hi, hkey, hconst in rows:
                g = cos.get(name)
                want = (images.get(lkey, lo) if lkey is not None
                        else lconst if lconst is not None else apply(sub, lo),
                        images.get(hkey, hi) if hkey is not None
                        else hconst if hconst is not None else apply(sub, hi))
                known = ends.get(id(g))
                if known is not None:
                    got = known[1]
                else:
                    try:
                        got_lo, got_hi = sort.check_co(sig, dst, sort.co_param(name)
                                                       if g is None else g)
                    except CheckError as e:
                        _fail(name, g is None, e)
                    got = intern(table, got_lo), intern(table, got_hi)
                    if g is not None:
                        ends[id(g)] = (g, got)
                if got != want:
                    _mismatch(name, got, want)

        self.accepted = tuple(dict(m) for m in maps)

    def ground(self, sub: Substitution) -> Substitution:
        """Give each constraint of `src` the inclusion between its bounds'
        images under `sub` (`check.interned_inclusion`), dirt rows first,
        each sort in context order, then check `sub` and return it. A pair
        without one raises the builder's `NoWitness`. Only a check into
        `EMPTY_CONTEXT` grounds: it interns constants in `sig.interned` too."""
        sig, interned = self.sig, self.sig.interned
        for sort, rows in self.co_rows:
            images, cos = getattr(sub, sort.params), getattr(sub, sort.cos)
            for name, lo, lkey, glo, hi, hkey, ghi in rows:
                if glo is None:
                    glo = intern(interned, images.get(lkey, lo) if lkey is not None
                                 else apply(sub, lo))
                if ghi is None:
                    ghi = intern(interned, images.get(hkey, hi) if hkey is not None
                                 else apply(sub, hi))
                co = cos[name] = interned_inclusion(sig, glo, ghi)
                if co is None:
                    sort.inclusion(glo, ghi)  # raises NoWitness with its own message
        self.check(sub)
        return sub


# A reader of a classifier is `(classifier, key, const)`: a bare parameter
# is read by its name `key`, a closed classifier is the constant `const`,
# interned where it is compared as a value, and any other, with both None,
# is substituted.

def _skel_reader(table: dict, s: Skeleton, shared: dict) -> tuple:
    if isinstance(s, SkelParam):
        return s, s.name, None
    if isinstance(s, (SkelUnit, SkelBase)):
        return s, None, intern(table, s)
    return shared.setdefault(s, s), None, None


def _dirt_reader(table: dict, d: Dirt) -> tuple:
    if d.tail is None:
        return d, None, intern(table, d)
    return d, d.tail if not d.ops else None, None


def _vty_reader(table: dict, t: ValueType) -> tuple:
    if isinstance(t, TyParam):
        return t, t.name, None
    return t, None, intern(table, t) if is_closed_vty(t) else None


def _mismatch(name: str, got: tuple, want: tuple):
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
# Constraint sorts
#
# The calculus has two sorts of constraints: value types with value
# coercions and dirts with dirt coercions. The phases, the witness and the
# checks treat both alike, reading what differs off the sort's record.

@dataclass(frozen=True, eq=False, slots=True)
class Sort:
    """What differs between the two constraint sorts. `TYPE` and `DIRT` are
    the two records; `SORTS` finds each by name, in context order."""

    name: str  # "type" | "dirt", as a phase step names its sort
    params: str  # the Substitution map of its parameters' images
    cos: str  # the Substitution map of its constraints' coercions
    rows: str  # the ParamContext field of its constraints
    coercion: type  # the class of its coercions
    bare: Callable  # name -> the parameter as an image
    named: Callable  # image -> the parameter it names, None for closed data
    check_co: Callable  # (sig, ctx, coercion) -> its (lower, upper) endpoints
    endpoint: Callable  # (ground coercion that checks, upper) -> that endpoint, unchecked
    refl: Callable  # image -> its derived reflexivity
    co_param: Callable  # name -> the coercion parameter
    compose: Callable  # (after, before) -> their composition
    inclusion: Callable  # (lo, hi) -> the canonical inclusion coercion; else NoWitness
    reader: Callable  # (table, bound) -> `ValidityCheck`'s reader of the bound
    subst: Callable  # (params, cos) -> a substitution of these two maps only


DIRT = Sort(
    name="dirt", params="dirt", cos="dco", rows="dirt_cos", coercion=DCoercion,
    bare=lambda name: Dirt(NO_OPS, name), named=lambda d: d.tail,
    check_co=check_dco, endpoint=dco_endpoint,
    refl=derived_refl_dirt, co_param=DCoParam, compose=DCoCompose,
    inclusion=dirt_inclusion_coercion, reader=_dirt_reader,
    subst=lambda params, cos: Substitution({}, params, {}, cos, {}))
TYPE = Sort(
    name="type", params="ty", cos="vco", rows="ty_cos", coercion=VCoercion,
    bare=TyParam, named=lambda t: t.name if isinstance(t, TyParam) else None,
    check_co=check_vco, endpoint=vco_endpoint,
    refl=derived_refl_vty, co_param=VCoParam, compose=VCoCompose,
    inclusion=value_inclusion_coercion, reader=_vty_reader,
    subst=lambda params, cos: Substitution({}, {}, params, {}, cos))
SORTS = {sort.name: sort for sort in (DIRT, TYPE)}


def sort_of(co) -> Sort | None:
    """The sort of a value or dirt coercion, None for anything else."""
    for sort in SORTS.values():
        if isinstance(co, sort.coercion):
            return sort
    return None
