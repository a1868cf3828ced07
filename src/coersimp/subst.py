"""Substitutions over the five parameter kinds, their application, validity
checking, and composition, and the erasure of the casts that application
made trivial.

A substitution is five finite maps. Mappings that are omitted are identities:
applying a substitution to a parameter outside its domain leaves it alone.
Application is homomorphic on all syntax, with two non-obvious clauses:

* reflexivity coercions on parameters turn into the *derived* reflexivity of
  the image (`refl_a` under `{a -> unit -> unit!d}` becomes the full arrow
  reflexivity), and
* the empty-below-tail coercion turns into the derived empty coercion of the
  image dirt.

Dirt application flattens: substituting a tail re-canonicalizes the op set.

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
    is_closed_vty,
    value_inclusion_coercion,
    vco_endpoint,
    wf_dirt,
    wf_skeleton,
    wf_vtype,
)
from .syntax import (
    EMPTY_CONTEXT,
    App,
    CastC,
    CastV,
    CCoercion,
    CompTerm,
    CompType,
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

    def is_identity(self) -> bool:
        return not any(self.maps())

    def domain(self) -> set[str]:
        return set().union(*self.maps())

    def copy(self) -> Substitution:
        return Substitution(*map(dict, self.maps()))


# ---------------------------------------------------------------------------
# Application

def apply_skel(sub: Substitution, s: Skeleton) -> Skeleton:
    if isinstance(s, SkelParam):
        return sub.skel.get(s.name, s)
    if isinstance(s, (SkelUnit, SkelBase)):
        return s
    if isinstance(s, SkelArrow):
        return SkelArrow(apply_skel(sub, s.dom), apply_skel(sub, s.cod))
    raise TypeError(f"not a skeleton: {s!r}")


def apply_dirt(sub: Substitution, d: Dirt) -> Dirt:
    image = sub.dirt.get(d.tail)
    if image is None:
        return d
    return Dirt(d.ops | image.ops, image.tail) if d.ops else image


def apply_vty(sub: Substitution, t: ValueType) -> ValueType:
    if isinstance(t, TyParam):
        return sub.ty.get(t.name, t)
    if isinstance(t, (TyUnit, TyBase)):
        return t
    if isinstance(t, TyArrow):
        return TyArrow(apply_vty(sub, t.dom), apply_cty(sub, t.cod))
    raise TypeError(f"not a value type: {t!r}")


def apply_cty(sub: Substitution, c: CompType) -> CompType:
    return CompType(apply_vty(sub, c.ty), apply_dirt(sub, c.dirt))


def apply_dco(sub: Substitution, g: DCoercion) -> DCoercion:
    if isinstance(g, DCoParam):
        return sub.dco.get(g.name, g)
    if isinstance(g, DCoReflParam):
        if g.name in sub.dirt:
            return derived_refl_dirt(sub.dirt[g.name])
        return g
    if isinstance(g, DCoReflEmpty):
        return g
    if isinstance(g, DCoEmptyUnder):
        if g.tail in sub.dirt:
            return derived_empty(sub.dirt[g.tail])
        return g
    if isinstance(g, DCoUnionBoth):
        return DCoUnionBoth(g.op, apply_dco(sub, g.body))
    if isinstance(g, DCoUnionRight):
        return DCoUnionRight(g.op, apply_dco(sub, g.body))
    if isinstance(g, DCoCompose):
        return DCoCompose(apply_dco(sub, g.after), apply_dco(sub, g.before))
    raise TypeError(f"not a dirt coercion: {g!r}")


def apply_vco(sub: Substitution, g: VCoercion) -> VCoercion:
    if isinstance(g, VCoParam):
        return sub.vco.get(g.name, g)
    if isinstance(g, VCoReflParam):
        if g.name in sub.ty:
            return derived_refl_vty(sub.ty[g.name])
        return g
    if isinstance(g, (VCoReflUnit, VCoReflBase)):
        return g
    if isinstance(g, VCoArrow):
        return VCoArrow(apply_vco(sub, g.arg), apply_cco(sub, g.res))
    if isinstance(g, VCoCompose):
        return VCoCompose(apply_vco(sub, g.after), apply_vco(sub, g.before))
    raise TypeError(f"not a value coercion: {g!r}")


def apply_cco(sub: Substitution, g: CCoercion) -> CCoercion:
    return CCoercion(apply_vco(sub, g.vco), apply_dco(sub, g.dco))


def apply_value(sub: Substitution, v: ValueTerm) -> ValueTerm:
    if isinstance(v, (Var, UnitVal)):
        return v
    if isinstance(v, Lam):
        return Lam(v.var, apply_vty(sub, v.ty), apply_comp(sub, v.body))
    if isinstance(v, CastV):
        return CastV(apply_value(sub, v.val), apply_vco(sub, v.co))
    raise TypeError(f"not a value term: {v!r}")


def apply_comp(sub: Substitution, c: CompTerm) -> CompTerm:
    if isinstance(c, Return):
        return Return(apply_value(sub, c.val))
    if isinstance(c, OpCall):
        return OpCall(
            c.op,
            apply_value(sub, c.arg),
            c.bind,
            apply_vty(sub, c.bind_ty),
            apply_comp(sub, c.cont),
        )
    if isinstance(c, Do):
        return Do(c.var, apply_comp(sub, c.first), apply_comp(sub, c.rest))
    if isinstance(c, App):
        return App(apply_value(sub, c.fn), apply_value(sub, c.arg))
    if isinstance(c, LetVal):
        return LetVal(c.var, apply_value(sub, c.val), apply_comp(sub, c.body))
    if isinstance(c, CastC):
        return CastC(apply_comp(sub, c.comp), apply_cco(sub, c.co))
    raise TypeError(f"not a computation term: {c!r}")


# ---------------------------------------------------------------------------
# Erasure of trivial casts
#
# A reflexive coercion is a reflexivity on a parameter, unit or a base type;
# the empty or a parameter's dirt reflexivity under any number of
# `DCoUnionBoth`; or an arrow or computation coercion whose parts are all
# reflexive. `DCoUnionRight`, `DCoEmptyUnder` and coercion parameters never
# are. Erasure drops a reflexive link of a composition (`refl . c = c`,
# `c . refl = c`) and a cast by a reflexive coercion. It keeps the tree
# shape of what it keeps, and returns a node itself where nothing under it
# is erased.

def erase_value(t: ValueTerm | CompTerm) -> ValueTerm | CompTerm:
    """`t`, a value or a computation term, with its trivial casts erased:
    `t` itself if it has none. One call per nesting level of terms."""
    kids, same = [], True
    for name in type(t).__match_args__:
        kid = getattr(t, name)
        if isinstance(kid, (ValueTerm, CompTerm)):
            new = erase_value(kid)
            same = same and new is kid
            kid = new
        kids.append(kid)
    if isinstance(t, (CastV, CastC)):
        co, refl = (_erase_vco if isinstance(t, CastV) else _erase_cco)(t.co)
        if refl:
            return kids[0]
        same = same and co is t.co
        kids[1] = co
    return t if same else type(t)(*kids)


def _erase_dco(g: DCoercion) -> tuple[DCoercion, bool]:
    """`g` with its reflexive links erased, and whether that is reflexive."""
    if isinstance(g, (DCoReflEmpty, DCoReflParam)):
        return g, True
    if isinstance(g, (DCoUnionBoth, DCoUnionRight)):
        body, refl = _erase_dco(g.body)
        return (g if body is g.body else type(g)(g.op, body),
                refl and isinstance(g, DCoUnionBoth))
    if isinstance(g, DCoCompose):
        return _erase_link(g, _erase_dco(g.after), _erase_dco(g.before), DCoCompose)
    if isinstance(g, (DCoParam, DCoEmptyUnder)):
        return g, False
    raise TypeError(f"not a dirt coercion: {g!r}")


def _erase_vco(g: VCoercion) -> tuple[VCoercion, bool]:
    """`_erase_dco` for a value coercion."""
    if isinstance(g, (VCoReflParam, VCoReflUnit, VCoReflBase)):
        return g, True
    if isinstance(g, VCoArrow):
        arg, arg_refl = _erase_vco(g.arg)
        res, res_refl = _erase_cco(g.res)
        return (g if arg is g.arg and res is g.res else VCoArrow(arg, res),
                arg_refl and res_refl)
    if isinstance(g, VCoCompose):
        return _erase_link(g, _erase_vco(g.after), _erase_vco(g.before), VCoCompose)
    if isinstance(g, VCoParam):
        return g, False
    raise TypeError(f"not a value coercion: {g!r}")


def _erase_cco(g: CCoercion) -> tuple[CCoercion, bool]:
    vco, vrefl = _erase_vco(g.vco)
    dco, drefl = _erase_dco(g.dco)
    return (g if vco is g.vco and dco is g.dco else CCoercion(vco, dco),
            vrefl and drefl)


def _erase_link(g, after: tuple, before: tuple, compose) -> tuple:
    """The erased composition `g` of the erased links `after . before`."""
    (a, a_refl), (b, b_refl) = after, before
    if a_refl:
        return b, b_refl
    if b_refl:
        return a, False
    return (g if a is g.after and b is g.before else compose(a, b)), False


def apply_context(sub: Substitution, ctx: ParamContext) -> ParamContext:
    """Target context of a strengthening: mapped parameters are dropped,
    surviving classifiers are substituted."""
    dom = sub.domain()
    return ParamContext(
        skel_params=tuple(s for s in ctx.skel_params if s not in dom),
        dirt_params=tuple(d for d in ctx.dirt_params if d not in dom),
        ty_params=tuple(
            (n, apply_skel(sub, s)) for n, s in ctx.ty_params if n not in dom
        ),
        dirt_cos=tuple(
            (n, apply_dirt(sub, lo), apply_dirt(sub, hi))
            for n, lo, hi in ctx.dirt_cos
            if n not in dom
        ),
        ty_cos=tuple(
            (n, apply_vty(sub, lo), apply_vty(sub, hi))
            for n, lo, hi in ctx.ty_cos
            if n not in dom
        ),
    )


# ---------------------------------------------------------------------------
# Composition: (compose(s2, s1))(p) = s2(s1(p))

def compose(s2: Substitution, s1: Substitution) -> Substitution:
    out = Substitution(
        {n: apply_skel(s2, s) for n, s in s1.skel.items()},
        {n: apply_dirt(s2, d) for n, d in s1.dirt.items()},
        {n: apply_vty(s2, t) for n, t in s1.ty.items()},
        {n: apply_dco(s2, g) for n, g in s1.dco.items()},
        {n: apply_vco(s2, g) for n, g in s1.vco.items()})
    for part, later in zip(out.maps(), s2.maps()):
        if later:
            for n, x in later.items():
                part.setdefault(n, x)
    return out


def compose_at(s2: Substitution, s1: Substitution, names) -> Substitution:
    """`compose(s2, s1)` at the type and dirt parameters in `names` only,
    at the cost of those names rather than of both substitutions."""
    out = Substitution()
    for n in names:
        if n in s1.ty:
            out.ty[n] = apply_vty(s2, s1.ty[n])
        elif n in s2.ty:
            out.ty[n] = s2.ty[n]
        if n in s1.dirt:
            out.dirt[n] = apply_dirt(s2, s1.dirt[n])
        elif n in s2.dirt:
            out.dirt[n] = s2.dirt[n]
    return out


def resolve(steps) -> Substitution:
    """`compose(steps[-1], ... compose(steps[1], steps[0]))`, built once,
    from the last step back, with each map's names in step order.

    A run maps each name at most once, and a step's images mention only
    names that no earlier step and not the step itself maps. The later
    steps then rewrite an image leaf by leaf, so each leaf's final image is
    built once and shared. A reflexivity or empty-below coercion of a
    mapped parameter becomes the derived coercion of its step image,
    rewritten by the later steps, as repeated application does (not the
    derived coercion of the final image).
    """
    final = _Resolver()
    for step in reversed(steps):
        final.add(step)
    done = final.sub  # each map's names are in reverse step order
    return Substitution(*(dict(reversed(m.items())) for m in done.maps()))


class _Resolver:
    """Final images of the names that the steps added so far map.

    The derived reflexivity or empty-below coercion of a mapped parameter
    is built when an image first mentions it; most are never mentioned. It
    is built from the parameter's step image and the final images of the
    names that image mentions, which only later steps map, all added by
    then: building it later gives the same coercion. A step that maps a
    parameter to another mentions the other's reflexivity itself, so a
    chain of such steps builds its reflexivities one at a time, not by
    deep recursion.
    """

    def __init__(self):
        self.sub = Substitution()
        self.step_ty: dict[str, ValueType] = {}
        self.refl_ty: dict[str, VCoercion] = {}
        self.step_dirt: dict[str, Dirt] = {}
        self.refl_dirt: dict[str, DCoercion] = {}
        self.empty_under: dict[str, DCoercion] = {}

    def add(self, step: Substitution) -> None:
        """Add the step before those added so far, its names backwards."""
        sub = self.sub
        if step.skel:  # most steps map two of the five kinds
            for n, s in reversed(step.skel.items()):
                sub.skel[n] = apply_skel(sub, s)
        if step.dirt:
            for n, d in reversed(step.dirt.items()):
                sub.dirt[n] = apply_dirt(sub, d)
                self.step_dirt[n] = d
        if step.ty:
            for n, t in reversed(step.ty.items()):
                sub.ty[n] = apply_vty(sub, t)
                self.step_ty[n] = t
        if step.dco:
            for n, g in reversed(step.dco.items()):
                sub.dco[n] = self.dco(g)
        if step.vco:
            for n, g in reversed(step.vco.items()):
                sub.vco[n] = self.vco(g)

    def dco(self, g: DCoercion) -> DCoercion:
        if isinstance(g, DCoParam):
            return self.sub.dco.get(g.name, g)
        if isinstance(g, DCoReflParam):
            if g.name not in self.step_dirt:
                return g
            if g.name not in self.refl_dirt:
                self.refl_dirt[g.name] = self.dco(derived_refl_dirt(self.step_dirt[g.name]))
            return self.refl_dirt[g.name]
        if isinstance(g, DCoEmptyUnder):
            if g.tail not in self.step_dirt:
                return g
            if g.tail not in self.empty_under:
                self.empty_under[g.tail] = self.dco(derived_empty(self.step_dirt[g.tail]))
            return self.empty_under[g.tail]
        if isinstance(g, (DCoUnionBoth, DCoUnionRight)):
            return type(g)(g.op, self.dco(g.body))
        if isinstance(g, DCoCompose):
            return DCoCompose(self.dco(g.after), self.dco(g.before))
        return g  # DCoReflEmpty

    def vco(self, g: VCoercion) -> VCoercion:
        if isinstance(g, VCoParam):
            return self.sub.vco.get(g.name, g)
        if isinstance(g, VCoReflParam):
            if g.name not in self.step_ty:
                return g
            if g.name not in self.refl_ty:
                self.refl_ty[g.name] = self.vco(derived_refl_vty(self.step_ty[g.name]))
            return self.refl_ty[g.name]
        if isinstance(g, VCoArrow):
            return VCoArrow(self.vco(g.arg), CCoercion(self.vco(g.res.vco), self.dco(g.res.dco)))
        if isinstance(g, VCoCompose):
            return VCoCompose(self.vco(g.after), self.vco(g.before))
        return g  # VCoReflUnit, VCoReflBase


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
    unmapped name that `dst` lacks.
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
                wf_dirt(sig, dst, Dirt(frozenset(), name) if d is None else d)
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
                    want = wants[id(skel)] = intern(table, apply_skel(sub, skel))
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
            images, cos, apply = getattr(sub, sort.params), getattr(sub, sort.cos), sort.apply
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
    apply: Callable  # (sub, image) -> the image under sub
    apply_co: Callable  # (sub, coercion) -> the coercion under sub
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
    bare=lambda name: Dirt(frozenset(), name), named=lambda d: d.tail,
    apply=apply_dirt, apply_co=apply_dco, check_co=check_dco, endpoint=dco_endpoint,
    refl=derived_refl_dirt, co_param=DCoParam, compose=DCoCompose,
    inclusion=dirt_inclusion_coercion, reader=_dirt_reader,
    subst=lambda params, cos: Substitution({}, params, {}, cos, {}))
TYPE = Sort(
    name="type", params="ty", cos="vco", rows="ty_cos", coercion=VCoercion,
    bare=TyParam, named=lambda t: t.name if isinstance(t, TyParam) else None,
    apply=apply_vty, apply_co=apply_vco, check_co=check_vco, endpoint=vco_endpoint,
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
