"""Per-instance completeness witnesses for phase runs.

A phase run strengthens a context with a substitution `sub`. Completeness
is witnessed instance by instance: given a ground instantiation `eta0` of
the original context (every parameter mapped to closed data, every
constraint name to a ground coercion between the instantiated bounds), the
builder replays the recorded steps and produces

* a ground instantiation `eta` of the strengthened context, and
* a coercion family running `compose(eta, sub) <= eta0` at the run's
  polarity set: at every positive parameter the strengthened image embeds in
  the original one, at every negative parameter the other way round.

Any term typed under the original instantiation can then be recovered from
its strengthened typing by casting along the extended family, which is
exactly what the semantic oracle checks.

Each step states its own witness (`PhaseStep.eta` and `PhaseStep.family`),
so one replay rule serves every step: the step's entries are grounded under
the instantiation so far, the names the step maps lose their ground images,
and the constraints it re-points or introduces take their new coercions.

The builder copies `eta0` once and updates the copy in place, step by step.
A tracked parameter's family entry gains a link only at a step whose own
entries meet its image so far; at every other step the step's family is a
reflexivity there, and composing with it would change nothing. A step thus
costs the size of its change, not the size of the context.
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import dirt_inclusion_coercion, interned_inclusion
from .phases import PhaseResult, PhaseStep
from .polarity import check_family, compose_families, precompose_family
from .subst import SORTS, Substitution, ValidityCheck, apply_dirt, check_validity, compose_at
from .syntax import EMPTY_CONTEXT, Dirt, Signature, TyArrow, TyParam, closed_dirt, intern


class WitnessBug(Exception):
    """The trace and the instantiation disagree; indicates a phase defect."""


@dataclass
class WitnessResult:
    eta: Substitution  # ground instantiation of the strengthened context
    family: dict  # compose(eta, run.subst) <= eta0 at run.fps0


def _ground(entry, eta: Substitution, apply):
    """The ground coercion a step witness entry stands for under `eta`."""
    if isinstance(entry, tuple):
        lo, hi = entry
        return dirt_inclusion_coercion(apply_dirt(eta, lo), apply_dirt(eta, hi))
    return apply(eta, entry)


def _replay(step: PhaseStep, eta: Substitution) -> dict:
    """Turn `eta`, in place, from a ground instantiation of the context
    before `step` into one after it; return the step's own family entries."""
    sort = SORTS[step.sort]
    new = {name: _ground(entry, eta, sort.apply_co) for name, entry in step.eta.items()}
    fam = {}
    images = getattr(eta, sort.params)
    for p, entry in step.family.items():
        # The entry ends at p's image at a positive p, and starts there otherwise.
        co = fam[p] = _ground(entry, eta, sort.apply_co)
        if sort.endpoint(co, p in step.fps.pos) != images[p]:
            raise WitnessBug(f"family entry for {p} misses its image {images[p]} under eta")
    for part, names in zip(eta.maps(), step.subst.maps()):
        for name in names:
            part.pop(name, None)
    getattr(eta, sort.cos).update(new)
    return fam


def build_witness(run: PhaseResult, eta0: Substitution) -> WitnessResult:
    eta = eta0.copy()
    names0 = sorted(run.fps0.members())
    acc = {}
    for name in names0:
        for sort in SORTS.values():
            images = getattr(eta0, sort.params)
            if name in images:
                acc[name] = sort.refl(images[name])
                break
        else:
            raise WitnessBug(f"tracked parameter {name} has no ground image")
    # The steps so far, composed, restricted to the tracked names: all that
    # `precompose_family` reads of it. A name the composition has not moved
    # is its own image. `users` maps each parameter to the tracked names
    # whose image mentions it.
    so_far = Substitution()
    users = {n: {n} for n in names0}
    for step in run.steps:
        special = _replay(step, eta)
        # Only names whose image meets the step's own entries change; at
        # every other name the step's family is a reflexivity. A step maps
        # parameters of its sort, each to one parameter or to closed data,
        # so a touched name's image names just the parameter with an entry.
        touched = {n for p in special for n in users.get(p, ())}
        if touched:
            acc.update(compose_families(
                acc, precompose_family(special, so_far, touched), run.fps0))
        sort, sub = SORTS[step.sort], step.subst
        images = getattr(so_far, sort.params)
        for n in {n for p in getattr(sub, sort.params) for n in users.pop(p, ())}:
            image = images.get(n)
            image = images[n] = sort.apply(sub, sort.bare(n) if image is None else image)
            p = sort.named(image)
            if p is not None:
                users.setdefault(p, set()).add(n)
    return WitnessResult(eta, acc)


# ---------------------------------------------------------------------------
# Lifting a witness over the canonicalizing reduction
#
# Reduction only decomposes: it maps no skeleton parameter, and each type or
# dirt parameter it replaces gets a pattern over the reduced parameters. A
# ground instantiation of the original context therefore factors through
# the reduced one exactly (no coercion needed): matching the image of each
# original name, once, against that name's ground image recovers the
# instantiation of the reduced context. The phase witness built from there
# is then precomposed with the reduction substitution to speak about the
# original parameters.

def _bind(part: dict, name: str, ground) -> None:
    bound = part.setdefault(name, ground)
    if bound is not ground and bound != ground:
        raise WitnessBug(f"{name} matched twice, unequally")


def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution, interned: dict) -> None:
    if ground.tail is not None:
        raise WitnessBug(f"instantiation image {ground} is not ground")
    if pattern.tail is None:
        if pattern.ops != ground.ops:
            raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")
        return
    if not pattern.ops <= ground.ops:
        raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")
    _bind(eta.dirt, pattern.tail,
          closed_dirt(interned, ground.ops - pattern.ops) if pattern.ops else ground)


def _match_vty(pattern, ground, eta: Substitution, interned: dict) -> None:
    if isinstance(pattern, TyParam):
        _bind(eta.ty, pattern.name, ground)
    elif isinstance(pattern, TyArrow):
        if not isinstance(ground, TyArrow):
            raise WitnessBug(f"type shape mismatch: {pattern} vs {ground}")
        _match_vty(pattern.dom, ground.dom, eta, interned)
        _match_vty(pattern.cod.ty, ground.cod.ty, eta, interned)
        _match_dirt(pattern.cod.dirt, ground.cod.dirt, eta, interned)
    elif pattern != ground:
        raise WitnessBug(f"type mismatch: {pattern} vs {ground}")


class ReductionReplay:
    """What `replay_reduction` reads of one reduction, prepared once per run.

    It keeps each original name's pattern, the image of that name under
    reduction; a name reduction kept has none, and its ground image is
    its own. It prepares the reduced context's validity check, whose rows
    also serve the replay: each bound of a reduced constraint is read by
    its sort's reader, as a bare parameter's image, a closed constant
    interned in the signature, or substituted. A replay then matches ground
    images against the patterns, binding each sub-image as the object it
    is and each dirt it computes as the signature's interned one, and asks
    the signature for inclusion coercions between the bounds' images.
    """

    def __init__(self, sig: Signature, red):
        self.sig = sig
        self.dirt_patterns = red.subst.dirt
        self.ty_patterns = red.subst.ty
        self.valid = ValidityCheck(sig, red.context, EMPTY_CONTEXT)

    def replay(self, eta0: Substitution) -> Substitution:
        sig, interned = self.sig, self.sig.interned
        eta = Substitution(skel=dict(eta0.skel))
        dirts, tys = eta.dirt, eta.ty
        patterns = self.dirt_patterns
        for name, ground in eta0.dirt.items():
            pattern = patterns.get(name)
            if pattern is not None:
                _match_dirt(pattern, ground, eta, interned)
            elif ground.tail is not None:
                raise WitnessBug(f"instantiation image {ground} is not ground")
            else:
                _bind(dirts, name, ground)
        patterns = self.ty_patterns
        for name, ground in eta0.ty.items():
            pattern = patterns.get(name)
            if pattern is not None:
                _match_vty(pattern, ground, eta, interned)
            else:
                _bind(tys, name, ground)

        # Coercion names get the signature's inclusion witnesses; the bounds
        # hold because the factored instantiation satisfies every reduced
        # constraint. A closed bound's reader holds its interned image.
        for sort, rows in self.valid.co_rows:
            images, cos, apply = getattr(eta, sort.params), getattr(eta, sort.cos), sort.apply
            for name, lo, lkey, glo, hi, hkey, ghi in rows:
                if glo is None:
                    glo = intern(interned, images.get(lkey, lo) if lkey is not None
                                 else apply(eta, lo))
                if ghi is None:
                    ghi = intern(interned, images.get(hkey, hi) if hkey is not None
                                 else apply(eta, hi))
                co = cos[name] = interned_inclusion(sig, glo, ghi)
                if co is None:
                    sort.inclusion(glo, ghi)  # raises NoWitness with its own message

        self.valid.check(eta)
        return eta


def replay_reduction(plan: ReductionReplay, eta0: Substitution) -> Substitution:
    """The instantiation of the context that `plan`'s reduction returned
    that `eta0` factors through, with `compose(result, red.subst)` agreeing
    with `eta0` exactly.

    Each original dirt and type name's image under reduction (the name
    itself where reduction kept it) is matched once against its ground
    image; a successful match makes the two agree at that name. Reduction's
    substitution also maps intermediate names it made up on the way, which
    have no ground image and are not read. The result grounds the reduced
    context with the signature's inclusion coercions
    (`check.interned_inclusion`) and is checked valid before it is returned.
    `build_witness_total` does not replay a reduction that returned its
    input; there the result would be `eta0` itself."""
    return plan.replay(eta0)


class WitnessPlan:
    """What every witness of one simplification run reads, prepared once
    per run: the reduction's `ReductionReplay`, None where reduction
    returned its input, and the validity check of the strengthened
    context."""

    def __init__(self, sig: Signature, sim):
        red = sim.reduction
        self.replay = None if red.context is sim.original else ReductionReplay(sig, red)
        if self.replay is not None and sim.context is red.context:
            self.valid = self.replay.valid
        else:
            self.valid = ValidityCheck(sig, sim.context, EMPTY_CONTEXT)


def build_witness_total(sig: Signature, sim, eta0: Substitution,
                        plan: WitnessPlan | None = None) -> WitnessResult:
    """Witness for a whole simplification run, reduction included.

    `eta0` must be a valid instantiation of `sim.original`, as
    `Sampler.draw` checks before it returns one. When reduction returned
    its input (a canonical context, with an empty substitution), `eta0`
    then already grounds the reduced context, and it is not replayed or
    checked again. `plan` is the run's `WitnessPlan`; a caller that builds
    one witness may leave it out, and one is prepared for the call.
    """
    if plan is None:
        plan = WitnessPlan(sig, sim)
    eta_r = eta0 if plan.replay is None else replay_reduction(plan.replay, eta0)
    wit = build_witness(sim.phases, eta_r)
    names0 = sorted(sim.fps0.members())
    return WitnessResult(wit.eta, precompose_family(wit.family, sim.reduction.subst, names0))


def check_witness_total(sig: Signature, sim, eta0: Substitution,
                        wit: WitnessResult, plan: WitnessPlan | None = None) -> None:
    """Validate a witness of a run (a `SimplifyResult` or a `PhaseResult`):
    `wit.eta` grounds the strengthened context and the family links the
    two instantiations at the run's polarity set. The family is read only
    at the tracked names, so the composition is built only there. `plan`
    is the run's `WitnessPlan`, if the caller prepared one."""
    if plan is None:
        check_validity(sig, sim.context, wit.eta, EMPTY_CONTEXT)
    else:
        plan.valid.check(wit.eta)
    tracked = sim.fps0.members()
    check_family(sig, EMPTY_CONTEXT, wit.family, compose_at(wit.eta, sim.subst, tracked),
                 eta0, sim.fps0)
