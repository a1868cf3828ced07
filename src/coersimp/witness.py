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

from .check import (
    dco_endpoint,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
    vco_endpoint,
)
from .phases import PhaseResult, PhaseStep
from .polarity import (
    CoercionFamily,
    check_family,
    compose_families,
    fp_dirt,
    fp_vty,
    precompose_family,
)
from .subst import (
    Substitution,
    apply_dco,
    apply_dirt,
    apply_vco,
    apply_vty,
    check_validity,
    compose,
)
from .syntax import (
    Dirt,
    EMPTY_CONTEXT,
    Signature,
    SkelArrow,
    SkelParam,
    TyArrow,
    TyParam,
)


class WitnessBug(Exception):
    """The trace and the instantiation disagree; indicates a phase defect."""


@dataclass
class WitnessResult:
    eta: Substitution  # ground instantiation of the strengthened context
    family: CoercionFamily  # compose(eta, run.subst) <= eta0 at run.fps0


def _refl_entries(fam: CoercionFamily, eta: Substitution, names) -> None:
    for name in names:
        if name in fam.vco or name in fam.dco:
            continue
        if name in eta.ty:
            fam.vco[name] = derived_refl_vty(eta.ty[name])
        elif name in eta.dirt:
            fam.dco[name] = derived_refl_dirt(eta.dirt[name])
        else:
            raise WitnessBug(f"tracked parameter {name} has no ground image")


def _ground(entry, eta: Substitution, apply):
    """The ground coercion a step witness entry stands for under `eta`."""
    if isinstance(entry, tuple):
        lo, hi = entry
        return dirt_inclusion_coercion(apply_dirt(eta, lo), apply_dirt(eta, hi))
    return apply(eta, entry)


def _replay(step: PhaseStep, eta: Substitution) -> CoercionFamily:
    """Turn `eta`, in place, from a ground instantiation of the context
    before `step` into one after it; return the step's own family entries."""
    typed = step.sort == "type"
    apply, endpoint = (apply_vco, vco_endpoint) if typed else (apply_dco, dco_endpoint)
    new = {name: _ground(entry, eta, apply) for name, entry in step.eta.items()}
    fam = CoercionFamily()
    own, images = (fam.vco, eta.ty) if typed else (fam.dco, eta.dirt)
    for p, entry in step.family.items():
        # The entry ends at p's image at a positive p, and starts there otherwise.
        co = own[p] = _ground(entry, eta, apply)
        if endpoint(co, p in step.fps.pos) != images[p]:
            raise WitnessBug(f"family entry for {p} misses its image {images[p]} under eta")
    sub = step.subst
    for part, names in ((eta.skel, sub.skel), (eta.ty, sub.ty), (eta.dirt, sub.dirt),
                        (eta.vco, sub.vco), (eta.dco, sub.dco)):
        for name in names:
            part.pop(name, None)
    (eta.vco if typed else eta.dco).update(new)
    return fam


def _image_params(so_far: Substitution, name: str) -> frozenset[str]:
    if name in so_far.ty:
        return fp_vty(so_far.ty[name]).members()
    if name in so_far.dirt:
        return fp_dirt(so_far.dirt[name]).members()
    return frozenset((name,))


def build_witness(run: PhaseResult, eta0: Substitution) -> WitnessResult:
    eta = eta0.copy()
    names0 = sorted(run.fps0.members())
    acc = CoercionFamily()
    _refl_entries(acc, eta0, names0)
    # The steps so far, composed, restricted to the tracked names: all that
    # `precompose_family` reads of it. A name the composition has not moved
    # is its own image. `users` maps each parameter to the tracked names
    # whose image mentions it.
    so_far = Substitution()
    users = {n: {n} for n in names0}
    for step in run.steps:
        special = _replay(step, eta)
        # Only names whose image meets the step's own entries change; at
        # every other name the step's family is a reflexivity.
        touched = {n for p in special.members() for n in users.get(p, ())}
        if touched:
            _refl_entries(special, eta, {p for n in touched for p in _image_params(so_far, n)})
            step_acc = compose_families(
                acc, precompose_family(special, so_far, touched), run.fps0)
            acc.vco.update(step_acc.vco)
            acc.dco.update(step_acc.dco)
        sub = step.subst
        for n in {n for p in (*sub.ty, *sub.dirt) for n in users.pop(p, ())}:
            if n in so_far.ty or n in sub.ty:
                so_far.ty[n] = apply_vty(sub, so_far.ty.get(n, TyParam(n)))
            else:
                so_far.dirt[n] = apply_dirt(sub, so_far.dirt.get(n, Dirt(frozenset(), n)))
            for p in _image_params(so_far, n):
                users.setdefault(p, set()).add(n)
    return WitnessResult(eta, acc)


# ---------------------------------------------------------------------------
# Lifting a witness over the canonicalizing reduction
#
# Reduction only decomposes: each replaced parameter's image is a pattern
# over the reduced parameters, and a ground instantiation of the original
# context factors through it exactly (no coercion needed). Matching the
# patterns against the ground images recovers the instantiation of the
# reduced context; the phase witness built from there is then precomposed
# with the reduction substitution to speak about the original parameters.

def _match_skel(pattern, ground, eta: Substitution) -> None:
    if isinstance(pattern, SkelParam):
        prev = eta.skel.get(pattern.name)
        if prev is None:
            eta.skel[pattern.name] = ground
        elif prev != ground:
            raise WitnessBug(f"skeleton {pattern.name} matched twice, unequally")
    elif isinstance(pattern, SkelArrow):
        if not isinstance(ground, SkelArrow):
            raise WitnessBug(f"skeleton shape mismatch: {pattern} vs {ground}")
        _match_skel(pattern.dom, ground.dom, eta)
        _match_skel(pattern.cod, ground.cod, eta)
    elif pattern != ground:
        raise WitnessBug(f"skeleton mismatch: {pattern} vs {ground}")


def _match_dirt(pattern: Dirt, ground: Dirt, eta: Substitution) -> None:
    if ground.tail is not None:
        raise WitnessBug(f"instantiation image {ground} is not ground")
    if pattern.tail is None:
        if pattern.ops != ground.ops:
            raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")
        return
    if not pattern.ops <= ground.ops:
        raise WitnessBug(f"dirt mismatch: {pattern} vs {ground}")
    rest = Dirt(ground.ops - pattern.ops, None)
    prev = eta.dirt.get(pattern.tail)
    if prev is None:
        eta.dirt[pattern.tail] = rest
    elif prev != rest:
        raise WitnessBug(f"dirt {pattern.tail} matched twice, unequally")


def _match_vty(pattern, ground, eta: Substitution) -> None:
    if isinstance(pattern, TyParam):
        prev = eta.ty.get(pattern.name)
        if prev is None:
            eta.ty[pattern.name] = ground
        elif prev != ground:
            raise WitnessBug(f"type {pattern.name} matched twice, unequally")
    elif isinstance(pattern, TyArrow):
        if not isinstance(ground, TyArrow):
            raise WitnessBug(f"type shape mismatch: {pattern} vs {ground}")
        _match_vty(pattern.dom, ground.dom, eta)
        _match_vty(pattern.cod.ty, ground.cod.ty, eta)
        _match_dirt(pattern.cod.dirt, ground.cod.dirt, eta)
    elif pattern != ground:
        raise WitnessBug(f"type mismatch: {pattern} vs {ground}")


def replay_reduction(sig: Signature, red, eta0: Substitution) -> Substitution:
    """The instantiation of the reduced context that `eta0` factors through,
    with `compose(result, red.subst)` agreeing with `eta0` exactly.

    The result grounds the reduced context with fresh inclusion coercions
    and is checked valid before it is returned. `build_witness_total` does
    not replay a reduction that returned its input; there the result would
    be `eta0` itself."""
    rc = red.context
    eta = Substitution()
    for s in rc.skel_params:
        if s in eta0.skel:
            eta.skel[s] = eta0.skel[s]
    for d in rc.dirt_params:
        if d in eta0.dirt:
            eta.dirt[d] = eta0.dirt[d]
    for a, _ in rc.ty_params:
        if a in eta0.ty:
            eta.ty[a] = eta0.ty[a]
    # Reduction's substitution also maps the intermediate names it made up
    # on the way; only the original names have ground images, and theirs
    # are already fully composed.
    for name, img in red.subst.skel.items():
        if name in eta0.skel:
            _match_skel(img, eta0.skel[name], eta)
    for name, img in red.subst.dirt.items():
        if name in eta0.dirt:
            _match_dirt(img, eta0.dirt[name], eta)
    for name, img in red.subst.ty.items():
        if name in eta0.ty:
            _match_vty(img, eta0.ty[name], eta)

    # Coercion names get fresh inclusion witnesses; the bounds hold because
    # the factored instantiation satisfies every reduced constraint.
    for name, lo, hi in rc.dirt_cos:
        eta.dco[name] = dirt_inclusion_coercion(apply_dirt(eta, lo), apply_dirt(eta, hi))
    for name, lo, hi in rc.ty_cos:
        eta.vco[name] = value_inclusion_coercion(apply_vty(eta, lo), apply_vty(eta, hi))

    check_validity(sig, rc, eta, EMPTY_CONTEXT)
    for name in eta0.ty:
        img = red.subst.ty.get(name, TyParam(name))
        if apply_vty(eta, img) != eta0.ty[name]:
            raise WitnessBug(f"reduction replay does not factor {name}")
    for name in eta0.dirt:
        img = red.subst.dirt.get(name, Dirt(frozenset(), name))
        if apply_dirt(eta, img) != eta0.dirt[name]:
            raise WitnessBug(f"reduction replay does not factor {name}")
    return eta


def build_witness_total(sig: Signature, sim, eta0: Substitution) -> WitnessResult:
    """Witness for a whole simplification run, reduction included.

    `eta0` must be a valid instantiation of `sim.original`, as `sample_eta`
    checks before it returns one. When reduction returned its input (a
    canonical context, with an empty substitution), `eta0` then already
    grounds the reduced context, and it is not replayed or checked again.
    """
    red = sim.reduction
    eta_r = eta0 if red.context is sim.original else replay_reduction(sig, red, eta0)
    wit = build_witness(sim.phases, eta_r)
    names0 = sorted(sim.fps0.members())
    fam = precompose_family(wit.family, red.subst, names0)
    return WitnessResult(wit.eta, fam)


def check_witness_total(sig: Signature, sim, eta0: Substitution,
                        wit: WitnessResult) -> None:
    """Validate a witness of a run (a `SimplifyResult` or a `PhaseResult`):
    `wit.eta` grounds the strengthened context and the family links the
    two instantiations at the run's polarity set."""
    check_validity(sig, sim.context, wit.eta, EMPTY_CONTEXT)
    check_family(
        sig,
        EMPTY_CONTEXT,
        wit.family,
        compose(wit.eta, sim.subst),
        eta0,
        sim.fps0,
    )
