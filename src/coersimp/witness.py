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

Each step kind has its own replay rule; dropped constraint names lose their
ground coercion, re-pointed ones get it composed with the bridge coercion,
and freshly introduced names get inclusion coercions that exist by the set
arithmetic the step performed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .check import (
    both_extend,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
    value_inclusion_coercion,
)
from .phases import PhaseResult, PhaseStep
from .polarity import (
    CoercionFamily,
    check_family,
    compose_families,
    precompose_family,
)
from .subst import (
    Substitution,
    apply_dirt,
    apply_vty,
    check_validity,
    compose,
)
from .syntax import (
    DCoCompose,
    Dirt,
    EMPTY_CONTEXT,
    Signature,
    SkelArrow,
    SkelParam,
    TyArrow,
    TyParam,
    VCoCompose,
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


def _step_family(step: PhaseStep, eta: Substitution, special: CoercionFamily) -> CoercionFamily:
    _refl_entries(special, eta, sorted(step.fps.members()))
    return special


def _replay(step: PhaseStep, eta: Substitution) -> tuple[Substitution, CoercionFamily]:
    """Ground instantiation of `step.after` plus the step's own family."""
    out = eta.copy()
    for name in step.subst.domain():
        out.skel.pop(name, None)
        out.ty.pop(name, None)
        out.dirt.pop(name, None)
        out.vco.pop(name, None)
        out.dco.pop(name, None)
    fam = CoercionFamily()
    data = step.data
    kind = (step.phase, step.sort)

    if step.phase in ("cleanup-loop",):
        pass
    elif kind == ("cleanup-parallel", "type"):
        pass
    elif kind == ("cleanup-parallel", "dirt"):
        if data["fresh"] is not None:
            lo = eta.dirt[data["src"]]
            hi = apply_dirt(eta, data["upper"])
            out.dco[data["fresh"]] = dirt_inclusion_coercion(lo, hi)
    elif kind == ("scc", "type"):
        rep = eta.ty[data["rep"]]
        for m in data["merged"]:
            if eta.ty[m] != rep:
                raise WitnessBug(f"cycle members {m}/{data['rep']} differ under eta")
            if m in step.fps.members():
                fam.vco[m] = derived_refl_vty(rep)
    elif kind == ("scc", "dirt"):
        rep = eta.dirt[data["rep"]]
        for m in data["merged"]:
            if eta.dirt[m] != rep:
                raise WitnessBug(f"cycle members {m}/{data['rep']} differ under eta")
            if m in step.fps.members():
                fam.dco[m] = derived_refl_dirt(rep)
    elif kind == ("bridge-in", "type"):
        crossing = eta.vco[data["edge"]]
        for n in data["moved"]:
            out.vco[n] = VCoCompose(eta.vco[n], crossing)
        if data["dst"] in step.fps.members():
            fam.vco[data["dst"]] = crossing
    elif kind == ("bridge-out", "type"):
        crossing = eta.vco[data["edge"]]
        for n in data["moved"]:
            out.vco[n] = VCoCompose(crossing, eta.vco[n])
        if data["src"] in step.fps.members():
            fam.vco[data["src"]] = crossing
    elif kind == ("bridge-in", "dirt"):
        crossing = eta.dco[data["edge"]]
        for n in data["moved"]:
            out.dco[n] = DCoCompose(eta.dco[n], crossing)
        if data["dst"] in step.fps.members():
            fam.dco[data["dst"]] = crossing
    elif kind == ("bridge-out", "dirt"):
        crossing = eta.dco[data["edge"]]
        for n, ops in data["moved"]:
            out.dco[n] = DCoCompose(both_extend(ops, crossing), eta.dco[n])
        if data["src"] in step.fps.members():
            fam.dco[data["src"]] = crossing
    elif kind == ("empty", "dirt"):
        for d in data["params"]:
            if d in step.fps.members():
                fam.dco[d] = derived_empty(eta.dirt[d])
    elif kind == ("full", "dirt"):
        full = step.subst.dirt[data["param"]]
        rows = {n: lo for n, lo, _ in step.before.dirt_cos}
        for n in data["survivors"]:
            out.dco[n] = dirt_inclusion_coercion(eta.dirt[rows[n].tail], full)
        if data["param"] in step.fps.members():
            fam.dco[data["param"]] = dirt_inclusion_coercion(
                eta.dirt[data["param"]], full
            )
    else:
        raise WitnessBug(f"unknown step kind {kind!r}")
    return out, _step_family(step, eta, fam)


def build_witness(run: PhaseResult, eta0: Substitution) -> WitnessResult:
    eta = eta0
    names0 = sorted(run.fps0.members())
    acc = CoercionFamily()
    _refl_entries(acc, eta0, names0)
    # The steps so far, composed, restricted to the tracked names: all that
    # `precompose_family` reads of it.
    so_far, tracked = Substitution(), set(names0)
    for step in run.steps:
        eta_next, step_fam = _replay(step, eta)
        acc = compose_families(acc, precompose_family(step_fam, so_far, names0), run.fps0)
        eta = eta_next
        sub = step.subst
        for n, t in so_far.ty.items():
            so_far.ty[n] = apply_vty(sub, t)
        for n, d in so_far.dirt.items():
            so_far.dirt[n] = apply_dirt(sub, d)
        for n in tracked.intersection(sub.ty):
            so_far.ty.setdefault(n, sub.ty[n])
        for n in tracked.intersection(sub.dirt):
            so_far.dirt.setdefault(n, sub.dirt[n])
    return WitnessResult(eta, acc)


def check_witness(
    sig: Signature,
    run: PhaseResult,
    eta0: Substitution,
    wit: WitnessResult,
) -> None:
    """Validate a witness: `wit.eta` grounds the strengthened context and
    the family bridges the two instantiations at the run's polarity set."""
    check_validity(sig, run.context, wit.eta, EMPTY_CONTEXT)
    check_family(
        sig,
        EMPTY_CONTEXT,
        wit.family,
        compose(wit.eta, run.subst),
        eta0,
        run.fps0,
    )


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
    with `compose(result, red.subst)` agreeing with `eta0` exactly."""
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
    """Witness for a whole simplification run, reduction included."""
    eta_r = replay_reduction(sig, sim.reduction, eta0)
    wit = build_witness(sim.phases, eta_r)
    names0 = sorted(sim.fps0.members())
    fam = precompose_family(wit.family, sim.reduction.subst, names0)
    return WitnessResult(wit.eta, fam)


def check_witness_total(sig: Signature, sim, eta0: Substitution,
                        wit: WitnessResult) -> None:
    check_validity(sig, sim.context, wit.eta, EMPTY_CONTEXT)
    check_family(
        sig,
        EMPTY_CONTEXT,
        wit.family,
        compose(wit.eta, sim.subst),
        eta0,
        sim.fps0,
    )
