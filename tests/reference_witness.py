"""Witness building as it was before sparse families, kept as a test-only
differential oracle.

Every step copies the whole ground instantiation, and every tracked name's
family entry is composed with the step's entry at every step, a derived
reflexivity where the step does not touch the name. It is slow but simple;
`tests/test_witness.py` checks that `coersimp.witness.build_witness`
gives the same instantiation and family entries with the same endpoints.
"""

from __future__ import annotations

from coersimp.check import (
    both_extend,
    derived_empty,
    derived_refl_dirt,
    derived_refl_vty,
    dirt_inclusion_coercion,
)
from coersimp.phases import PhaseResult, PhaseStep
from coersimp.polarity import compose_families, precompose_family
from coersimp.subst import Substitution, apply_dirt, apply as apply_vty
from coersimp.syntax import DCoCompose, VCoCompose
from coersimp.witness import WitnessBug, WitnessResult


def _refl_entries(fam: dict, eta: Substitution, names) -> None:
    for name in names:
        if name in fam:
            continue
        if name in eta.ty:
            fam[name] = derived_refl_vty(eta.ty[name])
        elif name in eta.dirt:
            fam[name] = derived_refl_dirt(eta.dirt[name])
        else:
            raise WitnessBug(f"tracked parameter {name} has no ground image")


def _step_family(step: PhaseStep, eta: Substitution, special: dict) -> dict:
    _refl_entries(special, eta, sorted(step.fps.members()))
    return special


def _replay(step: PhaseStep, eta: Substitution) -> tuple[Substitution, dict]:
    """Ground instantiation of `step.after` plus the step's own family."""
    out = eta.copy()
    for name in step.subst.domain():
        out.skel.pop(name, None)
        out.ty.pop(name, None)
        out.dirt.pop(name, None)
        out.vco.pop(name, None)
        out.dco.pop(name, None)
    fam = {}
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
                fam[m] = derived_refl_vty(rep)
    elif kind == ("scc", "dirt"):
        rep = eta.dirt[data["rep"]]
        for m in data["merged"]:
            if eta.dirt[m] != rep:
                raise WitnessBug(f"cycle members {m}/{data['rep']} differ under eta")
            if m in step.fps.members():
                fam[m] = derived_refl_dirt(rep)
    elif kind == ("bridge-in", "type"):
        crossing = eta.vco[data["edge"]]
        for n in data["moved"]:
            out.vco[n] = VCoCompose(eta.vco[n], crossing)
        if data["dst"] in step.fps.members():
            fam[data["dst"]] = crossing
    elif kind == ("bridge-out", "type"):
        crossing = eta.vco[data["edge"]]
        for n in data["moved"]:
            out.vco[n] = VCoCompose(crossing, eta.vco[n])
        if data["src"] in step.fps.members():
            fam[data["src"]] = crossing
    elif kind == ("bridge-in", "dirt"):
        crossing = eta.dco[data["edge"]]
        for n in data["moved"]:
            out.dco[n] = DCoCompose(eta.dco[n], crossing)
        if data["dst"] in step.fps.members():
            fam[data["dst"]] = crossing
    elif kind == ("bridge-out", "dirt"):
        crossing = eta.dco[data["edge"]]
        for n, ops in data["moved"]:
            out.dco[n] = DCoCompose(both_extend(ops, crossing), eta.dco[n])
        if data["src"] in step.fps.members():
            fam[data["src"]] = crossing
    elif kind == ("empty", "dirt"):
        for d in data["params"]:
            if d in step.fps.members():
                fam[d] = derived_empty(eta.dirt[d])
    elif kind == ("full", "dirt"):
        full = step.subst.dirt[data["param"]]
        rows = {n: lo for n, lo, _ in step.before.dirt_cos}
        for n in data["survivors"]:
            out.dco[n] = dirt_inclusion_coercion(eta.dirt[rows[n].tail], full)
        if data["param"] in step.fps.members():
            fam[data["param"]] = dirt_inclusion_coercion(
                eta.dirt[data["param"]], full
            )
    else:
        raise WitnessBug(f"unknown step kind {kind!r}")
    return out, _step_family(step, eta, fam)


def build_witness(run: PhaseResult, eta0: Substitution) -> WitnessResult:
    eta = eta0
    names0 = sorted(run.fps0.members())
    acc = {}
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
