"""Fixtures shared across test modules."""

import pytest

from coersimp.phases import PRESETS, parse_phase_config, simplify

from gen import TEST_SIG, reference_run, shape_context

SHAPE_CONFIGS = {"all": PRESETS["all"], "full": parse_phase_config("all", full_dirt=True)}


@pytest.fixture(scope="session")
def shape_runs():
    """`(family, n, preset) -> (sim, ref)`: the pipeline's and the reference
    engine's runs on a bench shape, each made once per session and shared
    by the engine and witness differentials. A shape is canonical, so
    reduction returns it as it is and `sim.phases` is the engine's run on
    the shape itself."""
    runs = {}

    def run(family, n, preset):
        key = family, n, preset
        if key not in runs:
            ctx, pol = shape_context(family, n)
            sim = simplify(TEST_SIG, ctx, pol, SHAPE_CONFIGS[preset])
            assert sim.reduction.context == ctx and not any(sim.reduction.subst.maps()), key
            assert sim.phases.fps0 == pol, key
            runs[key] = sim, reference_run(TEST_SIG, sim, SHAPE_CONFIGS[preset])
        return runs[key]

    return run
