"""Tests of the benchmark itself.

    python3 -m pytest bench
"""

import json
import re
import sys
import time

import corpusgen
import layertrace
import pace
import run

sys.path.insert(0, str(run.SRC))

from coersimp import cli  # noqa: E402
from coersimp.corpus import load_bundled, parse_corpus  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_generators_are_deterministic_per_seed_and_parse():
    for make in (corpusgen.chains_text, corpusgen.structural_text):
        assert make(7) == make(7)
        assert make(7) != make(8)
        items = parse_corpus(make(7))
        assert len({item.name for item in items}) == len(items)


def test_terms_on_chains_and_on_depth_one_structural_items():
    assert all(item.term is not None for item in parse_corpus(corpusgen.chains_text(3)))
    for item in parse_corpus(corpusgen.structural_text(3)):
        assert (item.term is not None) == item.name.startswith("arrow1_"), item.name


def _traced_pass(items, configs):
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("pass.simplify"):
            out = [cli.cmd_simplify(item, preset)[0] for item in items for preset in configs]
    finally:
        tracer.uninstall()
    return tracer, out


def test_traced_self_times_fit_in_the_pass_and_outputs_match():
    items = load_bundled()[:12] + parse_corpus(corpusgen.chains_text(1))[:2]
    configs = ("scc", "all")
    tracer, traced = _traced_pass(items, configs)
    untraced = [cli.cmd_simplify(item, preset)[0] for item in items for preset in configs]
    for a, b in zip(traced, untraced):
        assert a.context == b.context
        assert a.subst == b.subst
        assert [s.phase for s in a.phases.steps] == [s.phase for s in b.phases.steps]

    spans = tracer.spans
    root = next(i for i, s in enumerate(spans) if s[0] == "pass.simplify")
    selfs = layertrace.self_times(spans)
    assert all(t >= 0 for t in selfs)
    wall = spans[root][2] - spans[root][1]
    inside = sum(t for i, t in enumerate(selfs) if i != root)
    assert inside <= wall

    sizes = {item.name: ("f", 1 + i) for i, item in enumerate(items)}
    layers = layertrace.layer_metrics(spans, sizes, {"simplify": 1})
    layer_self = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    assert 0 < layer_self <= wall / 1e9
    assert layers["cli.ops"] == len(items) * len(configs)


def test_metric_names_and_declared_metrics():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert end_to_end == [name for name, _ in run.END_TO_END]
    emitted = [name for name, _ in layertrace.METRICS] + [n for n, _ in run.TRACE_EXTRA]
    assert sorted(per_layer) == sorted(emitted)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    units = dict(run.END_TO_END + tuple(layertrace.METRICS) + run.TRACE_EXTRA)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == units[m["name"]], m["name"]


def test_growth_exponent_shares_one_slope_across_families():
    points = [("a", n, 2.0 * n ** 2) for n in (100, 200, 400)]
    points += [("b", n, 0.01 * n ** 2) for n in (100, 200)]
    assert abs(layertrace.growth_exponent(points) - 2.0) < 1e-9
    assert layertrace.growth_exponent([("a", 100, 1.0)]) == 0.0


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    pct, value = run.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def test_pacer_scales_work_by_the_probes_around_it():
    with pace.Pacer(tick=None, rounds=1) as pacer:
        assert pacer.timed(sum, range(1000)) == sum(range(1000))
        wall, scaled = pacer.end_pass()
        before, after = pacer.probes
        assert wall > 0
        assert scaled == wall * pace.NOMINAL_PROBE_S / ((before + after) / 2)
        assert pacer.end_pass() == (0.0, 0.0)


def test_pacer_ticks_probe_inside_an_operation_and_are_not_work():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    with pace.Pacer(tick=0.02, rounds=1) as pacer:
        start = time.perf_counter()
        assert pacer.timed(busy, 0.2) == "done"
        wall, scaled = pacer.end_pass()
        elapsed = time.perf_counter() - start
    # `busy` runs for 0.2 s of wall time, probes included; they are not work.
    assert len(pacer.probes) >= 5
    assert 0.1 < wall < 0.2 < elapsed
    assert scaled > 0
