"""Simplify cost per parameter past the bench sizes, and the collector's share.

Runs `cli.cmd_simplify` three times per size on three shapes, each at
1,600, 6,400 and 25,600 parameters: under `all`, the chain and ladder
contexts of `gen.shape_context` (parameters per sort), with the shape's own
polarity (first node negative, last positive) carried by the item's type;
and under `scc`, the reduction-bound `gen.structural_context` at depth 2
(output parameters), whose type runs from its first type parameter to its
last. For each size it prints the median seconds of the three runs, the
median and range of their microseconds per parameter, and the median
milliseconds of a few calls of the benchmark's fixed speed probe
(`bench/pace.py`) taken before and after the runs: the shared host's speed
drifts, and two runs of a size compare only where their probes agree. It
also prints, from the last run, the collector-tracked objects that the
result keeps alive per parameter (what `gc.get_objects()` counts while the
result is held, after a collection, less what it counted before the run),
the steps, and the collections of each generation of the cyclic collector
during the run, from `gc.get_stats()` before and after.

    PYTHONPATH=src python tests/scale.py [size ...]

A plain script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
from pathlib import Path

from coersimp.cli import cmd_simplify
from coersimp.corpus import CorpusItem
from coersimp.polarity import fp_vty
from coersimp.syntax import CompType, Dirt, TyArrow, TyParam, TyUnit

from gen import TEST_SIG, shape_context, structural_context

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import pace  # noqa: E402  (the benchmark's speed probe, used read-only)

SIZES = (1600, 6400, 25600)
REPEATS = 3  # runs per size
PROBES = 5  # probe calls per median


def shape_item(family: str, n: int) -> CorpusItem:
    """The shape as a corpus item without a term; its type is
    `(unit -> a<first> ! d<first>) -> a<last> ! d<last>`."""
    ctx, pol = shape_context(family, n)
    (first,), (last,) = {p[1:] for p in pol.neg}, {p[1:] for p in pol.pos}
    start = TyArrow(TyUnit(), CompType(TyParam(f"a{first}"), Dirt(frozenset(), f"d{first}")))
    poltype = TyArrow(start, CompType(TyParam(f"a{last}"), Dirt(frozenset(), f"d{last}")))
    assert fp_vty(poltype) == pol, (family, n)
    return CorpusItem(f"{family}_n{n}", TEST_SIG, ctx, poltype, None)


def struct_item(n: int) -> CorpusItem:
    """The structural shape at depth 2 and `n` output parameters as a
    corpus item without a term; its type is `f<first> -> f<last> ! {}`."""
    ctx = structural_context(2, n)
    (first, _), (last, _) = ctx.ty_params[0], ctx.ty_params[-1]
    poltype = TyArrow(TyParam(first), CompType(TyParam(last), Dirt(frozenset(), None)))
    return CorpusItem(f"struct_n{n}", TEST_SIG, ctx, poltype, None)


# shape -> (its item at a size, the preset it runs under)
RUNS = {
    "chain": (lambda n: shape_item("chain", n), "all"),
    "ladder": (lambda n: shape_item("ladder", n), "all"),
    "struct": (struct_item, "scc"),
}


def probe_ms() -> float:
    """The median milliseconds of PROBES calls of `pace.probe()`."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        pace.probe()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def main(sizes) -> None:
    print(f"{'shape':<8}{'params':>8}{'seconds':>10}{'us/param':>10}{'range':>12}"
          f"{'probe ms':>12}{'objs/param':>12}{'steps':>8}{'gen0':>7}{'gen1':>6}{'gen2':>6}")
    for family, (make, preset) in RUNS.items():
        for n in sizes:
            item = make(n)
            probe_before = probe_ms()
            took = []
            for _ in range(REPEATS):
                gc.collect()
                before = [g["collections"] for g in gc.get_stats()]
                tracked = len(gc.get_objects())
                start = time.perf_counter()
                sim = cmd_simplify(item, preset)[0]
                took.append(time.perf_counter() - start)
                after = [g["collections"] for g in gc.get_stats()]
                runs = [b - a for a, b in zip(before, after)]
                gc.collect()  # what the run left as garbage is not kept alive by `sim`
                kept = len(gc.get_objects()) - tracked
                steps = len(sim.phases.steps)
                del sim  # before the next run is made
            probes = f"{probe_before:.2f}/{probe_ms():.2f}"
            per_param = f"{min(took) / n * 1e6:.0f}-{max(took) / n * 1e6:.0f}"
            print(f"{family:<8}{n:>8}{statistics.median(took):>10.2f}"
                  f"{statistics.median(took) / n * 1e6:>10.0f}{per_param:>12}{probes:>12}"
                  f"{kept / n:>12.1f}{steps:>8}{runs[0]:>7}{runs[1]:>6}{runs[2]:>6}", flush=True)


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
