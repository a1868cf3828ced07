"""Simplify cost per parameter past the bench sizes, and the collector's share.

Runs `cli.cmd_simplify` once per size on three shapes, each at 1,600,
6,400 and 25,600 parameters: under `all`, the chain and ladder contexts of
`gen.shape_context` (parameters per sort), with the shape's own polarity
(first node negative, last positive) carried by the item's type; and under
`scc`, the reduction-bound `gen.structural_context` at depth 2 (output
parameters), whose type runs from its first type parameter to its last.
For each run it prints the seconds taken, the microseconds per parameter,
the collector-tracked objects that the result keeps alive per parameter
(what `gc.get_objects()` counts while the result is held, after a
collection, less what it counted before the run), the steps, and the
collections of each generation of the cyclic collector during the run,
from `gc.get_stats()` before and after.

    PYTHONPATH=src python tests/scale.py [size ...]

A plain script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import gc
import sys
import time

from coersimp.cli import cmd_simplify
from coersimp.corpus import CorpusItem
from coersimp.polarity import fp_vty
from coersimp.syntax import CompType, Dirt, TyArrow, TyParam, TyUnit

from gen import TEST_SIG, shape_context, structural_context

SIZES = (1600, 6400, 25600)


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


def main(sizes) -> None:
    print(f"{'shape':<8}{'params':>8}{'seconds':>10}{'us/param':>10}{'objs/param':>12}"
          f"{'steps':>8}{'gen0':>7}{'gen1':>6}{'gen2':>6}")
    for family, (make, preset) in RUNS.items():
        for n in sizes:
            item = make(n)
            gc.collect()
            before = [g["collections"] for g in gc.get_stats()]
            tracked = len(gc.get_objects())
            start = time.perf_counter()
            sim = cmd_simplify(item, preset)[0]
            took = time.perf_counter() - start
            after = [g["collections"] for g in gc.get_stats()]
            runs = [b - a for a, b in zip(before, after)]
            gc.collect()  # what the run left as garbage is not kept alive by `sim`
            kept = len(gc.get_objects()) - tracked
            print(f"{family:<8}{n:>8}{took:>10.2f}{took / n * 1e6:>10.0f}{kept / n:>12.1f}"
                  f"{len(sim.phases.steps):>8}{runs[0]:>7}{runs[1]:>6}{runs[2]:>6}", flush=True)
            del sim  # before the next, larger item is built


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]] or SIZES)
