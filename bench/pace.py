"""A fixed pure-Python probe of the machine's current speed.

The host this benchmark was written on runs the same Python code up to 1.6
times slower for seconds at a time (its CPU is shared), and the slow
periods change the process's CPU time as much as its wall time. The
benchmark therefore runs `probe()` every tenth of a second while it times
operations and scales the work by how fast the probe ran around it (see
`Pacer`).

`probe()` does the same kind of work as the package: it builds trees of
small frozen dataclasses, hashes them into dicts and sets, substitutes
through them recursively with `isinstance` dispatch, and compares them.
It does not import the package, so no change to the package changes it.
"""

from __future__ import annotations

import gc
import signal
import time
from dataclasses import dataclass

# The probe's usual time on the machine that defined the benchmark, in a
# quiet period; a scaled time is a wall time converted to that speed
# (NOTES.md, "Pace").
NOMINAL_PROBE_S = 0.0017


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Arrow:
    dom: object
    cod: object


@dataclass(frozen=True)
class _Row:
    ops: frozenset
    tail: object


def _build(depth: int, seed: int):
    if depth == 0:
        return _Var(f"v{seed % 23}")
    if seed % 3 == 0:
        return _Row(frozenset({f"Op{seed % 5}", f"Op{seed % 7}"}), _build(depth - 1, seed * 7 + 1))
    return _Arrow(_build(depth - 1, seed * 5 + 2), _build(depth - 1, seed * 3 + 1))


def _subst(node, env: dict):
    if isinstance(node, _Var):
        return env.get(node.name, node)
    if isinstance(node, _Arrow):
        return _Arrow(_subst(node.dom, env), _subst(node.cod, env))
    return _Row(node.ops, _subst(node.tail, env))


def probe() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    trees = [_build(6, seed) for seed in range(6)]
    env = {f"v{i}": _Var(f"w{i % 5}") for i in range(0, 23, 2)}
    seen = {}
    for tree in trees:
        out = _subst(tree, env)
        seen[out] = seen.get(out, 0) + 1
        seen[tree] = seen.get(tree, 0) + (out == tree)
    return len(seen) + sum(seen.values())


class Pacer:
    """Times operations and measures the machine's speed while they run.

    Use it as a context manager: inside, a `SIGALRM` interval timer ticks
    every `tick` seconds of wall time, and each tick that falls inside an
    operation run through `timed` takes a probe there and then. A probe is
    the median time of `rounds` calls of `probe()`, with the garbage
    collector off (the probe makes no cycles); the pacer also probes once
    on entry and at the end of each pass. The work between two probes is
    scaled by `NOMINAL_PROBE_S` over the mean of those two probes, so each
    part of a pass, even inside a long operation, is converted to the
    speed the machine had while it ran. Probe time is never counted as
    work. With `tick=None` there is no timer and a pass is scaled by the
    probes at its two ends. A probe that would overflow the recursion limit (a tick deep in
    a recursive operation) is skipped, so the operation does not see it.
    """

    def __init__(self, tick: float | None = 0.1, rounds: int = 5) -> None:
        self.tick = tick
        self.rounds = rounds
        self.probes: list[float] = []
        self._probing = False
        self._in_op = False
        self._mark = 0.0
        self._segment = 0.0
        self._wall = 0.0
        self._scaled = 0.0
        self._old_handler = None
        self._pace = None

    def __enter__(self) -> "Pacer":
        self._pace = self._probe()
        if self.tick is not None:
            self._old_handler = signal.signal(signal.SIGALRM, self._on_tick)
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        return self

    def __exit__(self, *exc) -> None:
        if self.tick is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    def _probe(self):
        self._probing = True
        times = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(self.rounds):
                start = time.perf_counter()
                probe()
                times.append(time.perf_counter() - start)
        except RecursionError:
            return None
        finally:
            if was_enabled:
                gc.enable()
            self._probing = False
        times.sort()
        pace = times[len(times) // 2]
        self.probes.append(pace)
        return pace

    def _close_segment(self) -> None:
        pace = self._probe()
        if pace is None:
            return  # the segment stays open until the next probe
        self._scaled += self._segment * NOMINAL_PROBE_S / ((self._pace + pace) / 2)
        self._wall += self._segment
        self._pace = pace
        self._segment = 0.0

    def _on_tick(self, signum, frame) -> None:
        if not self._in_op or self._probing:
            return
        self._segment += time.perf_counter() - self._mark
        self._close_segment()
        self._mark = time.perf_counter()

    def timed(self, fn, *args, **kwargs):
        """Call `fn` and count its time, less any probes, as work."""
        self._mark = time.perf_counter()
        self._in_op = True
        try:
            return fn(*args, **kwargs)
        finally:
            self._in_op = False
            self._segment += time.perf_counter() - self._mark

    def end_pass(self) -> tuple[float, float]:
        """(wall work, scaled work) of the pass that ends here."""
        self._close_segment()
        out = (self._wall, self._scaled)
        self._wall = self._scaled = 0.0
        return out
