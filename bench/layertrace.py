"""Span tracing of the coersimp layers, installed from outside the package.

`Tracer.install` wraps the public functions listed in `LAYERS` and rebinds
each wrapper in every `coersimp` module that imported the function by
name, so calls through `from .x import f` are traced too. Each call
records a span `[name, start_ns, end_ns, parent, attrs]` in memory; a
wrapped function called directly inside a span of its own name (plain
recursion such as `eval_value -> eval_comp -> eval_value`) records no new
span. `phases.run_phases` is replaced by a function that calls the original
once per instruction, so each phase kind gets its own span.

`layer_metrics` turns the spans into the per-layer metrics. A layer's self
time is its spans' durations minus the time their child spans cover; its
total time includes them.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function, span name). Several functions may share a span name.
LAYERS = (
    ("cli", "cmd_simplify", "cli.simplify"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_report", "cli.report"),
    ("corpus", "parse_corpus", "corpus.parse"),
    ("phases", "simplify", "phases.simplify"),
    ("reduce", "reduce_context", "reduce"),
    ("subst", "apply_context", "subst.apply_context"),
    ("subst", "compose", "subst.compose"),
    ("polarity", "subst_fps", "polarity.subst_fps"),
    ("graph", "build_type_graph", "graph.build"),
    ("graph", "build_dirt_graph", "graph.build"),
    ("graph", "tarjan_scc", "graph.tarjan"),
    ("witness", "replay_reduction", "witness.replay_reduction"),
    ("witness", "build_witness_total", "witness.build"),
    ("witness", "check_witness_total", "witness.check"),
    ("sample", "sample_eta", "sample.eta"),
    ("semantics", "eval_value", "semantics.eval"),
    ("semantics", "eval_comp", "semantics.eval"),
    ("semantics", "interp_vco", "semantics.cast"),
    ("semantics", "interp_cco", "semantics.cast"),
    ("semantics", "check_square_value", "semantics.square"),
    ("check", "type_of_value", "check.type_of_value"),
)

PHASE_KINDS = ("cleanup", "scc", "bridge", "empty", "full")
STEP_KINDS = ("cleanup-loop", "cleanup-parallel", "scc", "bridge-in",
              "bridge-out", "empty", "full")
CALLERS = ("phases", "reduce", "witness")

# Metrics taken over verify passes; every other metric is taken over
# simplify passes. Each is reported per pass of its kind.
VERIFY_PREFIXES = ("witness.", "sample.", "semantics.",
                   "subst.apply_context.by_witness.", "subst.compose.by_witness.")

# Per-layer metrics and units, in output order.
METRICS = (
    [(f"phases.{k}.self_s", "s") for k in PHASE_KINDS]
    + [(f"phases.{k}.total_s", "s") for k in PHASE_KINDS]
    + [(f"phases.steps.{k}", "count") for k in STEP_KINDS]
    + [("phases.bridge.growth_exp", "exp"), ("phases.scc.growth_exp", "exp")]
    + [(f"subst.{f}.by_{c}.{m}", u)
       for f in ("apply_context", "compose") for c in CALLERS
       for m, u in (("calls", "count"), ("self_s", "s"))]
    + [("subst.apply_context.growth_exp", "exp"),
       ("polarity.subst_fps.calls", "count"), ("polarity.subst_fps.self_s", "s"),
       ("graph.build.calls", "count"), ("graph.build.self_s", "s"),
       ("graph.tarjan.calls", "count"),
       ("reduce.self_s", "s"), ("reduce.total_s", "s"), ("reduce.calls", "count"),
       ("reduce.out_params", "count"), ("reduce.growth_exp", "exp"),
       ("witness.replay_reduction.self_s", "s"), ("witness.build.self_s", "s"),
       ("witness.check.self_s", "s"), ("witness.build.growth_exp", "exp"),
       ("sample.eta.calls", "count"), ("sample.eta.self_s", "s"),
       ("sample.strict_retry_ratio", "ratio"),
       ("semantics.eval.self_s", "s"), ("semantics.cast.self_s", "s"),
       ("semantics.square.self_s", "s"), ("semantics.cast.calls", "count"),
       ("check.type_of_value.calls", "count"), ("check.type_of_value.self_s", "s"),
       ("corpus.parse_s", "s"), ("corpus.items", "count"),
       ("cli.self_s", "s"), ("cli.ops", "count")]
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, attrs]
        self.stack: list[int] = []
        self._undo: list[tuple] = []
        self._limit = None

    @contextmanager
    def span(self, name: str, attrs=None):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter_ns()
            self.stack.pop()

    def _wrapper(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, _attrs(name, args, kwargs)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if name == "reduce":
                rec[4] = {"out_params": len(result.context.ty_params)
                          + len(result.context.dirt_params)}
            return result

        return traced

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("coersimp"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        """Wrap every layer. Each traced call adds one frame, so the
        recursion limit doubles while installed: deep recursions (a
        witness family nests one composition per phase step) must fail or
        pass exactly as they do untraced."""
        self._limit = sys.getrecursionlimit()
        sys.setrecursionlimit(2 * self._limit + 100)
        phases = importlib.import_module("coersimp.phases")
        stepped = self._stepped_run_phases(phases)
        for mod_name, attr, name in LAYERS:
            mod = importlib.import_module(f"coersimp.{mod_name}")
            original = getattr(mod, attr)
            self._rebind(original, self._wrapper(original, name))
        self._rebind(phases.run_phases, stepped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()
        if self._limit is not None:
            sys.setrecursionlimit(self._limit)

    def _stepped_run_phases(self, phases):
        """`run_phases` driven one instruction at a time, each in a span
        `phases.<kind>` carrying its step counts. Threading the context,
        polarity set and name supply through gives the same result as one
        call; the glue composition runs untraced in a `trace.glue` span."""
        original = phases.run_phases
        compose = importlib.import_module("coersimp.subst").compose
        seeded = importlib.import_module("coersimp.syntax").NameSupply.seeded

        def run_phases(sig, ctx, fps, instructions, supply=None):
            if supply is None:
                supply = seeded(ctx)
            cur_ctx, cur_fps, total, steps = ctx, fps, None, []
            for phase, sort in instructions:
                with self.span(f"phases.{phase}") as rec:
                    part = original(sig, cur_ctx, cur_fps, [(phase, sort)], supply)
                rec[4] = Counter(s.phase for s in part.steps)
                with self.span("trace.glue"):
                    total = part.subst if total is None else compose(part.subst, total)
                cur_ctx, cur_fps = part.context, part.fps
                steps.extend(part.steps)
            if total is None:
                return original(sig, ctx, fps, instructions, supply)
            return phases.PhaseResult(ctx, cur_ctx, total, fps, cur_fps, steps)

        return run_phases

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                attrs = dict(attrs) if isinstance(attrs, Counter) else attrs
                fh.write(json.dumps([name, start, end, parent, attrs]) + "\n")


def _attrs(name: str, args, kwargs):
    if name in ("cli.simplify", "cli.verify"):
        return {"item": args[0].name}
    if name == "sample.eta":
        return {"strict": bool(kwargs.get("strict", False))}
    return None


def growth_exponent(points) -> float:
    """Least-squares slope of log(time) on log(size) over
    `(family, size, time)` points, with one intercept per family so that
    families of different cost share one slope. 0.0 when no family has
    time at two distinct sizes."""
    groups = defaultdict(list)
    for family, size, t in points:
        if size > 0 and t > 0:
            groups[family].append((math.log(size), math.log(t)))
    sxx = sxy = 0.0
    for pts in groups.values():
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx > 0 else 0.0


def self_times(spans) -> list[int]:
    """Duration minus the duration of direct children, per span (ns)."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans, item_sizes: dict[str, tuple[str, int]],
                  passes: dict[str, int]) -> dict:
    """Per-layer metrics from the spans of traced passes.

    Pass roots are spans named `pass.simplify` and `pass.verify`; `passes`
    gives how many of each ran. Metrics are per pass of their kind (see
    VERIFY_PREFIXES); growth exponents fit the self time under each item
    span (`cli.*` with an `item` attribute) against `item_sizes`, which
    maps an item name to its (family, size).
    """
    selfs = self_times(spans)
    kind = [None] * len(spans)  # "simplify" | "verify" | None
    item = [None] * len(spans)
    caller = [None] * len(spans)  # nearest enclosing phases/reduce/witness
    command = [None] * len(spans)  # nearest enclosing cli.* span
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        head = name.split(".")[0]

        def up(values, parent=parent):
            return values[parent] if parent >= 0 else None

        kind[i] = name[5:] if head == "pass" else up(kind)
        item[i] = attrs["item"] if head == "cli" and attrs else up(item)
        caller[i] = head if head in CALLERS else up(caller)
        command[i] = name if head == "cli" else up(command)

    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    by_item: defaultdict = defaultdict(float)
    steps: Counter = Counter()
    out_params = 0
    strict = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        if kind[i] is None:
            continue
        keys = [name]
        if name.startswith("subst."):
            keys.append(f"{name}.by_{caller[parent] if parent >= 0 else None}")
        if name.startswith("cli."):
            keys.append("cli")
        if name == "check.type_of_value" and command[i] != "cli.simplify":
            keys = []
        for key in keys:
            calls[(kind[i], key)] += 1
            self_s[(kind[i], key)] += selfs[i] / 1e9
            total_s[(kind[i], key)] += (end - start) / 1e9
            by_item[(kind[i], key, item[i])] += selfs[i] / 1e9
        if name.startswith("phases.") and isinstance(attrs, Counter) and kind[i] == "simplify":
            steps.update(attrs)
        if name == "reduce" and kind[i] == "simplify" and attrs:
            out_params += attrs["out_params"]
        if name == "sample.eta" and attrs["strict"]:
            strict += 1

    def kind_of(metric: str) -> str:
        return "verify" if metric.startswith(VERIFY_PREFIXES) else "simplify"

    def per_pass(metric: str, value: float) -> float:
        k = kind_of(metric)
        return value / passes[k] if passes.get(k) else 0.0

    def growth(metric: str, key: str) -> float:
        k = kind_of(metric)
        return growth_exponent([(*item_sizes[it], t)
                                for (kk, name, it), t in by_item.items()
                                if kk == k and name == key and it in item_sizes])

    out = {}
    for metric, _unit in METRICS:
        if metric.startswith("phases.steps."):
            out[metric] = per_pass(metric, steps[metric[len("phases.steps."):]])
        elif metric.endswith(".growth_exp"):
            out[metric] = growth(metric, metric[: -len(".growth_exp")])
        elif metric == "reduce.out_params":
            out[metric] = per_pass(metric, out_params)
        elif metric == "sample.strict_retry_ratio":
            draws = calls[("verify", "sample.eta")]
            out[metric] = strict / draws if draws else 0.0
        elif metric in ("corpus.parse_s", "corpus.items"):
            continue  # filled in by the caller, which parses outside passes
        else:
            key, _, stat = metric.rpartition(".")
            k = kind_of(metric)
            table = {"calls": calls, "ops": calls, "self_s": self_s, "total_s": total_s}[stat]
            out[metric] = per_pass(metric, table[(k, key)])
    return out
