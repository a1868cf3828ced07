"""The coersimp benchmark.

    python3 bench/run.py --workload corpus|chains|structural|all
                         [--seed N] [--seconds S] [--trace 0|1]

One run drives one workload in this process, one operation at a time
(a closed loop with a single client), through the package's public
functions only:

1. set-up: `SETUP_RUNS` times in this process, the package's modules are
   dropped and imported again and the workload's corpus text is parsed;
   the median scaled time is `setup_s`;
2. an untimed warm-up simplify pass that checks every output: the
   substitution of every (item, preset) run passes `check_validity`, and
   one sampled witness per item is built and checked; on `corpus` the
   report must equal `tests/golden_metrics.json`;
3. timed simplify and verify passes, alternating so that each gets about
   half of `--seconds`, with `gc.collect()` before each pass. Every
   simplify pass must reproduce the warm-up's residual size, and every
   verify pass the first one's count of passed samples.

Every timed operation runs through a `pace.Pacer`, which runs a fixed
probe every tenth of a second while it times them. A reported time is the
wall time scaled by the probe times around it to one fixed machine speed,
because the host's speed drifts by up to 1.6x within seconds. The wall
times are in the summary lines and, for set-up and simplify, among the
per-layer metrics.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics; with `--trace 1` the timed part runs untraced for
half the time and traced (layertrace.py) for the rest, the last line carries
the per-layer metrics, and the spans go to
`.bench_out/spans-<workload>-seed<N>.jsonl`. `--workload all` runs each
workload in its own process and prints each one's output.

A failing operation or check never stops the run; it is counted by
exception type. The top-level `attempted`/`failed` count the simplify
operations and verify samples; `ok_share` also counts the untimed checks.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = SRC / "coersimp" / "data" / "corpus.sexp"
GOLDEN = ROOT / "tests" / "golden_metrics.json"
SPAN_DIR = ROOT / ".bench_out"
SETUP_RUNS = 7
STANDARD_CONFIGS = ("none", "scc", "dirt", "type", "all")

sys.path.insert(0, str(BENCH))
import corpusgen  # noqa: E402
import layertrace  # noqa: E402
import pace  # noqa: E402


@dataclass(frozen=True)
class Workload:
    simplify: tuple  # (preset, full_dirt) pairs of one simplify pass
    verify_preset: str  # also the preset of the witness check
    samples: int  # verify samples per item with a term


# Why each workload is there: NOTES.md, "Workloads".
WORKLOADS = {
    # The bundled items as users run them: `report` over the five presets
    # plus all with --full-dirt, `verify` with many samples.
    "corpus": Workload(
        tuple((c, False) for c in STANDARD_CONFIGS) + (("all", True),), "all", 40),
    # Canonical generated contexts: the phases do the work.
    "chains": Workload((("all", False),), "all", 2),
    # Non-canonical generated contexts: reduction does the work.
    "structural": Workload((("none", False), ("scc", False)), "scc", 12),
}

END_TO_END = (
    ("setup_s", "s"), ("simplify_s", "s"), ("verify_s", "s"),
    ("peak_rss_mb", "MB"), ("residual_size", "count"), ("ok_share", "share"),
)
TRACE_EXTRA = (
    ("import_s", "s"), ("trace.overhead_ratio", "ratio"),
    ("trace.simplify_s", "s"), ("trace.verify_s", "s"), ("fail_share", "share"),
    ("wall.setup_s", "s"), ("wall.simplify_s", "s"), ("pace.probe_s", "s"),
    ("setup.cold_s", "s"),
)


@dataclass
class Ledger:
    """Operations and checks attempted and failed, by exception type."""

    ops: int = 0
    failed_ops: int = 0
    checks: int = 0
    failed_checks: int = 0
    by_type: Counter = field(default_factory=Counter)
    wrong: list = field(default_factory=list)  # outputs that failed a check

    def fail_op(self, kind: str, count: int = 1) -> None:
        self.failed_ops += count
        self.by_type[kind] += count

    def check(self, label: str, fn) -> None:
        """Run one untimed output check. A `CheckError` or `WitnessBug`
        from the checker means a wrong output; any other exception is a
        crash, counted as a failed check."""
        from coersimp.check import CheckError
        from coersimp.witness import WitnessBug

        self.checks += 1
        try:
            ok = fn()
        except (CheckError, WitnessBug) as exc:
            ok = False
            self.by_type[type(exc).__name__] += 1
        except Exception as exc:  # counted by type; the run goes on
            self.failed_checks += 1
            self.by_type[type(exc).__name__] += 1
            return
        if ok is False:
            self.failed_checks += 1
            self.wrong.append(label)

    @property
    def fail_share(self) -> float:
        return (self.failed_ops + self.failed_checks) / (self.ops + self.checks)


def item_size(workload: str, item) -> tuple[str, int]:
    """(family, size): parameters per sort for `chains`, output parameters
    for `structural` (both in the item name `<family>_n<size>`), input
    parameters for `corpus`, whose items form one family."""
    if workload == "corpus":
        return "corpus", len(item.context.ty_params) + len(item.context.dirt_params)
    family, size = item.name.rsplit("_n", 1)
    return family, int(size)


def corpus_text(workload: str, seed: int) -> str:
    if workload == "chains":
        return corpusgen.chains_text(seed)
    if workload == "structural":
        return corpusgen.structural_text(seed)
    return CORPUS.read_text()


def setup_once(text: str) -> None:
    """Import `coersimp.cli` (which imports every layer) afresh and parse
    `text`, judgment included: the package's modules are dropped from
    `sys.modules` first, so their code runs again."""
    for name in [m for m in sys.modules if m == "coersimp" or m.startswith("coersimp.")]:
        del sys.modules[name]
    import coersimp.cli  # noqa: F401
    from coersimp.corpus import parse_corpus

    parse_corpus(text)


def measure_setup(text: str) -> dict:
    """One untimed `setup_once` (it writes bytecode caches in a fresh
    checkout), then SETUP_RUNS timed ones in this process, each through a
    `pace.Pacer`. Returns their scaled and wall times."""
    sys.path.insert(0, str(SRC))
    setup_once(text)
    scaled, wall = [], []
    with pace.Pacer() as pacer:
        for _ in range(SETUP_RUNS):
            gc.collect()
            pacer.timed(setup_once, text)
            work, work_scaled = pacer.end_pass()
            wall.append(work)
            scaled.append(work_scaled)
    return {"scaled": scaled, "wall": wall}


def cold_setups(text: str) -> list[dict]:
    """One untimed warm-up child, then SETUP_RUNS timed ones, each a fresh
    interpreter that imports the package and parses `text`
    (`setup_child.py`). Their wall times spread by about 20% on a shared
    host and do not follow the pace probe, so they are per-layer metrics
    only."""
    out = []
    for _ in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py")], input=text,
            capture_output=True, text=True, timeout=150, cwd=ROOT, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out[1:]


def direct(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def simplify_pass(cli, items, w: Workload, ledger: Ledger, check=None, call=direct) -> int:
    """`cmd_simplify` on every (item, preset) pair, each through `call`;
    returns the residual size. `check(item, preset, full_dirt, sim)` runs
    on each output."""
    residual = 0
    for item in items:
        for preset, full_dirt in w.simplify:
            ledger.ops += 1
            try:
                sim, _, _, _, after = call(cli.cmd_simplify, item, preset, full_dirt=full_dirt)
            except Exception as exc:  # counted by type; the run goes on
                ledger.fail_op(type(exc).__name__)
                continue
            residual += (after["dirt_nodes"] + after["dirt_edges"]
                         + after["type_nodes"] + after["type_edges"])
            if check is not None:
                check(item, preset, full_dirt, sim)
    return residual


def verify_pass(cli, items, w: Workload, seed: int, ledger: Ledger, call=direct) -> int:
    """`cmd_verify` on every item with a term, each through `call`; returns
    the samples passed."""
    passed = 0
    for item in items:
        if item.term is None:
            continue
        ledger.ops += w.samples
        try:
            report = call(cli.cmd_verify, item, w.verify_preset, seed=seed, samples=w.samples)
        except Exception as exc:  # counted by type; the run goes on
            ledger.fail_op(type(exc).__name__, w.samples)
            continue
        for failure in report["failures"]:
            ledger.fail_op(failure["error"].split(":")[0])
            ledger.wrong.append(f"verify {item.name} sample {failure['sample']}")
        passed += report["passed"]
    return passed


def output_checker(w: Workload, seed: int, ledger: Ledger):
    from coersimp.sample import sample_eta
    from coersimp.subst import check_validity
    from coersimp.witness import build_witness_total, check_witness_total

    def validity(item, sim):
        check_validity(item.signature, item.context, sim.subst, sim.context)

    def witness(item, sim):
        rng = random.Random(f"{seed}:{item.name}:witness")
        eta0 = sample_eta(item.signature, item.context, rng, enumerable=True,
                          poltype=item.poltype, term=item.term)
        wit = build_witness_total(item.signature, sim, eta0)
        check_witness_total(item.signature, sim, eta0, wit)

    def check(item, preset, full_dirt, sim):
        label = f"{item.name}/{preset}{'+full' if full_dirt else ''}"
        ledger.check(f"validity {label}", lambda: validity(item, sim))
        if preset == w.verify_preset and not full_dirt:
            ledger.check(f"witness {label}", lambda: witness(item, sim))

    return check


def timed_passes(runs: dict, seconds: float, tracer=None) -> dict:
    """Run passes until `seconds` have gone by, at least one of each kind
    in `runs` (kind -> function of a `call` wrapper), always picking the
    kind with the least work time so far so that the kinds share the time
    and the machine's drift. Each operation runs through a `pace.Pacer`;
    traced passes get no timer ticks, so that no probe runs inside a span.
    Returns per kind the passes' scaled times (`scaled`) and wall times
    (`wall`), and the probe times (`probes`)."""
    scaled = {kind: [] for kind in runs}
    wall = {kind: [] for kind in runs}
    deadline = time.perf_counter() + seconds
    with pace.Pacer(tick=None if tracer else 0.1) as pacer:
        while True:
            kind = min(runs, key=lambda k: (len(wall[k]) > 0, sum(wall[k])))
            gc.collect()
            with tracer.span(f"pass.{kind}") if tracer else nullcontext():
                runs[kind](pacer.timed)
                work, work_scaled = pacer.end_pass()
            wall[kind].append(work)
            scaled[kind].append(work_scaled)
            if time.perf_counter() >= deadline and all(wall.values()):
                return {"scaled": scaled, "wall": wall, "probes": pacer.probes}


def tail(values: list[float]):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None below eleven samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def describe(name: str, values: list[float], unit: str) -> str:
    line = f"{name:16s} median {statistics.median(values):.4f} {unit}  n={len(values)}"
    t = tail(values)
    if t is None:
        return line + "  (tail: fewer than 11 samples)"
    return line + f"  p{t[0]:.0f} {t[1]:.4f} {unit}"


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    w = WORKLOADS[workload]
    text = corpus_text(workload, seed)
    setups = measure_setup(text)

    from coersimp import cli
    from coersimp.corpus import parse_corpus

    items = parse_corpus(text)
    timed = [item for item in items if item.name not in corpusgen.CHECK_ONLY]
    sizes = {item.name: item_size(workload, item) for item in timed}
    ledger = Ledger()

    # Warm-up pass, with every output checked; check-only items run here.
    checker = output_checker(w, seed, ledger)
    residual = simplify_pass(cli, timed, w, ledger, checker)
    check_only = [item for item in items if item.name in corpusgen.CHECK_ONLY]
    simplify_pass(cli, check_only, w, ledger, checker)
    if workload == "corpus":
        golden = json.loads(GOLDEN.read_text())
        ledger.check("golden report",
                     lambda: cli.cmd_report(items, list(STANDARD_CONFIGS)) == golden)
    verified = []

    def run_simplify(call):
        if simplify_pass(cli, timed, w, ledger, call=call) != residual:
            ledger.wrong.append("simplify pass residual differs from warm-up")

    def run_verify(call):
        verified.append(verify_pass(cli, timed, w, seed, ledger, call=call))
        if verified[-1] != verified[0]:
            ledger.wrong.append("verify pass count differs from the first")

    runs = {"simplify": run_simplify, "verify": run_verify}
    result = {"ledger": ledger, "setups": setups}
    if not traced:
        result["times"] = timed_passes(runs, seconds)
        result["residual"] = residual
        return result

    result["cold"] = cold_setups(text)
    result["untraced"] = timed_passes({"simplify": run_simplify}, seconds / 2)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.span("corpus.load") as rec:
            loaded = parse_corpus(text)
        result["parse"] = ((rec[2] - rec[1]) / 1e9, len(loaded))
        result["times"] = timed_passes(runs, seconds / 2, tracer)
    finally:
        tracer.uninstall()
    passes = {k: len(v) for k, v in result["times"]["wall"].items()}
    result["layers"] = layertrace.layer_metrics(tracer.spans, sizes, passes)
    SPAN_DIR.mkdir(exist_ok=True)
    result["span_file"] = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
    tracer.write(result["span_file"])
    return result


def report(workload: str, traced: bool, result: dict) -> dict:
    ledger = result["ledger"]
    times = result["times"]["scaled"]
    walls = result["times"]["wall"]
    setup = result["setups"]["scaled"]
    setup_wall = result["setups"]["wall"]
    lines = [f"workload {workload}: {ledger.ops} operations ({ledger.failed_ops} failed), "
             f"{ledger.checks} checks ({ledger.failed_checks} failed)"]
    for kind, count in sorted(ledger.by_type.items()):
        lines.append(f"  failures of type {kind}: {count}")
    for label in ledger.wrong[:10]:
        lines.append(f"  WRONG OUTPUT: {label}")
    lines.append(describe("setup_s", setup, "s"))
    lines.append(describe("simplify_s", times["simplify"], "s"))
    lines.append(describe("verify_s", times["verify"], "s"))
    lines.append(describe("wall.setup_s", setup_wall, "s"))
    lines.append(describe("wall.simplify_s", walls["simplify"], "s"))
    lines.append(describe("wall.verify_s", walls["verify"], "s"))
    lines.append(describe("pace.probe_s", result["times"]["probes"], "s"))
    if not traced:
        values = {
            "setup_s": statistics.median(setup),
            "simplify_s": statistics.median(times["simplify"]),
            "verify_s": statistics.median(times["verify"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "residual_size": result["residual"],
            "ok_share": 1.0 - ledger.fail_share,
        }
        units = dict(END_TO_END)
    else:
        untraced = statistics.median(result["untraced"]["scaled"]["simplify"])
        values = dict(result["layers"])
        values["corpus.parse_s"], values["corpus.items"] = result["parse"]
        values["import_s"] = statistics.median(s["import_s"] for s in result["cold"])
        values["setup.cold_s"] = statistics.median(
            s["import_s"] + s["parse_s"] for s in result["cold"])
        values["trace.simplify_s"] = statistics.median(times["simplify"])
        values["trace.verify_s"] = statistics.median(times["verify"])
        values["trace.overhead_ratio"] = values["trace.simplify_s"] / untraced
        values["fail_share"] = ledger.fail_share
        values["wall.setup_s"] = statistics.median(setup_wall)
        values["wall.simplify_s"] = statistics.median(result["untraced"]["wall"]["simplify"])
        values["pace.probe_s"] = statistics.median(
            result["untraced"]["probes"] + result["times"]["probes"])
        units = dict(layertrace.METRICS + list(TRACE_EXTRA))
        lines.append(f"spans written to {result['span_file'].relative_to(ROOT)}")
    for name, value in values.items():
        lines.append(f"  {name} = {value:.6g} {units[name]}")
    print("\n".join(lines))
    return {
        "correct": not ledger.wrong,
        "attempted": ledger.ops,
        "failed": ledger.failed_ops,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    missing = [path for path in (SRC / "coersimp", CORPUS, GOLDEN) if not path.exists()]
    if missing:
        print(f"error: not a coersimp checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    if args.workload == "all":
        status = 0
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)], cwd=ROOT)
            status = status or proc.returncode
        return status

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report(args.workload, bool(args.trace), result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
