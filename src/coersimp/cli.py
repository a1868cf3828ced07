"""Command-line driver.

Three subcommands work over a corpus of items (bundled by default, or a
file / stdin in the same s-expression format):

  simplify   run the constraint pipeline per item, rewrite type and term
  verify     sample ground instantiations and check the semantic claims
  report     metrics table across items and phase configurations

Exit codes: 0 all checks passed, 1 at least one diagnostic (a failed
verification, an unsatisfiable context, a bad input, nothing to verify),
2 an internal invariant was violated. Any other exception that escapes a
command is a fault of the tool: it prints one `internal error:` line
naming where it was raised, and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shlex
import sys

from .check import CheckError, type_of_value
from .corpus import CorpusItem, JudgmentError, ParseError, load_bundled, parse_corpus, utf8_text
from .graph import to_dot
from .phases import PRESETS, parse_phase_config, simplify
from .polarity import EMPTY_FPS, extend_family_vty, fp_vty
from .reduce import ReductionBug, Unsatisfiable
from .sample import SampleError, Sampler
from .semantics import (
    DEFAULT_BUDGET,
    DomainTooLarge,
    ModelBug,
    check_preservation,
)
from .subst import Substitution, apply, erase_value
from .syntax import EMPTY_CONTEXT, CastC, CastV, CompTerm, ValueTerm, intern
from .witness import WitnessBug, WitnessPlan, build_witness_total, check_witness_total

STANDARD_CONFIGS = tuple(PRESETS)
# What fails one verify sample; any other exception ends the run.
SAMPLE_FAILURES = (ModelBug, CheckError, SampleError)


class InternalError(Exception):
    """An invariant the tool itself promises was violated."""


def config_label(text: str) -> str:
    """Row label for a phase configuration: preset name or `custom`."""
    return text if text in STANDARD_CONFIGS else "custom"


def metrics_row(config: str, ctx) -> dict:
    """A context's graph metrics, named here only; a literal dict is cheapest."""
    return {"config": config, "dirt_nodes": len(ctx.dirt_params), "dirt_edges": len(ctx.dirt_cos),
            "type_nodes": len(ctx.ty_params), "type_edges": len(ctx.ty_cos)}


# The metric names of a row, in order: what reports sum and print.
METRICS = tuple(metrics_row("", EMPTY_CONTEXT))[1:]


def _simplified(item: CorpusItem, config: str, full_dirt: bool):
    """The pipeline's result on one item under a phase configuration, and
    the item's type and term rewritten by it: (sim, poltype', rewritten,
    term'), where term' is the rewritten term with the casts the rewrite
    made trivial erased (`erase_value`), or `rewritten` itself where there
    are none. The one rewrite of an item, so `verify` checks the term
    `simplify` prints."""
    instructions = parse_phase_config(config, full_dirt=full_dirt)
    fps = fp_vty(item.poltype) if item.poltype is not None else EMPTY_FPS
    sim = simplify(item.signature, item.context, fps, instructions)
    new_ty = apply(sim.subst, item.poltype) if item.poltype is not None else None
    if item.term is None:
        return sim, new_ty, None, None
    rewritten = apply(sim.subst, item.term)
    return sim, new_ty, rewritten, erase_value(rewritten)


def cmd_simplify(item: CorpusItem, config: str, full_dirt: bool = False):
    """Run the pipeline on one item; rewrite its type and term.

    Returns (sim, poltype', term', before_row, after_row), with term' erased.
    The rewritten term is re-typechecked against the rewritten type, and so
    is the erased term where erasure changed it; a mismatch means the
    substitution layer or the eraser is broken and raises InternalError.
    """
    sim, new_ty, rewritten, new_term = _simplified(item, config, full_dirt)
    label = config_label(config)
    before = metrics_row(label, sim.reduction.context)
    after = metrics_row(label, sim.context)
    if rewritten is not None:
        _typecheck(item, sim, rewritten, new_ty, "rewritten")
        if new_term is not rewritten:
            _typecheck(item, sim, new_term, new_ty, "erased")
    return sim, new_ty, new_term, before, after


def _typecheck(item: CorpusItem, sim, term: ValueTerm, want, what: str) -> None:
    try:
        got = type_of_value(item.signature, sim.context, (), term)
    except CheckError as exc:
        raise InternalError(f"{item.name}: {what} term no longer typechecks: {exc}") from exc
    if got != want:
        raise InternalError(f"{item.name}: {what} term has type {got}, wanted {want}")


def cmd_verify(item: CorpusItem, config: str, budget: int = DEFAULT_BUDGET,
               seed: int = 0, samples: int = 20, full_dirt: bool = False) -> dict:
    """Sample ground instantiations and check the semantic claims.

    Per sample (`check_sample`): the skeletal projection of the
    instantiated term commutes with evaluation, and the pipeline's witness
    makes the term `simplify` prints, rewritten once per run, denote the
    same value as the original. Non-enumerable draws are retried with every
    parameter pinned to an enumerable image.

    Samples are draws, and equal draws are checked once per run. Every
    sample draws in order from its own rng stream; a draw with the
    `fingerprint` of an earlier one takes that one's outcome: a pass, the
    same failure, or `DomainTooLarge`, which still sends it to the strict
    redraw. `distinct` counts the instantiations checked.

    What depends only on the run is prepared once, next to the memo: the
    `Sampler`, which prepares what every draw of the context reads and
    the validity check of a draw, and the `WitnessPlan`, which holds the
    replay of the reduction and the validity check of the strengthened
    context. Each sample is still checked valid three times (twice where
    reduction returned the context as it was): as drawn, as replayed and
    as its witness grounds the strengthened context. All of these die with
    the call. What the signature keeps outlives it: each distinct value
    drawn or replayed is one object of `Signature.interned`, each ground
    inclusion coercion is decided once per pair of them
    (`Signature.ground_inclusions`) and each distinct ground coercion is
    checked once (`Signature.ground_checks`), so a later run on the same
    parsed item that draws the same instantiations adds to none of them. A
    draw's fingerprint is the identities of its non-coercion images there.
    """
    if item.term is None:
        raise ValueError(f"item {item.name} has no term")
    sim, _, _, term = _simplified(item, config, full_dirt)
    sampler = Sampler(item.signature, item.context, item.poltype, item.term)
    plan = WitnessPlan(item.signature, sim)
    # Fingerprint -> None on a pass, else the exception's class and args:
    # a remembered failure keeps no traceback, so no frames of its sample.
    outcomes: dict[tuple[int, ...], tuple | None] = {}

    def check(eta0: Substitution) -> None:
        key = fingerprint(eta0, item.signature.interned)
        if key not in outcomes:
            try:
                check_sample(item, sim, term, eta0, plan, budget)
                outcomes[key] = None
            except (DomainTooLarge, *SAMPLE_FAILURES) as exc:
                outcomes[key] = (type(exc), exc.args)
        if outcomes[key] is not None:
            kind, args = outcomes[key]
            raise kind(*args)

    failures = []
    for i in range(samples):
        rng = random.Random(f"{seed}:{item.name}:{config}:{i}")
        try:
            _verify_once(sampler, check, rng)
        except SAMPLE_FAILURES as exc:
            failures.append({"sample": i, "error": f"{type(exc).__name__}: {exc}"})
    return {
        "item": item.name,
        "config": config_label(config),
        "samples": samples,
        "distinct": len(outcomes),
        "passed": samples - len(failures),
        "failures": failures,
    }


def fingerprint(eta0: Substitution, interned: dict) -> tuple[int, ...]:
    """The identities of `eta0`'s skeleton, dirt and type images, each
    interned in `interned` (`syntax.intern`), in the order a draw fills
    them; a draw's coercions are a function of these (`ValidityCheck.ground`).
    The table keeps its objects alive, so no identity is reused while it
    lives, and two draws over one context have equal fingerprints exactly
    when they are equal. A draw's images are the table's own: one lookup each."""
    return tuple(id(intern(interned, image))
                 for part in (eta0.skel, eta0.dirt, eta0.ty)
                 for image in part.values())


def _verify_once(sampler: Sampler, check, rng: random.Random) -> None:
    try:
        check(sampler.draw(rng, enumerable=True))
    except DomainTooLarge:
        check(sampler.draw(rng, strict=True))


def check_sample(item: CorpusItem, sim, term: ValueTerm, eta0: Substitution,
                 plan: WitnessPlan, budget: int = DEFAULT_BUDGET) -> None:
    """Both semantic claims at one ground instantiation `eta0` of the
    item's context, for `term`, the item's term rewritten by `sim`: the
    run's checked witness grounds `term` and casts it back along the item's
    type, and the model checks the two ground terms and that cast. `plan`
    is the run's `WitnessPlan`."""
    sig = item.signature
    wit = build_witness_total(sig, sim, eta0, plan)
    check_witness_total(sig, sim, eta0, wit, plan)
    check_preservation(sig, apply(eta0, item.term), apply(wit.eta, term),
                       extend_family_vty(wit.family, item.poltype), budget)


def cmd_report(corpus: list[CorpusItem], configs: list[str],
               full_dirt: bool = False) -> dict:
    """Per-item, per-config graph metrics, plus column sums."""
    per_item = []
    totals = {}
    for c in configs:
        totals[c] = {"config": config_label(c), **dict.fromkeys(METRICS, 0)}
    for item in corpus:
        rows = []
        for c in configs:
            _, _, _, _, after = cmd_simplify(item, c, full_dirt=full_dirt)
            rows.append(after)
            for k in METRICS:
                totals[c][k] += after[k]
        per_item.append({"item": item.name, "rows": rows})
    return {"items": per_item, "totals": [totals[c] for c in configs]}


def cast_count(term: ValueTerm | CompTerm) -> int:
    """The casts in a value or computation term."""
    kids = (getattr(term, name) for name in type(term).__match_args__)
    return isinstance(term, (CastV, CastC)) + sum(
        cast_count(kid) for kid in kids if isinstance(kid, (ValueTerm, CompTerm)))


# ---------------------------------------------------------------------------
# output formatting


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2))


def _rows_table(rows: list[dict], lead: str, lead_key: str) -> str:
    header = [lead, "config", *(k.replace("_", " ") for k in METRICS)]
    table = [header]
    for r in rows:
        table.append([str(r.get(lead_key, "")), r["config"], *(str(r[k]) for k in METRICS)])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _write_dot(name: str, ctx, fps) -> str:
    """Write the graphs to `<name>.dot` in the working directory; a name
    with a path separator would place the file elsewhere."""
    if os.sep in name or (os.altsep and os.altsep in name):
        raise ValueError(f"item name {name!r} is not a file name, cannot emit {name}.dot")
    path = f"{name}.dot"
    with open(path, "w") as fh:
        fh.write(to_dot(ctx, fps))
    return path


# ---------------------------------------------------------------------------
# argument handling


def _load_corpus(args) -> list[CorpusItem]:
    if args.corpus is None:
        items = load_bundled()
    elif args.corpus == "-":
        if hasattr(sys.stdin, "reconfigure"):  # a text stream given in place of stdin has none
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        items = parse_corpus(utf8_text(sys.stdin.read()))
    else:
        with open(args.corpus, encoding="utf-8", errors="surrogateescape") as fh:
            items = parse_corpus(utf8_text(fh.read()))
    if args.item is not None:
        items = [i for i in items if i.name == args.item]
        if not items:
            raise ValueError(f"no item named {args.item!r}")
    return items


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="coersimp", description=__doc__.split("\n")[0])
    subs = p.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("simplify", help="run the pipeline and rewrite items")
    sp.add_argument("corpus", nargs="?", default=None)
    sp.add_argument("--item", default=None)
    sp.add_argument("--phases", default="all")
    sp.add_argument("--emit", default="table", choices=("json", "dot", "table", "core"))
    sp.add_argument("--full-dirt", action="store_true")

    vp = subs.add_parser("verify", help="check the semantic claims by sampling")
    vp.add_argument("corpus", nargs="?", default=None)
    vp.add_argument("--item", default=None)
    vp.add_argument("--phases", default="all")
    vp.add_argument("--emit", default="table", choices=("json", "table"))
    vp.add_argument("--full-dirt", action="store_true")
    vp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--samples", type=int, default=20)

    rp = subs.add_parser("report", help="metrics table across configurations")
    rp.add_argument("corpus", nargs="?", default=None)
    rp.add_argument("--item", default=None)
    rp.add_argument("--phases", action="append", default=None,
                    help="config to include as a row; repeatable "
                         "(default: none scc dirt type all)")
    rp.add_argument("--emit", default="table", choices=("json", "table"))
    rp.add_argument("--full-dirt", action="store_true")

    return p


def _run_simplify(args, items) -> int:
    out = []
    for item in items:
        sim, new_ty, new_term, before, after = cmd_simplify(
            item, args.phases, full_dirt=args.full_dirt)
        out.append((item, sim, new_ty, new_term, before, after))
    if args.emit == "json":
        _emit_json([
            {
                "item": item.name,
                "config": before["config"],
                "before": {k: before[k] for k in METRICS},
                "after": {k: after[k] for k in METRICS},
                "type": None if new_ty is None else str(new_ty),
                "term": None if new_term is None else str(new_term),
                "coercion_params": after["dirt_edges"] + after["type_edges"],
                "casts": None if new_term is None else cast_count(new_term),
            }
            for item, sim, new_ty, new_term, before, after in out
        ])
    elif args.emit == "dot":
        for item, sim, _, _, _, _ in out:
            print(_write_dot(item.name, sim.context, sim.phases.fps))
    elif args.emit == "core":
        for item, sim, new_ty, new_term, _, _ in out:
            print(f"item {item.name}")
            print(f"  context: {sim.context.describe() or '(empty)'}")
            if new_ty is not None:
                print(f"  type: {new_ty}")
            if new_term is not None:
                print(f"  term: {new_term}")
    else:
        rows = []
        for item, _, _, _, before, after in out:
            rows.append(dict(before, item=f"{item.name}/before"))
            rows.append(dict(after, item=f"{item.name}/after"))
        print(_rows_table(rows, "item", "item"))
    return 0


def _reproducer(args, item: str, sample: int) -> str:
    """The command that reruns one verify sample. Sample `i` draws from
    its own index, so it is the last of `i + 1` samples."""
    cmd = ["coersimp", "verify"]
    if args.corpus is not None:
        cmd.append(args.corpus)
    cmd += ["--item", item, "--phases", args.phases, "--seed", str(args.seed),
            "--samples", str(sample + 1)]
    if args.full_dirt:
        cmd.append("--full-dirt")
    if args.budget != DEFAULT_BUDGET:
        cmd += ["--budget", str(args.budget)]
    return shlex.join(cmd)


def _run_verify(args, items) -> int:
    items = [item for item in items if item.term is not None]
    if not items:
        print("error: nothing to verify: no selected item carries a term", file=sys.stderr)
        return 1
    reports = []
    for item in items:
        report = cmd_verify(item, args.phases, budget=args.budget, seed=args.seed,
                            samples=args.samples, full_dirt=args.full_dirt)
        for f in report["failures"]:
            f["reproduce"] = _reproducer(args, item.name, f["sample"])
        reports.append(report)
    if args.emit == "json":
        _emit_json(reports)
    else:
        for r in reports:
            status = "ok" if not r["failures"] else "FAIL"
            print(f"{r['item']:24s} {r['config']:8s} "
                  f"{r['passed']}/{r['samples']} {status} ({r['distinct']} distinct)")
            for f in r["failures"]:
                print(f"    sample {f['sample']}: {f['error']}")
                print(f"      reproduce: {f['reproduce']}")
    return 1 if any(r["failures"] for r in reports) else 0


def _run_report(args, items) -> int:
    configs = args.phases if args.phases else list(STANDARD_CONFIGS)
    report = cmd_report(items, configs, full_dirt=args.full_dirt)
    if args.emit == "json":
        _emit_json(report)
    else:
        rows = []
        for entry in report["items"]:
            for row in entry["rows"]:
                rows.append(dict(row, item=entry["item"]))
        for row in report["totals"]:
            rows.append(dict(row, item="TOTAL"))
        print(_rows_table(rows, "item", "item"))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except Exception as exc:  # a fault of the tool itself, not of the input
        print(f"internal error: {_origin(exc)}: {type(exc).__name__}: {exc}".replace("\n", " "),
              file=sys.stderr)
        return 2


def _origin(exc: Exception) -> str:
    """`module.function` of the frame that raised `exc`."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{tb.tb_frame.f_globals.get('__name__')}.{tb.tb_frame.f_code.co_qualname}"


def _run(args) -> int:
    if args.command == "verify":
        for flag in ("samples", "budget"):
            if getattr(args, flag) < 1:
                print(f"error: --{flag} must be at least 1", file=sys.stderr)
                return 1
    try:
        items = _load_corpus(args)
    except (ParseError, JudgmentError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "simplify":
            return _run_simplify(args, items)
        if args.command == "verify":
            return _run_verify(args, items)
        return _run_report(args, items)
    except Unsatisfiable as exc:
        print(f"unsatisfiable: {exc}", file=sys.stderr)
        return 1
    except DomainTooLarge as exc:
        print(f"error: the model is too large to enumerate: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalError, ReductionBug, WitnessBug) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
