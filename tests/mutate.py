"""Run the named mutants of `tests/mutants.py` and report what kills each.

    python3 tests/mutate.py [--only NAME]

For each mutant, in a copy of the repository in a temporary directory
(the working tree is never touched), the script applies the mutant and
runs, in order, until one check fails:

1. the test its `killed_by` field names, if it names one;
2. tier-1 with `-x`, leaving out `tests/test_mutants.py` (no anchor of a
   mutated file is there any more);
3. `coersimp verify` on the bundled corpus, then the same with
   `--full-dirt`.

It prints one JSON document: per mutant the first check that failed, or
"survived", and whether that agrees with its mark (`agrees`): a mutant
that names a `killed_by` test agrees only when that test failed first, a
marked survivor only when it survives; the counts; and the wall time. It
exits 1 when an outcome disagrees with a mark.

A plain script, not a test: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from mutants import MUTANTS, Mutant

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".benchmarks", ".bench_out")
TIER1 = ["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"]
VERIFY = ["-m", "coersimp.cli", "verify", "--emit", "json"]
TIMEOUT = 1200  # seconds per check; a mutant that makes a check hang fails it


def apply(mutant: Mutant, root: Path) -> None:
    """Write `mutant` into the copy at `root`; its anchor must occur once."""
    path = root / "src" / "coersimp" / mutant.file
    text = path.read_text()
    if text.count(mutant.anchor) != 1:
        raise SystemExit(f"{mutant.name}: anchor does not occur exactly once in {mutant.file}")
    path.write_text(text.replace(mutant.anchor, mutant.replacement))


def first_failure(output: str) -> str:
    """The first failed or erroring test that a pytest run with `-rfE` lists."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return "pytest"


def outcome(mutant: Mutant, root: Path) -> str:
    """The first check that fails on the mutated copy at `root`, or
    "survived"."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")

    def failed(args, name) -> str | None:
        """What failed when running `args`, None if nothing did."""
        try:
            done = subprocess.run([sys.executable, *args], cwd=root, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"{name or 'tier-1'} (timeout)"
        if done.returncode == 0:
            return None
        return name or first_failure(done.stdout)

    checks = [(TIER1, None)] + [([*VERIFY, *extra], " ".join(["coersimp verify", *extra]))
                                for extra in ([], ["--full-dirt"])]
    if mutant.killed_by is not None:
        checks.insert(0, (["-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
                           mutant.killed_by], mutant.killed_by))
    for args, name in checks:
        got = failed(args, name)
        if got is not None:
            return got
    return "survived"


def agrees(mutant: Mutant, got: str) -> bool:
    """Whether outcome `got` is the one `mutant` is marked with: its
    `killed_by` test, or "survived" for a marked survivor."""
    return got == ("survived" if mutant.survives else mutant.killed_by)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", default=None, help="run this mutant only")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    if not chosen:
        raise SystemExit(f"no mutant named {args.only!r}")
    start, results = time.perf_counter(), []
    for mutant in chosen:
        began = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            root = Path(tmp) / "repo"
            shutil.copytree(ROOT, root, ignore=IGNORE)
            apply(mutant, root)
            got = outcome(mutant, root)
        results.append({"name": mutant.name, "outcome": got, "survives": mutant.survives,
                        "agrees": agrees(mutant, got),
                        "seconds": round(time.perf_counter() - began, 1)})
        print(f"{mutant.name}: {got}", file=sys.stderr, flush=True)
    survivors = sum(r["outcome"] == "survived" for r in results)
    print(json.dumps({
        "mutants": results,
        "killed": len(results) - survivors,
        "survived": survivors,
        "disagreements": [r["name"] for r in results if not r["agrees"]],
        "seconds": round(time.perf_counter() - start, 1),
    }, indent=2))
    return 0 if all(r["agrees"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
