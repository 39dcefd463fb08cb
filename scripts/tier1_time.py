#!/usr/bin/env python3
"""Time the tier-1 test suite of one checkout and record it in a BENCH file.

Runs the tier-1 command, `python -m pytest -q --continue-on-collection-errors`,
with `--durations=10` from the root of CHECKOUT and CHECKOUT/src on
PYTHONPATH.  FILE's `tier1` entry gets, under SIDE ("before" for the
parent checkout, "after" for the change): the wall time of the whole run
in seconds, the numbers of tests passed and failed, and the ten slowest
test phases as [seconds, "phase", "test id"].  Arguments after `--` go to
pytest (one test file, say) and are recorded with the entry.  FILE's other
keys, and the other side's entry, are kept.

Usage: python3 scripts/tier1_time.py CHECKOUT --side before|after --out FILE [-- ARGS]
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]
DURATION = re.compile(r"([0-9.]+)s (setup|call|teardown) +(.+)")


def count(outcome: str, summary: str) -> int:
    """The number before `outcome` ("passed", "failed") in pytest's summary."""
    found = re.search(rf"(\d+) {outcome}", summary)
    return int(found.group(1)) if found else 0


def time_tier1(checkout: Path, pytest_args: list[str]) -> dict:
    """Run the tier-1 command in checkout and read its summary and durations."""
    paths = [str(checkout.resolve() / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1, *pytest_args], cwd=checkout, env=env,
                          capture_output=True, text=True, check=False)
    seconds = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: pytest printed nothing\n{proc.stderr}")
    slowest = [[float(m[1]), m[2], m[3]] for m in map(DURATION.fullmatch, lines) if m]
    return {"seconds": round(seconds, 2), "passed": count("passed", lines[-1]),
            "failed": count("failed", lines[-1]), "slowest": slowest,
            "pytest_args": pytest_args}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("checkout", type=Path, help="root of the checkout to test")
    parser.add_argument("--side", required=True, choices=("before", "after"))
    parser.add_argument("--out", required=True, type=Path)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args, pytest_args = parser.parse_args(argv[:split]), argv[split + 1 :]

    entry = time_tier1(args.checkout, pytest_args)
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record.setdefault("tier1", {})[args.side] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.side}: {entry['passed']} passed, {entry['failed']} failed "
          f"in {entry['seconds']} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
