#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on two checkouts and summarize them.

For each seed, runs the benchmark command of BENCHMARK.json with
`--workload W --seed S --seconds T --trace 0` from the root of the PARENT
checkout ("before") and of the CHANGE checkout ("after"), T being
BENCHMARK.json's run_seconds.  The side that runs first alternates from
pair to pair, the parent going first in the first pair.  The final JSON
line of each run is kept.  Before the first pair, each checkout's `src`
and `perfbench` are byte-compiled (`python -m compileall -q`, which
writes .pyc files even where PYTHONDONTWRITEBYTECODE is set), so neither
side recompiles stale or missing .pyc files at every launch.

FILE gets `pairs` and `summary`: per workload, the number of pairs, the
failed operations of each side, whether every run was correct, and for
each end-to-end metric each side's median and quartiles
(perfbench/benchstats) and the number of pairs the change won, ties
counting for neither side; also the relative change of the medians,
(after - before) / before, signed so that positive means better
(`median_change`, null when the parent's median is 0), the metric's
`bound` from BENCHMARK.json, and `unresolved`: true when the parent's
quartile spread, (q75 - q25) / median, is wider than the bound, unless
every run of the change reads better than every run of the parent.  An
unresolved metric can show neither a gain nor a regression within its
bound.  If FILE exists, its other keys and its pairs of other workloads
or seeds are kept.  FILE is rewritten after every
pair, so an interrupted run keeps the pairs it finished, and each
finished pair prints one line with every end-to-end metric, before -> after.

Usage: python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --out FILE
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from benchstats import median, percentile  # noqa: E402

SIDES = ("before", "after")


def seed_range(text: str) -> range:
    """Seeds A..B inclusive from "A-B", with A <= B."""
    low, sep, high = text.partition("-")
    seeds = range(int(low), int(high or 0) + 1)
    if not sep or not seeds:
        raise argparse.ArgumentTypeError(f"need a seed range A-B with A <= B, got {text!r}")
    return seeds


def compile_checkout(checkout: Path) -> None:
    """Byte-compile checkout's src and perfbench into __pycache__."""
    proc = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                          cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"{checkout}: compileall exited {proc.returncode}\n{proc.stdout}{proc.stderr}")


def run_side(checkout: Path, spec: dict, workload: str, seed: int) -> dict:
    """The final stdout JSON line of one end-to-end run from checkout."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(spec["command"] + args, cwd=checkout,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"{checkout}: benchmark exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """The per-workload summary of `pairs`, each holding a "before" and an
    "after" result line, for the metrics of BENCHMARK.json's end_to_end."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        runs = [p for p in pairs if p["workload"] == workload]
        entry = {
            "pairs": len(runs),
            "failed": {side: sum(p[side]["failed"] for p in runs) for side in SIDES},
            "correct": all(p[side]["correct"] for p in runs for side in SIDES),
        }
        for metric in end_to_end:
            name = metric["name"]
            sign = 1 if metric["better"] == "higher" else -1
            values = {side: [p[side]["metrics"][name]["value"] for p in runs]
                      for side in SIDES}
            stats = {}
            for side in SIDES:
                stats[f"{side}_median"] = median(values[side])
                stats[f"{side}_quartiles"] = [percentile(values[side], q) for q in (25, 75)]
            stats["after_better_pairs"] = sum(
                sign * (after - before) > 0
                for before, after in zip(values["before"], values["after"]))
            before_median = stats["before_median"]
            stats["median_change"] = (
                sign * (stats["after_median"] - before_median) / before_median
                if before_median else None)
            stats["bound"] = metric["bound"]
            low, high = stats["before_quartiles"]
            stats["unresolved"] = high - low > metric["bound"] * abs(before_median) and not all(
                sign * (after - before) > 0
                for after in values["after"] for before in values["before"])
            entry[name] = stats
        summary[workload] = entry
    return summary


def pair_line(pair: dict, end_to_end: list[dict]) -> str:
    """One line for a finished pair: each end-to-end metric, before -> after."""
    metrics = {side: pair[side]["metrics"] for side in SIDES}
    parts = [f"{m['name']} {metrics['before'][m['name']]['value']:.4g} -> "
             f"{metrics['after'][m['name']]['value']:.4g}" for m in end_to_end]
    return f"{pair['workload']} seed {pair['seed']}: " + ", ".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_range, help="A-B, inclusive")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    pairs = [p for p in record.get("pairs", [])
             if p["workload"] != args.workload or p["seed"] not in args.seeds]
    checkouts = {"before": args.parent, "after": args.change}
    for checkout in checkouts.values():
        compile_checkout(checkout)
    for index, seed in enumerate(args.seeds):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(checkouts[side], spec, args.workload, seed)
        pairs.append(pair)
        record.update(summary=summarize(pairs, spec["end_to_end"]), pairs=pairs)
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(pair_line(pair, spec["end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
