"""modcat benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a modcat checkout (the directory holding
BENCHMARK.json and src/modcat).  Every measurement happens in child
processes (perfbench/worker.py) that import modcat from src/, generate
their inputs from the seed and check every output.

Each run times a fixed list of operations whose length follows from
--seconds, so the same seed always meets the same inputs.
--trace 0 measures the end-to-end metrics: set-up time (median over nine
process launches), operations per second, median and 90th-percentile
latency, and the peak RSS of the workload's process.  The op list runs
the workload's PASSES times, and each op counts with the fastest of its
samples.  Every time is scaled to the reference machine speed by the probe
loop the worker times in the same process (worker.at_reference_speed);
the wall-clock figures are printed beside them.
--trace 1 runs the op list once untraced, once with span wrappers installed
and once more untraced, checks that all three runs produced identical
outputs and that every traced op's spans cover its measured time, and
reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

from benchstats import median, percentile, samples_beyond
from tracing import LAYERS, now
from worker import REFERENCE_PROBE_S, CpuPicker, at_reference_speed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cyclic_queries", "fusion_rings", "cli_sessions")
OUT_DIR = ".perfbench_out"
SETUP_LAUNCHES = 8  # plus the measured run's own set-up
TIME_LIMIT_S = 170.0
TRACE_LIMITS_S = {"before": 40.0, "traced": 70.0, "after": 40.0}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Starts worker processes for one workload and seed inside the checkout."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 workdir: str) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.deadline = now() + TIME_LIMIT_S
        self.picker = CpuPicker()  # each worker starts on the CPU a probe finds fastest
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def launch(self, tag: str, *options: str) -> dict:
        out = os.path.join(self.workdir, f"{tag}.json")
        scratch = os.path.join(self.workdir, tag)
        os.mkdir(scratch)
        self.picker.pick()
        spawned = now()
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--seconds", repr(self.seconds), "--spawned", repr(spawned),
               "--out", out, "--workdir", scratch, *options]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=max(self.deadline - spawned, 1))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: worker did not finish in time") from exc
        if proc.returncode != 0:
            raise BenchError(f"{tag}: worker exited {proc.returncode}:\n"
                             + proc.stderr.decode(errors="replace")[-2000:])
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        if result["cut"]:
            print(f"FAILED {tag}: the op list did not finish within its time limit")
        return result


def ops_per_s(ops: list[dict]) -> float:
    """Operations per second of time spent inside operations."""
    return len(ops) / sum(op["latency_s"] for op in ops)


def report_errors(ops: list[dict]) -> int:
    failed = [op for op in ops if op["error"] is not None]
    for op in failed[:10]:
        print(f"FAILED {op['kind']} (size {op['size']}): {op['error']}")
    return len(failed)


def end_to_end(runner: Runner) -> dict:
    runner.launch("warmup", "--setup-only")  # fills bytecode and file caches
    # Half the set-up samples come before the measured run and half after,
    # so one slow spell of the machine does not set the median.
    setups = [runner.launch(f"setup{i}", "--setup-only") for i in range(SETUP_LAUNCHES // 2)]
    run = runner.launch("run", "--best-of")
    setups += [runner.launch(f"setup{i}", "--setup-only")
               for i in range(SETUP_LAUNCHES // 2, SETUP_LAUNCHES)]
    digests = {s["digest"] for s in setups} | {run["digest"]}
    ops = run["ops"]
    wall = [op["latency_s"] for op in ops]
    latencies = [at_reference_speed(latency, run["probe_s"]) for latency in wall]
    failed = report_errors(ops)
    peak = run["maxrss_children_mb" if runner.workload == "cli_sessions" else "maxrss_self_mb"]
    metrics = {
        "setup_s": median([at_reference_speed(s["setup_s"], s["probe_s"])
                           for s in setups + [run]]),
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": percentile(latencies, 50) * 1000,
        "latency_p90_ms": percentile(latencies, 90) * 1000,
        "peak_rss_mb": peak,
    }
    print(f"machine speed: probe {run['probe_s'] * 1e3:.4f} ms (median of {run['probes']}"
          f" during the run) against the reference {REFERENCE_PROBE_S * 1e3:g} ms; as wall"
          f" time, setup_s {median([s['setup_s'] for s in setups + [run]]):.4f} s, ops_per_s"
          f" {ops_per_s(ops):.4f} 1/s, latency_p50_ms {percentile(wall, 50) * 1000:.4f} ms,"
          f" latency_p90_ms {percentile(wall, 90) * 1000:.4f} ms")
    print(f"inputs digest {run['digest']} ({'identical' if len(digests) == 1 else 'DIFFERENT'}"
          f" across {SETUP_LAUNCHES + 1} launches; {len(ops)} of {run['planned']} planned ops run,"
          f" each {len(ops[0]['samples'])} times)")
    print(f"setup_s sample count {SETUP_LAUNCHES + 1}; latency sample count {len(ops)},"
          f" {samples_beyond(len(ops), 90)} beyond p90; each sample is an op's best pass")
    print(f"error_rate {failed / len(ops):.6f} ({failed} failed / {len(ops)} attempted;"
          f" {sum(op['refusal'] for op in ops)} expected refusals,"
          f" {sum(bool(op['fails_in']) for op in ops)} corrupted inputs)")
    return {"correct": failed == 0 and len(digests) == 1 and not run["cut"],
            "attempted": len(ops), "failed": failed, "metrics": metrics}


def per_layer(runner: Runner) -> dict:
    spans_file = os.path.join(runner.root, OUT_DIR, f"{runner.workload}.spans.jsonl")
    # Untraced runs before and after the traced one, on the same operations:
    # their median rate cancels a steady drift in machine speed out of the overhead.
    runs = {
        "before": runner.launch("before", "--fingerprints", "--limit",
                                repr(TRACE_LIMITS_S["before"])),
        "traced": runner.launch("traced", "--trace", "--fingerprints", "--spans-file", spans_file,
                                "--limit", repr(TRACE_LIMITS_S["traced"])),
        "after": runner.launch("after", "--fingerprints", "--limit",
                               repr(TRACE_LIMITS_S["after"])),
    }
    traced = runs["traced"]
    ops = traced["ops"]
    untraced = [runs["before"], runs["after"]]
    identical = all(
        run["digest"] == traced["digest"]
        and [op["fingerprint"] for op in run["ops"]] == [op["fingerprint"] for op in ops]
        for run in untraced)
    failed = sum(report_errors(run["ops"]) for run in runs.values())
    metrics = dict(traced["layers"])
    metrics["trace.untraced_ops_per_s"] = median([ops_per_s(run["ops"]) for run in untraced])
    metrics["trace.overhead_ops_per_s"] = metrics["trace.untraced_ops_per_s"] - ops_per_s(ops)
    metrics["trace.outputs_identical"] = int(identical)
    corrupted = {layer: sum(layer in op["fails_in"] for op in ops) for layer in LAYERS}
    metrics["bench.corrupted_inputs"] = sum(bool(op["fails_in"]) for op in ops)
    metrics["bench.refusals"] = sum(op["refusal"] for op in ops)
    mismatched = [layer for layer in LAYERS
                  if metrics[f"{layer}.failed_reports"] != corrupted[layer]]
    print(f"inputs digest {traced['digest']}; {len(ops)} ops, as many as an end-to-end run,"
          f" replayed with tracing; outputs {'identical' if identical else 'DIFFER'}"
          f" to the untraced runs")
    print(f"tracing overhead {metrics['trace.overhead_ops_per_s']:.4f} ops/s of"
          f" {metrics['trace.untraced_ops_per_s']:.4f} untraced;"
          f" spans cover {metrics['trace.span_coverage']:.1%} of measured op time,"
          f" at least {metrics['trace.min_op_coverage']:.1%} of every op's")
    for layer in mismatched:
        print(f"FAILED {layer}.failed_reports = {metrics[f'{layer}.failed_reports']},"
              f" expected {corrupted[layer]} (one per corrupted input)")
    for name, key, size, calls, mean in traced["baseline_rows"]:
        print(f"size row: {name} {key}={size}: {mean:.4f} s per call ({calls} calls)")
    print(f"spans written to {os.path.relpath(spans_file, runner.root)}")
    cut = any(run["cut"] for run in runs.values())
    return {"correct": failed == 0 and identical and not mismatched and not cut,
            "attempted": sum(len(run["ops"]) for run in runs.values()), "failed": failed,
            "metrics": metrics}


def required_metrics(workload: str, trace: int, spec: dict) -> set[str]:
    """Metrics a run must produce: every end-to-end one, and the per-layer
    ones workloads.json predicts to move an end-to-end metric of `workload`.
    Any other per-layer metric belongs to a layer the workload leaves idle
    and reads 0 when no span produced it."""
    if not trace:
        return {m["name"] for m in spec["end_to_end"]}
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        predictions = json.load(fh)["predictions"]
    return {name for p in predictions if p["on"] == workload for name in p["per_layer"]}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "modcat", "__init__.py")):
        print("error: src/modcat not found; run from the root of a modcat checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, closed loop with"
          f" 1 client, {os.cpu_count()} cores")
    try:
        runner = Runner(root, args.workload, args.seed, args.seconds, workdir)
        result = per_layer(runner) if args.trace else end_to_end(runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured = result["metrics"]
    missing = sorted(required_metrics(args.workload, args.trace, spec) - measured.keys())
    for name in missing:
        print(f"MISSING {name}: no span or counter produced it")
    result["correct"] = result["correct"] and not missing
    result["metrics"] = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]}
                         for m in wanted}
    for name, entry in result["metrics"].items():
        print(f"{name} {entry['value']} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
