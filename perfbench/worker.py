"""One workload run in its own process: the process the end-to-end metrics describe.

run.py starts this script once per set-up sample and once per measured
run, passing the monotonic time at which it spawned the process.  The
worker imports modcat, generates its inputs from the seed, notes when the
first operation is due, then runs a fixed list of operations one after
another (a closed loop with one client), checking every output.  The
length of the list follows from --seconds and the workload's nominal
rate, so a run does the same work however fast the machine is.  With
--best-of the list runs the workload's PASSES times, each pass from a
fresh session, and an op's latency is the best of its samples: they lie a
pass apart, so a slow spell of a shared machine rarely hits them all.
Slow spells on a shared machine come one CPU at a time, so at most every
PICK_INTERVAL_S the worker also moves itself (and the children it starts)
to whichever of its allowed CPUs a short probe loop finds fastest.  The
probe's median time over the run, or over a few probes after set-up in a
set-up launch, is the machine's speed while the worker measured; run.py
scales every end-to-end time by it.  It writes what it measured as JSON
to --out.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import sys
import time

from benchstats import median
from inputs import digest
from tracing import Tracer, layer_metrics, now, size_rows, top_level_time, write_spans
from workload import fingerprint, judge

WORKLOADS = {"cyclic_queries": "wl_cyclic", "fusion_rings": "wl_fusion", "cli_sessions": "wl_cli"}
MIN_OPS = 100  # so that the 90th latency percentile has ten samples beyond it
# A traced op fails when its top-level spans, plus the interpreter start and
# import time a CLI launcher measures, cover less than MIN_COVERAGE of its
# latency and leave more than UNCOVERED_SLACK_S of it uncovered.  The slack
# spares ops of a few microseconds, where a wrapper's own fixed cost of
# tens of microseconds outweighs the call.
MIN_COVERAGE = 0.5
UNCOVERED_SLACK_S = 2e-4


PICK_INTERVAL_S = 0.2
PROBED_CPUS = 4  # at most this many CPUs are probed
PROBE_LOOPS = 20_000
# What probe_s() takes on the machine the end-to-end times are scaled to:
# about its median on a shared 2-core virtual machine.
REFERENCE_PROBE_S = 1.5e-3
SETUP_PROBES = 5  # probes a set-up launch takes after its set-up is timed


def probe_s() -> float:
    """Time of a fixed pure-Python loop on the current CPU, best of two."""
    best = math.inf
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe: float) -> float:
    """A time measured while probe_s() took `probe`, scaled to a machine on
    which it takes REFERENCE_PROBE_S.

    A shared machine runs at different speeds for minutes at a time, longer
    than a run.  Most of modcat's work, and its interpreter start, is
    pure-Python work like the probe and slows down with it, so the scaled
    time varies far less between runs than the wall time does.  Time spent
    in BLAS, as by the largest fusion rings, can slow less than the probe,
    and scaling then over-corrects it.
    """
    return seconds * REFERENCE_PROBE_S / probe


class CpuPicker:
    """Keeps this process on the allowed CPU that currently runs fastest,
    and keeps the probe time of each CPU it chose."""

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))[:PROBED_CPUS]
        self.last = -math.inf
        self.probes: list[float] = []

    def pick(self) -> None:
        if now() - self.last < PICK_INTERVAL_S:
            return
        timings = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timings.append((probe_s(), cpu))
        probe, cpu = min(timings)
        os.sched_setaffinity(0, {cpu})
        self.probes.append(probe)
        self.last = now()


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal run length; sets how many ops the run holds")
    parser.add_argument("--spawned", type=float, required=True,
                        help="monotonic clock reading taken just before this process started")
    parser.add_argument("--out", required=True, help="result file (JSON)")
    parser.add_argument("--workdir", required=True, help="scratch directory for input files")
    parser.add_argument("--best-of", action="store_true",
                        help="run the op list the workload's PASSES times; each op keeps its best")
    parser.add_argument("--limit", type=float, default=120.0,
                        help="stop, and mark the run cut, after this many seconds of ops")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("--fingerprints", action="store_true",
                        help="record a digest of every op's output")
    parser.add_argument("--spans-file", default=None, help="where --trace writes raw spans")
    return parser.parse_args(argv)


def plan_blocks(module, seconds: float, ops_per_block: int) -> int:
    """Whole blocks for `seconds` at the workload's rate, and at least MIN_OPS ops."""
    return max(math.ceil(MIN_OPS / ops_per_block), round(seconds * module.BLOCKS_PER_SECOND))


def coverage_error(latency_s: float, covered_s: float) -> str | None:
    """Why an op's spans do not account for its latency, or None if they do."""
    uncovered = latency_s - covered_s
    if covered_s < MIN_COVERAGE * latency_s and uncovered > UNCOVERED_SLACK_S:
        return (f"spans cover {covered_s / latency_s:.0%} of its latency,"
                f" less than {MIN_COVERAGE:.0%}, leaving {uncovered * 1e3:.2f} ms")
    return None


def run(args: argparse.Namespace) -> dict:
    module = importlib.import_module(WORKLOADS[args.workload])
    ops_per_block = len(module.plan(args.seed, 1))
    plan = module.plan(args.seed, plan_blocks(module, args.seconds, ops_per_block))
    session = module.Session(args.workdir, args.trace, plan)
    tracer = None
    if args.trace and module.IN_PROCESS:
        tracer = Tracer()
        tracer.install()
    ready = now()
    result = {"setup_s": ready - args.spawned, "digest": digest(plan), "planned": len(plan),
              "cut": False}
    if args.setup_only:
        result["probe_s"] = median([probe_s() for _ in range(SETUP_PROBES)])
        return result

    ops: list[dict] = []
    picker = CpuPicker()
    for pass_index in range(module.PASSES if args.best_of else 1):
        if pass_index:
            session = module.Session(args.workdir, args.trace, plan)
        for index, spec in enumerate(plan):
            if now() - ready > args.limit:
                result["cut"] = True
                break
            op = session.prepare(spec)
            picker.pick()
            if tracer:
                tracer.op = index
            exc = value = None
            start = time.perf_counter()
            try:
                value = op.call()
            except Exception as raised:  # judged below: refusals are expected
                exc = raised
            latency = time.perf_counter() - start
            if tracer:
                tracer.op = None
            error = judge(op, value, exc)
            if pass_index:
                record = ops[index]
                record["samples"].append(latency)
                record["latency_s"] = min(record["samples"])
                record["error"] = record["error"] or error
                continue
            output = fingerprint(exc if exc is not None else value) if args.fingerprints else None
            ops.append({"kind": op.kind, "size": op.size, "latency_s": latency,
                        "samples": [latency], "error": error, "fingerprint": output,
                        "refusal": op.refusal is not None, "fails_in": list(op.fails_in)})
        if not pass_index:
            # Peak RSS of one pass: later passes only add heap fragmentation.
            result["maxrss_self_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["maxrss_children_mb"] = (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
        if result["cut"]:
            break
    result["ops"] = ops
    result["probe_s"] = median(picker.probes)
    result["probes"] = len(picker.probes)
    if not args.trace:
        return result
    if tracer:
        spans, unspanned = tracer.spans, {}
        info = tracer.originals["metaplectic.so_n2_fusion"].cache_info()
        cache = (info.hits, info.misses)
    else:
        spans, cache, unspanned = session.child_spans()
    layers = layer_metrics(spans, cache)
    layers.update(session.counters())
    covered = top_level_time(spans, len(ops))
    for index, seconds in unspanned.items():
        covered[index] += seconds
    for op, seconds in zip(ops, covered):
        op["coverage"] = seconds / op["latency_s"]
        op["error"] = op["error"] or coverage_error(op["latency_s"], seconds)
    layers["trace.span_coverage"] = sum(covered) / sum(op["latency_s"] for op in ops)
    layers["trace.min_op_coverage"] = min(op["coverage"] for op in ops)
    rings = layers.get("fusion.distinct_rings", 0)
    calls = layers.get("fusion.verify_fusion_ring.calls", 0)
    layers["fusion.verify_fusion_ring.calls_per_ring"] = calls / rings if rings else 0.0
    result["layers"] = layers
    result["baseline_rows"] = size_rows(spans)
    if args.spans_file:
        write_spans(args.spans_file, spans)
    return result


def main() -> None:
    args = parse_args(sys.argv[1:])
    result = run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
