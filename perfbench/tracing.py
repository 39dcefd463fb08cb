"""Span recording around modcat's public functions, from outside the package.

`Tracer.install` replaces every public function of the layer modules with
a wrapper, both in the module that defines it and in every modcat module
that imported it by name, so internal calls such as classify ->
unit_square_orbits nest as child spans.  Spans stay in memory as plain
lists and are summarised once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from typing import Callable, Iterable

LAYERS = ("numthy", "cyclic", "fusion", "metaplectic", "cli")

# Functions whose wrapper also records the tracemalloc peak of the call.
MEMORY_TRACED = {"cyclic.verify_balancing", "fusion.verify_fusion_ring"}

# Span record layout (lists are cheaper than objects at ~10^5 spans).
NAME, PARENT, OP, SIZE_KEY, SIZE, START, END, RAISED, FAILED, NNZ, PEAK = range(11)


def now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def size_of(layer: str, name: str, args: tuple) -> tuple[str | None, int | None]:
    """The n, N or rank a call works at, read from its arguments."""
    if name == "sqrt_mod_prime_power" and len(args) == 3:
        return "n", args[1] ** args[2]
    if not args:
        return None, None
    first = args[0]
    if isinstance(first, int) and not isinstance(first, bool):
        return ("N" if layer == "metaplectic" else "n"), first
    if isinstance(first, list):  # cli.run(argv): the first integer argument
        for token in first:
            if isinstance(token, str) and token.isdigit():
                return "n", int(token)
        return None, None
    ring = getattr(first, "ring", None) if hasattr(first, "d0") else first
    if hasattr(ring, "coeffs") and hasattr(ring, "rank"):
        return "rank", ring.rank
    if hasattr(first, "twists"):
        return "n", first.n
    return None, None


def verification_failed(result: object) -> bool:
    """Whether a call returned a verification report that did not pass.

    Reports carry `passed`, `all_passed` or `is_ty`; a CLI result reports a
    failed verification as exit status 2.
    """
    if getattr(result, "status", None) == 2:
        return True
    for attr in ("passed", "all_passed", "is_ty"):
        value = getattr(result, attr, None)
        if isinstance(value, bool):
            return not value
    return False


class Tracer:
    """Records one span per wrapped call; `op` tags spans with the operation."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self.originals: dict[str, Callable] = {}
        self.replaced: list[tuple[object, str, Callable]] = []

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        qualname = f"{layer}.{name}"
        memory = qualname in MEMORY_TRACED
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key, size = size_of(layer, name, args)
            nnz = len(args[0].coeffs) if key == "rank" and hasattr(args[0], "coeffs") else 0
            record = [qualname, stack[-1] if stack else None, self.op, key, size,
                      0.0, 0.0, False, False, nnz, 0.0]
            sid = len(spans)
            spans.append(record)
            stack.append(sid)
            own_malloc = memory and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            record[START] = now()
            try:
                result = fn(*args, **kwargs)
            except SystemExit:
                raise
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = now()
                stack.pop()
                if own_malloc:
                    record[PEAK] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            record[FAILED] = verification_failed(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every modcat layer module."""
        modules = {layer: importlib.import_module(f"modcat.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("modcat"), *modules.values()]
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                wrapper = self.wrap(layer, name, obj)
                self.originals[f"{layer}.{name}"] = obj
                for holder in holders:
                    if vars(holder).get(name) is obj:
                        setattr(holder, name, wrapper)
                        self.replaced.append((holder, name, obj))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for holder, name, original in self.replaced:
            setattr(holder, name, original)
        self.replaced.clear()


def self_times(spans: Iterable[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose PARENT is the span's index.  Overlapping
    children are merged first, so the result never goes below zero.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for record in spans:
        if record[PARENT] is not None:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    out = []
    for sid, record in enumerate(spans):
        start, end = record[START], record[END]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list], cache: tuple[int, int]) -> dict[str, float]:
    """Per-function and per-layer totals over the spans of timed operations.

    `cache` is the (hits, misses) of the so_n2_fusion cache at the end of
    the run.
    """
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        for what in ("self_s", "raised", "failed_reports"):
            metrics[f"{layer}.{what}"] = 0
    pairs = quadruples = nnz = 0
    for record, own in zip(spans, self_times(spans)):
        if record[OP] is None:
            continue  # input generation or output checks, not the program's work
        name = record[NAME]
        layer = name.partition(".")[0]
        metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
        metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + own
        metrics[f"{layer}.self_s"] += own
        metrics[f"{layer}.raised"] += record[RAISED]
        metrics[f"{layer}.failed_reports"] += record[FAILED]
        if name in MEMORY_TRACED:
            key = f"{name}.peak_mb"
            metrics[key] = max(metrics.get(key, 0.0), record[PEAK])
        if name == "cyclic.verify_balancing":
            pairs += record[SIZE] ** 2
        elif name == "fusion.verify_fusion_ring":
            quadruples += record[SIZE] ** 4
            nnz += record[NNZ]
    metrics["cyclic.verify_balancing.pairs"] = pairs
    metrics["fusion.verify_fusion_ring.quadruples"] = quadruples
    metrics["fusion.coeffs_nnz"] = nnz
    hits, misses = cache
    metrics["metaplectic.so_n2_fusion.cache_lookups"] = hits + misses
    metrics["metaplectic.so_n2_fusion.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return metrics


def top_level_time(spans: list[list], count: int) -> list[float]:
    """Per operation 0..count-1, the summed duration of its top-level spans."""
    covered = [0.0] * count
    for record in spans:
        if record[PARENT] is None and record[OP] is not None and record[OP] < count:
            covered[record[OP]] += record[END] - record[START]
    return covered


BASELINE_FUNCTIONS = (
    "fusion.verify_fusion_ring", "fusion.fp_dimensions", "metaplectic.condense_z2",
    "cyclic.verify_balancing", "cyclic.modular_relation_residuals", "cyclic.smatrix",
    "cyclic.build_cyclic", "cyclic.classify",
)
SIZE_ROWS_PER_FUNCTION = 3


def size_rows(spans: list[list]) -> list[list]:
    """[function, size key, size, calls, mean seconds] at each function's largest sizes."""
    totals: dict[tuple, list] = {}
    for record in spans:
        if record[OP] is None or record[NAME] not in BASELINE_FUNCTIONS:
            continue
        row = totals.setdefault((record[NAME], record[SIZE_KEY], record[SIZE]), [0, 0.0])
        row[0] += 1
        row[1] += record[END] - record[START]
    rows = []
    for name in BASELINE_FUNCTIONS:
        sizes = sorted((key for key in totals if key[0] == name), key=lambda k: -k[2])
        for key in sizes[:SIZE_ROWS_PER_FUNCTION]:
            calls, total = totals[key]
            rows.append([*key, calls, total / calls])
    return rows


def write_spans(path: str, spans: list[list]) -> None:
    """One JSON object per span: name, parent index, op, size, times, flags."""
    fields = ("name", "parent", "op", "size_key", "size", "start", "end",
              "raised", "failed", "nnz", "peak_mb")
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(dict(zip(fields, record))) + "\n")
