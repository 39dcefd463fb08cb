"""Smoke tests: the scripts in scripts/ run to completion."""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tests.test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


def test_condense_demo_runs():
    proc = run_script("condense_so2_demo.py", "7", "15")
    assert proc.returncode == 0, proc.stderr
    assert "SO(7)_2: rank 7, axioms pass" in proc.stdout
    assert "SO(15)_2: rank 11, axioms pass" in proc.stdout


def test_survey_runs():
    proc = run_script("survey_classification.py", "--max-n", "45")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split()[0] == "45"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_summary_from_canned_lines():
    """summarize() reads canned result lines; no benchmark runs."""
    bench = load_script("bench_pairs")

    def line(ops: float, rss: float, failed: int = 0) -> dict:
        metrics = {"ops_per_s": {"value": ops, "unit": "1/s"},
                   "peak_rss_mb": {"value": rss, "unit": "MB"}}
        return {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": metrics}

    runs = [(100, 120, 50, 50), (110, 105, 50, 49), (90, 130, 51, 50), (100, 100, 50, 50)]
    pairs = [{"workload": "w", "seed": s, "first": "before", "before": line(b, rb),
              "after": line(a, ra)} for s, (b, a, rb, ra) in enumerate(runs, 1)]
    pairs.append({"workload": "v", "seed": 1, "first": "after",
                  "before": line(5, 9), "after": line(4, 9, failed=2)})
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]
    summary = bench.summarize(pairs, end_to_end)

    assert list(summary) == ["w", "v"]
    w = summary["w"]
    assert (w["pairs"], w["failed"], w["correct"]) == (4, {"before": 0, "after": 0}, True)
    ops = w["ops_per_s"]
    assert (ops["before_median"], ops["after_median"]) == (100, 112.5)
    assert ops["before_quartiles"] == [bench.percentile([100, 110, 90, 100], q) for q in (25, 75)]
    assert 90 < ops["before_quartiles"][0] < 100 < ops["before_quartiles"][1] < 110
    assert ops["after_better_pairs"] == 2  # 120 > 100 and 130 > 90; 105 < 110; the tie counts for neither
    assert w["peak_rss_mb"]["after_better_pairs"] == 2  # lower is better: 49 < 50, 50 < 51
    v = summary["v"]
    assert (v["failed"], v["correct"]) == ({"before": 0, "after": 2}, False)
    assert v["ops_per_s"]["after_better_pairs"] == 0


def test_bench_pairs_summary_gives_median_change_and_bound():
    """median_change is the relative change of the medians, positive when
    the change is better, and bound is copied from the metric; canned
    lines, no benchmark runs."""
    bench = load_script("bench_pairs")

    def line(ops: float, p50: float) -> dict:
        metrics = {"ops_per_s": {"value": ops}, "latency_p50_ms": {"value": p50}}
        return {"correct": True, "failed": 0, "metrics": metrics}

    runs = [(100, 125, 10, 8), (90, 120, 12, 9), (110, 130, 8, 8)]
    pairs = [{"workload": "w", "seed": s, "first": "before", "before": line(b, pb),
              "after": line(a, pa)} for s, (b, a, pb, pa) in enumerate(runs, 1)]
    end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
                  {"name": "latency_p50_ms", "better": "lower", "bound": 0.5}]
    w = bench.summarize(pairs, end_to_end)["w"]
    assert (w["ops_per_s"]["median_change"], w["ops_per_s"]["bound"]) == (0.25, 0.25)
    assert (w["latency_p50_ms"]["median_change"], w["latency_p50_ms"]["bound"]) == (0.2, 0.5)
    slower = [{**p, "before": p["after"], "after": p["before"]} for p in pairs]
    assert bench.summarize(slower, end_to_end)["w"]["ops_per_s"]["median_change"] == -0.2
    zero = [{**p, "before": line(0, 10)} for p in pairs]
    assert bench.summarize(zero, end_to_end)["w"]["ops_per_s"]["median_change"] is None


def test_bench_pairs_marks_unresolved_metrics():
    """A metric is unresolved when the parent's quartile spread over its
    median is wider than the bound, unless every run of the change is
    better than every run of the parent; canned lines, no benchmark runs."""
    bench = load_script("bench_pairs")

    def unresolved(before: list[float], after: list[float]) -> bool:
        pairs = [{"workload": "w", "seed": s, "first": "before",
                  "before": {"correct": True, "failed": 0, "metrics": {"ops_per_s": {"value": b}}},
                  "after": {"correct": True, "failed": 0, "metrics": {"ops_per_s": {"value": a}}}}
                 for s, (b, a) in enumerate(zip(before, after), 1)]
        end_to_end = [{"name": "ops_per_s", "better": "higher", "bound": 0.25}]
        return bench.summarize(pairs, end_to_end)["w"]["ops_per_s"]["unresolved"]

    assert not unresolved([98, 100, 102, 100, 101], [90, 95, 120, 99, 100])  # spread 0.02
    wide = [60, 100, 140, 80, 120]  # quartiles about 75 and 125: spread 0.5 > 0.25
    assert unresolved(wide, [100, 150, 90, 110, 130])
    assert not unresolved(wide, [150, 141, 200, 160, 145])  # each above every parent run


def test_bench_pairs_compiles_a_checkout(tmp_path, monkeypatch):
    """compile_checkout writes __pycache__ for src and perfbench although
    the environment sets PYTHONDONTWRITEBYTECODE."""
    bench = load_script("bench_pairs")
    for name in ("src", "perfbench"):
        (tmp_path / name).mkdir()
        (tmp_path / name / "module.py").write_text("VALUE = 1\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    bench.compile_checkout(tmp_path)
    for name in ("src", "perfbench"):
        assert list((tmp_path / name / "__pycache__").glob("module.*.pyc")), name


def test_bench_pairs_prints_every_end_to_end_metric():
    """pair_line() reads one canned pair; no benchmark runs."""
    bench = load_script("bench_pairs")

    def line(ops: float, rss: float) -> dict:
        return {"metrics": {"ops_per_s": {"value": ops}, "peak_rss_mb": {"value": rss}}}

    pair = {"workload": "w", "seed": 3, "first": "after",
            "before": line(1138.04, 67.8712), "after": line(1215.5, 46.23)}
    end_to_end = [{"name": "ops_per_s", "better": "higher"},
                  {"name": "peak_rss_mb", "better": "lower"}]
    assert bench.pair_line(pair, end_to_end) == (
        "w seed 3: ops_per_s 1138 -> 1216, peak_rss_mb 67.87 -> 46.23")


def test_bench_pairs_seed_range():
    bench = load_script("bench_pairs")
    assert bench.seed_range("3-12") == range(3, 13)
    assert bench.seed_range("4-4") == range(4, 5)
    for text in ("5-4", "4"):
        with pytest.raises(argparse.ArgumentTypeError):
            bench.seed_range(text)


def test_tier1_time_records_one_test_file(tmp_path):
    """tier1_time.py on one small test file adds its side to the tier1
    entry, with the passed and failed counts and the durations, and keeps
    the file's other keys."""
    tests = tmp_path / "test_small.py"
    tests.write_text("import time\n\ndef test_slow():\n    time.sleep(0.05)\n\n"
                     "def test_fails():\n    assert False\n")
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"pairs": [], "tier1": {"before": {"passed": 1}}}))
    proc = run_script("tier1_time.py", str(ROOT), "--side", "after", "--out", str(out),
                      "--", str(tests))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["pairs"] == [] and record["tier1"]["before"] == {"passed": 1}
    after = record["tier1"]["after"]
    assert (after["passed"], after["failed"], after["pytest_args"]) == (1, 1, [str(tests)])
    assert after["seconds"] >= 0.05
    assert ["call", "test_small.py::test_slow"] in [s[1:] for s in after["slowest"]]
