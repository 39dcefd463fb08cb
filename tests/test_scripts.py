"""Smoke tests: the scripts in scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    path = os.pathsep.join(p for p in paths if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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
