"""Smoke tests of the two study scripts, run as a user runs them."""

import os
import subprocess
import sys
from pathlib import Path

from kalgrad.equivalence import SWEEP_MODELS, sweep_schedules

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_discrete_equivalence_script():
    proc = run_script("discrete_equivalence.py", "--horizon", "10", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    for name in SWEEP_MODELS:
        assert any(row.split()[0] == name for row in rows)
    assert len(rows) == len(SWEEP_MODELS) * len(sweep_schedules(10))
    assert "aborted" not in proc.stdout


def test_continuous_equivalence_script():
    proc = run_script("continuous_equivalence.py", "--dts", "1e-2", "1e-3")
    assert proc.returncode == 0, proc.stderr
    assert "pass: True" in proc.stdout.splitlines()
