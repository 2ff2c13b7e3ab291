"""Smoke tests of the study front-ends, run as a user runs them: the
discrete sweep script, `kalgrad compare` on every example config, and the
library names that the benchmark in ``certbench/`` looks up."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kalgrad
from kalgrad import ekf
from kalgrad.cli import parse_config
from kalgrad.equivalence import SWEEP_MODELS, sweep_schedules
from kalgrad.model import ContinuousModel, builtin

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.cfg"))


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=300,
    )


def test_discrete_equivalence_script():
    script = ROOT / "scripts" / "discrete_equivalence.py"
    proc = run_python(str(script), "--horizon", "10", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    for name in SWEEP_MODELS:
        assert any(row.split()[0] == name for row in rows)
    assert len(rows) == len(SWEEP_MODELS) * len(sweep_schedules(10))
    assert "aborted" not in proc.stdout


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_example_config_compare_passes(config, tmp_path):
    # Each config is compared in its own time domain; the continuous ones
    # carry the step-size study in their dt_list.
    continuous = isinstance(builtin(parse_config(config).scenario), ContinuousModel)
    mode = "continuous" if continuous else "discrete"
    proc = run_python(
        "-m", "kalgrad", "compare", "--config", str(config), "--mode", mode, "--out", str(tmp_path)
    )
    assert proc.returncode == 0, proc.stderr
    assert "pass = True" in (tmp_path / "summary.txt").read_text().splitlines()


def test_benchmark_lookups_resolve(monkeypatch):
    # certbench traces the library by name; a renamed span or dispatch
    # entry would break its traced runs, so check the names it reads.
    monkeypatch.syspath_prepend(str(ROOT / "certbench"))
    try:
        report = importlib.import_module("report")
        tracer = importlib.import_module("tracer").Tracer(kalgrad)
    finally:
        for name in ("report", "tracer", "workloads"):
            sys.modules.pop(name, None)
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    read = {*report.CALLS_PER_STEP, *report.US_PER_CALL, "model.generate_scenario"}
    read.update(*report.STEP_MARKERS.values())
    assert read - set(tracer.names) == set()
    assert ekf._OBSERVERS[ekf.GAIN] is ekf.observe_gain
