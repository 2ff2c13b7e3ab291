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
    """Run a Python subprocess on the repo's sources, with a RuntimeWarning
    an error there as it is in this suite."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True, text=True, env=env, timeout=300,
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
    # entry would break its traced runs, so check the names it reads.  A
    # traced discrete-sweep cell must enter through check_discrete alone
    # and run both sides' step markers, from which aborted cells count
    # their steps.
    monkeypatch.syspath_prepend(str(ROOT / "certbench"))
    try:
        report = importlib.import_module("report")
        tracer_mod = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        for name in ("report", "tracer", "workloads"):
            sys.modules.pop(name, None)
    cell = workloads.discrete_sweep(0)[0]
    tracer = tracer_mod.Tracer(kalgrad)
    tracer.install()
    try:
        tracer.cell = 0
        workloads.call(cell)
    finally:
        tracer.uninstall()
    read = {*report.CALLS_PER_STEP, *report.US_PER_CALL, "model.generate_scenario"}
    read.update(*report.STEP_MARKERS.values())
    assert read - set(tracer.names) == set()
    spans = tracer.spans()
    roots = {tracer.names[i] for i in spans[spans[:, 4] == tracer_mod.NO_PARENT, 1]}
    assert roots == {"equivalence.check_discrete"}
    ran = {tracer.names[i] for i in spans[:, 1]}
    assert set(report.STEP_MARKERS[workloads.DISCRETE]) <= ran
    assert ekf._OBSERVERS[ekf.GAIN] is ekf.observe_gain
