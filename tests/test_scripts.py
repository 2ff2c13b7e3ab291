"""Smoke tests of the study front-ends, run as a user runs them: the
discrete sweep script and its exit status, `kalgrad compare` on every
example config, a usage error, and the library names that the benchmark in
``certbench/`` looks up."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kalgrad
from kalgrad import bucy, ekf, equivalence, expfam, model, natgrad, numerics
from kalgrad.equivalence import SWEEP_MODELS, sweep_schedules
from kalgrad.errors import NonFiniteError

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


def test_discrete_equivalence_script_exits_1_on_an_aborted_cell(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "discrete_equivalence", ROOT / "scripts" / "discrete_equivalence.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    check = script.check_discrete
    first = []

    def abort_first(*args, **kwargs):
        if not first:
            first.append(True)
            raise NonFiniteError("injected")
        return check(*args, **kwargs)

    monkeypatch.setattr(script, "check_discrete", abort_first)
    assert script.main(["--horizon", "5", "--seeds", "1"]) == 1
    assert "(1 aborted)" in capsys.readouterr().out


@pytest.mark.parametrize("config", CONFIGS, ids=[path.stem for path in CONFIGS])
def test_example_config_compare_passes(config, tmp_path):
    # Each config is compared in its model's time domain; the continuous
    # ones carry the step-size study in their dt_list.
    proc = run_python("-m", "kalgrad", "compare", "--config", str(config), "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert "pass = True" in (tmp_path / "summary.txt").read_text().splitlines()


def test_usage_error_exits_1():
    # A usage error is a configuration error, exit 1; exit 2 is numerical.
    # compare is the one command that runs a pair: a run of one side is a
    # library call, and ``run`` is not a command.
    config = ROOT / "scripts" / "configs" / "linear2d.cfg"
    proc = run_python("-m", "kalgrad", "run", "--config", str(config), "--side", "filter")
    assert proc.returncode == 1
    assert "invalid choice: 'run'" in proc.stderr


def test_benchmark_lookups_resolve(monkeypatch):
    # certbench traces the library by name; a renamed span or dispatch
    # entry would break its traced runs, so check the names it reads.  A
    # traced discrete-sweep cell must enter through check_discrete alone
    # and run both sides' step markers once per step, from which aborted
    # cells count their steps, and so must a long-horizon cell; a traced
    # continuous-pendulum cell must enter through check_continuous alone
    # and run RK4 on both continuous fields.  Each result must pass the
    # benchmark's own check, which reads the reports' fields and, for the
    # linear cells, Scenario.obs through its reference filter.
    monkeypatch.syspath_prepend(str(ROOT / "certbench"))
    try:
        report = importlib.import_module("report")
        tracer_mod = importlib.import_module("tracer")
        workloads = importlib.import_module("workloads")
    finally:
        for name in ("report", "tracer", "workloads"):
            sys.modules.pop(name, None)
    cells = [
        workloads.discrete_sweep(0)[0], workloads.continuous_pendulum(0)[0], workloads.long_horizon(0)[0],
    ]
    tracer = tracer_mod.Tracer(kalgrad)
    tracer.install()
    try:
        results = []
        for index, cell in enumerate(cells):
            tracer.cell = index
            results.append(workloads.call(cell))
    finally:
        tracer.uninstall()
    for cell, result in zip(cells, results):
        assert workloads.check(cell, result, {}).certified, cell.label
    read = {*report.CALLS_PER_STEP, *report.US_PER_CALL, "model.generate_scenario"}
    read.update(*report.STEP_MARKERS.values())
    assert read - set(tracer.names) == set()
    spans = tracer.spans()
    expected = {
        0: ("equivalence.check_discrete", set(report.STEP_MARKERS[workloads.DISCRETE])),
        1: ("equivalence.check_continuous", {"numerics.rk4_step", "bucy.bucy_deriv", "bucy.cngd_deriv"}),
        2: ("equivalence.check_discrete", set(report.STEP_MARKERS[workloads.DISCRETE])),
    }
    for index, (root, markers) in expected.items():
        cell_spans = spans[spans[:, 5] == index]
        roots = {tracer.names[i] for i in cell_spans[cell_spans[:, 4] == tracer_mod.NO_PARENT, 1]}
        assert roots == {root}
        assert markers <= {tracer.names[i] for i in cell_spans[:, 1]}
    # An aborted discrete cell counts its steps as its markers / 2, so each
    # side's step marker is a traced span once per step: a driver that held
    # its own copies of the step functions would bypass the tracer.
    for index in (0, 2):
        names = [tracer.names[i] for i in spans[spans[:, 5] == index, 1]]
        horizon = cells[index].kwargs["scenario"].horizon
        assert [names.count(m) for m in report.STEP_MARKERS[workloads.DISCRETE]] == [horizon] * 2
    assert ekf._OBSERVERS[ekf.GAIN] is ekf.observe_gain
    # certbench's tests wrap every module's copy of solve_psd, and its
    # reference filter reads Scenario.obs.
    for module in (numerics, ekf, natgrad, equivalence, expfam, bucy):
        assert module.solve_psd is numerics.solve_psd
    assert callable(model.Scenario.obs)
