"""Summary statistics, per-layer aggregation of spans, and the environment
record that accompanies every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

from tracer import LAYERS, SETUP_CELL, self_times
from workloads import CONTINUOUS, DISCRETE

TAIL_MIN = 10


def tail_percentile(samples, q: float) -> float | None:
    """The q-th percentile of ``samples``, or None when fewer than ten
    samples lie above it, too few for the value to mean anything."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        return None
    value = float(np.percentile(values, q))
    return value if int((values > value).sum()) >= TAIL_MIN else None


def environment(root: Path, blas_env: dict) -> dict:
    """Versions, core count, the BLAS thread settings the benchmark forced
    (``blas_env``, as this process sees them) and the commit of this run."""
    def blas(config) -> str:
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads_forced": {k: os.environ.get(k) for k in blas_env},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout at ``root``, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


# -- per-layer metrics from a traced run ------------------------------------

CALLS_PER_STEP = ("numerics.solve_psd", "numerics.symmetrize", "expfam.check_mean", "model.input_at")
US_PER_CALL = (
    "numerics.solve_psd",
    "numerics.rk4_step",
    "bucy.bucy_deriv",
    "bucy.cngd_deriv",
    "natgrad.pushforward_metric",
    "natgrad.update",
    "ekf.transition",
    "ekf.observe_gain",
)
# Spans that mark one step of each side; an aborted cell's steps are counted
# from them (a matched discrete step is one filter and one gradient step).
STEP_MARKERS = {DISCRETE: ("ekf.transition", "natgrad.chart_transport"), CONTINUOUS: ("numerics.rk4_step",)}


def layer_metrics(spans: np.ndarray, names: list[str], cells: dict, setup_cells: int) -> dict:
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    ``cells`` maps each traced cell id to (kind, certified steps, completed,
    certified); ``setup_cells`` is the number of cells whose inputs the
    set-up generated.
    """
    ids = {name: i for i, name in enumerate(names)}
    in_cell = spans[:, 5] != SETUP_CELL
    traced = spans[in_cell]

    def by_name(weights=None):
        return np.bincount(traced[:, 1], weights=weights, minlength=len(names))

    calls = by_name()
    incl_ns = by_name(traced[:, 3] - traced[:, 2])
    self_ns = by_name(self_times(spans)[in_cell])
    errors = by_name(traced[:, 6])

    # A completed cell ran its certified steps; an aborted one ran as many
    # as its step-marker spans show.
    marker_counts = {}
    for kind, markers in STEP_MARKERS.items():
        hit = np.isin(traced[:, 1], [ids[m] for m in markers if m in ids])
        marker_counts[kind] = np.bincount(traced[hit, 5], minlength=max(cells, default=0) + 1)
    steps_run = wasted = 0.0
    for cell_id, (kind, steps, completed, certified) in cells.items():
        run = steps if completed else marker_counts[kind][cell_id] / 2.0
        steps_run += run
        wasted += 0.0 if certified else run
    per_step = 1.0 / steps_run if steps_run else 0.0

    metrics = {}
    for layer in LAYERS:
        mine = [i for i, name in enumerate(names) if name.split(".")[0] == layer]
        metrics[f"{layer}.self_us_per_step"] = (self_ns[mine].sum() * per_step / 1e3, "us/step")
        metrics[f"{layer}.calls_per_step"] = (calls[mine].sum() * per_step, "calls/step")
        metrics[f"{layer}.errors"] = (int(errors[mine].sum()), "count")
    for name in CALLS_PER_STEP:
        metrics[f"{name}.calls_per_step"] = (calls[ids[name]] * per_step, "calls/step")
    for name in US_PER_CALL:
        i = ids[name]
        metrics[f"{name}.us_per_call"] = (incl_ns[i] / calls[i] / 1e3 if calls[i] else 0.0, "us/call")
    setup = spans[~in_cell]
    gen = setup[setup[:, 1] == ids["model.generate_scenario"]]
    metrics["model.generate_scenario.ms_per_cell"] = ((gen[:, 3] - gen[:, 2]).sum() / setup_cells / 1e6, "ms/cell")
    metrics["equivalence.wasted_step_frac"] = (wasted * per_step, "ratio")
    return metrics
