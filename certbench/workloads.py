"""Inputs, cells and correctness checks of the three certification workloads.

Every input is a pure function of the workload seed.  A cell is one call
into ``equivalence.check_discrete`` or ``equivalence.check_continuous``, the
entry point that the acceptance criteria, the sweep scripts and
``kalgrad compare`` use.  Its outcome is checked here, outside the timed call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from kalgrad import equivalence, expfam, model
from kalgrad.errors import NumericalError

DISCRETE = "discrete"
CONTINUOUS = "continuous"

DISCRETE_TOL = 1e-8
CONTINUOUS_TOL = 1e-6
MIN_ORDER = 1.0
# Tolerance of a filter trajectory against the independent linear Kalman
# filter below, relative to max(1, sup-norm of the reference).
REFERENCE_TOL = 1e-8

# discrete-sweep: the acceptance criterion 1 grid.  Benchmark seed s uses
# scenario seeds 10 s .. 10 s + 9, so seed 0 is criterion 1 itself.
SWEEP_MODELS = ("linear2d", "tanhspring", "static", "logistic-static")
SWEEP_HORIZON = 50
SWEEP_SEEDS = 10

# continuous-pendulum: the criterion 8 step-size study on coarser grids, so
# that one cell takes about half a second.  One input per seed, repeated
# throughout the run, as for long-horizon.
PENDULUM_DTS = (1e-1, 1e-2, 1e-3)
PENDULUM_OFFSET = 0.2

# long-horizon: one near-orthogonal linear-Gaussian system per seed, with
# n > 2: the only input on the scipy Cholesky branch of solve_psd.  T = 1000
# keeps a cell near half a second, as on continuous-pendulum: the fastest of
# many short repeats is less disturbed by host contention than that of a few
# long ones.
LONG_DIM, LONG_OBS, LONG_HORIZON = 8, 4, 1000


@dataclass(frozen=True)
class Cell:
    """One certification call and what its outcome is checked against."""

    label: str
    kind: str  # DISCRETE or CONTINUOUS
    kwargs: dict
    steps: int  # certified steps when the cell completes
    # (A, H_t for t = 1..T, R): a linear-Gaussian system whose filter means
    # an independent Kalman filter reproduces; None for nonlinear models.
    linear: tuple | None = None


@dataclass(frozen=True)
class Outcome:
    """Checked result of one cell; ``error`` is set when the cell aborted."""

    state_dev: float = np.nan
    metric_dev: float = np.nan
    order: float = np.nan
    error: str | None = None
    missed: str | None = None  # why a completed cell misses its tolerance

    @property
    def certified(self) -> bool:
        return self.error is None and self.missed is None


def call(cell: Cell):
    """Run one cell through the public entry point (looked up at call time,
    so that an installed tracer sees it)."""
    if cell.kind == DISCRETE:
        return equivalence.check_discrete(**cell.kwargs)
    return equivalence.check_continuous(**cell.kwargs)


def run_checked(cell: Cell, references: dict) -> tuple[float, Outcome]:
    """Time one cell (wall seconds) and check its outcome outside the timing.

    ``references`` caches the reference filter means by cell label."""
    start = time.perf_counter()
    try:
        result = call(cell)
    except NumericalError as exc:
        return time.perf_counter() - start, Outcome(error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return seconds, check(cell, result, references)


def check(cell: Cell, result, references: dict) -> Outcome:
    """Hold a completed cell's result to the certification tolerances."""
    if cell.kind == CONTINUOUS:
        finest = result.reports[-1]
        missed = None
        if not (finest.max_state_dev <= CONTINUOUS_TOL and finest.max_metric_dev <= CONTINUOUS_TOL):
            missed = f"finest-grid deviation above {CONTINUOUS_TOL:g}"
        elif not result.order_state >= MIN_ORDER:
            missed = f"measured order {result.order_state:.3g} below {MIN_ORDER:g}"
        return Outcome(finest.max_state_dev, finest.max_metric_dev, result.order_state, missed=missed)

    rows = cell.kwargs["scenario"].horizon + 1
    filt, grad = result.filter_states, result.grad_states
    if filt.shape[0] != rows or grad.shape != filt.shape:
        return Outcome(missed=f"trajectories have {filt.shape[0]} and {grad.shape[0]} rows, expected {rows}")
    recomputed = _state_dev(filt, grad)
    state_dev = max(result.max_state_dev, recomputed)
    missed = None
    if not (result.max_state_dev <= DISCRETE_TOL and recomputed <= DISCRETE_TOL
            and result.max_metric_dev <= DISCRETE_TOL):
        missed = f"state or metric deviation above {DISCRETE_TOL:g}"
    elif cell.linear is not None:
        if cell.label not in references:
            references[cell.label] = reference_means(cell)
        ref = references[cell.label]
        ref_dev = float(np.abs(filt - ref).max()) / max(1.0, float(np.abs(ref).max()))
        if not ref_dev <= REFERENCE_TOL:
            missed = f"filter means off the reference Kalman filter by {ref_dev:.3e}"
    return Outcome(state_dev, result.max_metric_dev, missed=missed)


def _state_dev(a: np.ndarray, b: np.ndarray) -> float:
    # Recomputed from the returned trajectories, with the same scaling as
    # the program's own state deviation.
    return float(np.abs(a - b).max()) / max(1.0, float(np.abs(a).max()))


def reference_means(cell: Cell) -> np.ndarray:
    """Fading-memory Kalman filter means for a linear-Gaussian cell, computed
    with plain numpy and without any kalgrad numerics."""
    a_mat, h_mats, r_mat = cell.linear
    kw = cell.kwargs
    scenario = kw["scenario"]
    horizon = scenario.horizon
    alpha = np.broadcast_to(np.asarray(kw["alpha"], dtype=float), (horizon,))
    s = np.asarray(kw["init_state"], dtype=float)
    p = np.asarray(kw["init_cov"], dtype=float)
    means = [s]
    for t in range(1, horizon + 1):
        s = a_mat @ s
        p = (1.0 + alpha[t - 1]) * (a_mat @ p @ a_mat.T)
        h = h_mats[t - 1]
        gain = np.linalg.solve(h @ p @ h.T + r_mat, h @ p).T
        s = s + gain @ (np.asarray(scenario.obs(t)) - h @ s)
        p = (np.eye(len(s)) - gain @ h) @ p
        p = 0.5 * (p + p.T)
        means.append(s)
    return np.stack(means)


# -- input generation -----------------------------------------------------


def _sweep_family(name: str, dim_obs: int) -> expfam.ObservationFamily:
    # As in the acceptance suite and scripts/discrete_equivalence.py.
    if name == "logistic-static":
        return expfam.bernoulli()
    if name == "linear2d":
        return expfam.gaussian(0.1 * np.eye(2))
    return expfam.gaussian(0.25 * np.eye(dim_obs))


def discrete_sweep(seed: int) -> list[Cell]:
    schedules = {
        "0": 0.0,
        "0.1": 0.1,
        "1": 1.0,
        "ramp(0,0.5)": np.linspace(0.0, 0.5, SWEEP_HORIZON),
    }
    cells = []
    for name in SWEEP_MODELS:
        m = model.builtin(name)
        family = _sweep_family(name, m.dim_obs)
        s0, p0 = 0.5 * np.asarray(m.init_state, dtype=float), np.eye(m.dim_state)
        linear = _sweep_linear(m, family, SWEEP_HORIZON)
        scenarios = [
            model.generate_scenario(m, family, SWEEP_HORIZON, SWEEP_SEEDS * seed + i)
            for i in range(SWEEP_SEEDS)
        ]
        for alpha_name, alpha in schedules.items():
            for scenario in scenarios:
                cells.append(
                    Cell(
                        label=f"{name} alpha={alpha_name} scenario-seed={scenario.seed}",
                        kind=DISCRETE,
                        kwargs=dict(scenario=scenario, init_state=s0, init_cov=p0, alpha=alpha, tol=DISCRETE_TOL),
                        steps=SWEEP_HORIZON,
                        linear=linear,
                    )
                )
    return cells


def _sweep_linear(m, family, horizon: int) -> tuple | None:
    """System matrices of the linear-Gaussian built-ins, read off their
    analytic Jacobians (constant for these models)."""
    if m.name not in ("linear2d", "static"):
        return None
    zero = np.zeros(m.dim_state)
    inputs = [np.asarray(m.inputs(t), dtype=float) for t in range(1, horizon + 1)]
    a_mat = np.asarray(m.jacobian_f(zero, inputs[0]), dtype=float)
    h_mats = [np.asarray(m.jacobian_h(zero, u), dtype=float) for u in inputs]
    return a_mat, h_mats, family.obs_cov


def continuous_pendulum(seed: int) -> list[Cell]:
    m = model.builtin("pendulum-ct")
    rng = np.random.default_rng(seed)
    init = np.asarray(m.init_state, dtype=float) + PENDULUM_OFFSET * rng.standard_normal(m.dim_state)
    kwargs = dict(
        model=m,
        init_state=init,
        init_cov=0.5 * np.eye(m.dim_state),
        alpha=0.2,
        dts=PENDULUM_DTS,
        horizon=1.0,
        tol=CONTINUOUS_TOL,
        eta0=0.5,
        min_order=MIN_ORDER,
    )
    steps = sum(int(round(1.0 / dt)) for dt in PENDULUM_DTS)
    label = f"pendulum-ct s0={np.array2string(init, precision=4)}"
    return [Cell(label=label, kind=CONTINUOUS, kwargs=kwargs, steps=steps)]


def long_horizon(seed: int) -> list[Cell]:
    rng = np.random.default_rng(seed)
    n, k = LONG_DIM, LONG_OBS
    # A random orthogonal matrix scaled by 0.99: with a random non-orthogonal
    # stable A, P collapses in the contracting directions until solve_psd's
    # residual check aborts, which is not what this workload measures.
    q_mat, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a_mat = 0.99 * q_mat
    h_mat = rng.standard_normal((k, n)) / np.sqrt(n)
    r_mat = 0.25 * np.eye(k)
    system = model.DynamicalModel(
        name=f"orthogonal-{n}x{k}",
        dim_state=n,
        dim_input=0,
        dim_obs=k,
        f=lambda s, u: a_mat @ s,
        h=lambda s, u: h_mat @ s,
        jacobian_f=lambda s, u: a_mat,
        jacobian_h=lambda s, u: h_mat,
        inputs=lambda t: np.zeros(0),
        init_state=rng.standard_normal(n),
    )
    scenario_seed = int(rng.integers(2**31))
    scenario = model.generate_scenario(system, expfam.gaussian(r_mat), LONG_HORIZON, scenario_seed)
    kwargs = dict(scenario=scenario, init_state=np.zeros(n), init_cov=np.eye(n), alpha=0.1, tol=DISCRETE_TOL)
    label = f"{system.name} scenario-seed={scenario_seed}"
    linear = (a_mat, [h_mat] * LONG_HORIZON, r_mat)
    return [Cell(label=label, kind=DISCRETE, kwargs=kwargs, steps=LONG_HORIZON, linear=linear)]


WORKLOADS = {
    "discrete-sweep": discrete_sweep,
    "continuous-pendulum": continuous_pendulum,
    "long-horizon": long_horizon,
}
