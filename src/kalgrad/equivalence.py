"""Hyperparameter bijection between the filter and gradient families, and
trace comparisons certifying that the two sides agree.

Discrete side.  A fading-memory weight schedule alpha_t maps to natural
gradient rates through

    1/eta_t = 1 / ((1 + alpha_t) * eta_{t-1}) + 1,      gamma_t = eta_t,

with the initializations tied by P_0 = eta_0 * J_0^-1.  Under this map the
fading-memory filter and the chart-based natural gradient (exact Fisher
mode) produce the same states, and P_t = eta_t * J_t^-1 at every step.

Continuous side.  The same statement holds for the Kalman-Bucy filter and
the natural-gradient flow when gamma = eta and deta/dt = alpha eta - eta^2;
both sides are integrated on a shared RK4 grid and compared as the step
size shrinks.

Every run returns a :class:`~kalgrad.model.Trace`, so both sides are
compared row by row on the same stacked arrays.  State deviations are
reported relative to max(1, sup-norm of the filter trajectory) so that
near-zero states do not inflate relative errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import bucy as bucy_mod
from . import ekf as ekf_mod
from . import natgrad as ngd_mod
from .errors import DomainError
from .model import ContinuousModel, Scenario, Trace
from .numerics import as_schedule, check_schedule, solve_psd, symmetrize

MUTATIONS = ("drop_fading_factor", "halve_gamma", "skip_metric_transport")


@dataclass(frozen=True)
class HyperMap:
    """Matched schedules: alpha_t on the filter side, eta_t on the gradient
    side, with eta[0] the shared initialization rate.  The gradient side's
    gamma_t is eta_t, so its schedule is ``eta[1:]``."""

    alpha: np.ndarray  # length T, entry t-1 applies at step t
    eta: np.ndarray  # length T+1, eta[0] = eta_0

    def __post_init__(self) -> None:
        if np.any(self.alpha < 0):
            raise ValueError("alpha schedule must be >= 0")
        if not 0 < self.eta[0] <= 1:
            raise ValueError("eta_0 must lie in (0, 1]")


@dataclass(frozen=True)
class ComparisonReport:
    """Per-step deviations between matched filter and gradient runs.

    ``filter_states`` / ``grad_states`` hold the two estimate sequences
    (rows t = 0..T) for serialization and diagnostics.
    """

    max_state_dev: float
    max_metric_dev: float
    state_devs: np.ndarray
    metric_devs: np.ndarray
    tol: float
    passed: bool
    dt: float | None = None  # set on continuous runs
    filter_states: np.ndarray | None = None
    grad_states: np.ndarray | None = None


@dataclass(frozen=True)
class ContinuousReport:
    """One ComparisonReport per step size, plus measured convergence orders.

    The order is the log-log slope of the deviation between the coarsest
    and finest grids; roundoff can flatten the slope between the finest
    pairs once the deviation reaches the noise floor.
    """

    reports: list[ComparisonReport] = field(default_factory=list)
    order_state: float = np.nan
    order_metric: float = np.nan
    min_order: float = 1.0
    passed: bool = False


def map_alpha_to_eta(
    alpha: Sequence[float] | float,
    eta0: float,
    horizon: int,
) -> HyperMap:
    """Expand the fading schedule into the matched eta_t schedule.

    The recursion is run on 1/eta so that integer-valued cases stay exact.
    """
    if not 0 < eta0 <= 1:
        raise ValueError("eta_0 must lie in (0, 1]")
    alpha_arr = as_schedule(alpha)
    check_schedule(alpha_arr, horizon, "alpha")
    alpha_arr = np.resize(alpha_arr, horizon)  # a single entry applies at every step
    eta = np.zeros(horizon + 1)
    eta[0] = eta0
    inv = 1.0 / eta0
    for t in range(1, horizon + 1):
        inv = inv / (1.0 + alpha_arr[t - 1]) + 1.0
        eta[t] = 1.0 / inv
    return HyperMap(alpha=alpha_arr, eta=eta)


def map_eta_to_alpha(eta: Sequence[float]) -> np.ndarray:
    """Invert the schedule map: the unique alpha_t reproducing eta.

    ``eta`` is the full sequence eta_0..eta_T.  Raises DomainError when
    some eta_t = 1 for t >= 1, which would require infinite fading.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size < 2:
        raise ValueError("need eta_0..eta_T with T >= 1")
    if np.any(eta[1:] >= 1.0):
        raise DomainError("eta_t = 1 for t >= 1 has no finite fading weight")
    if np.any(eta <= 0.0):
        raise DomainError("eta schedule must be positive")
    return eta[1:] / ((1.0 - eta[1:]) * eta[:-1]) - 1.0


def initial_metric(init_cov, eta0: float) -> np.ndarray:
    """The gradient side's prior metric J_0 = eta_0 P_0^-1, matched to the
    filter's prior covariance P_0."""
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    return symmetrize(eta0 * solve_psd(init_cov, np.eye(init_cov.shape[0])))


def _state_devs(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(states_a).max(initial=0.0)))
    return np.abs(states_a - states_b).max(axis=1) / scale


def _metric_devs(covs: np.ndarray, metrics: np.ndarray, etas: np.ndarray) -> np.ndarray:
    devs = np.zeros(len(covs))
    for i, (cov, metric, eta) in enumerate(zip(covs, metrics, etas)):
        implied = eta * solve_psd(metric, np.eye(metric.shape[0]))
        devs[i] = np.linalg.norm(cov - implied) / np.linalg.norm(cov)
    return devs


def _compare(filt: Trace, grad: Trace, etas: np.ndarray, tol: float, /, **extra) -> ComparisonReport:
    """Per-step deviations of a gradient run, whose learning rate is
    ``etas`` at each row, from a filter run, with the verdict at ``tol``."""
    state_devs = _state_devs(filt.states, grad.states)
    metric_devs = _metric_devs(filt.covs, grad.metrics, etas)
    max_state = float(state_devs.max(initial=0.0))
    max_metric = float(metric_devs.max(initial=0.0))
    return ComparisonReport(
        max_state_dev=max_state,
        max_metric_dev=max_metric,
        state_devs=state_devs,
        metric_devs=metric_devs,
        tol=tol,
        passed=bool(max_state <= tol and max_metric <= tol),
        **extra,
    )


def run_pair(
    scenario: Scenario,
    init_state,
    init_cov,
    hyper: HyperMap,
    tol: float,
    ekf_alpha: np.ndarray | None = None,
    gamma: np.ndarray | None = None,
    skip_metric_transport: bool = False,
) -> ComparisonReport:
    """Run the matched filter/gradient pair and compare their traces.

    The optional overrides (``ekf_alpha``, ``gamma``,
    ``skip_metric_transport``) exist for negative controls: they break
    the hyperparameter identification on one side only.
    """
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    filt_cfg = ekf_mod.EkfConfig(alpha=hyper.alpha if ekf_alpha is None else ekf_alpha)
    filt = ekf_mod.run(scenario, filt_cfg, init_state, init_cov)

    grad_cfg = ngd_mod.NatGradConfig(
        eta=hyper.eta[1:],
        gamma=hyper.eta[1:] if gamma is None else gamma,
        fisher_mode=ngd_mod.EXACT,
        skip_metric_transport=skip_metric_transport,
    )
    grad = ngd_mod.run(
        scenario, grad_cfg, init_state, initial_metric(init_cov, hyper.eta[0])
    )
    return _compare(
        filt, grad, hyper.eta, tol, filter_states=filt.states, grad_states=grad.states
    )


def check_discrete(
    scenario: Scenario,
    init_state,
    init_cov,
    alpha: Sequence[float] | float,
    tol: float = 1e-8,
    eta0: float = 0.5,
    mutate: str | None = None,
) -> ComparisonReport:
    """Certify the discrete filter/gradient agreement on one scenario.

    ``mutate`` selects a deliberate inconsistency (one of
    ``drop_fading_factor``, ``halve_gamma``, ``skip_metric_transport``)
    used as a negative control; a healthy implementation must then fail.
    """
    hyper = map_alpha_to_eta(alpha, eta0, scenario.horizon)
    overrides: dict = {}
    if mutate is not None:
        if mutate not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutate!r}; known: {MUTATIONS}")
        if mutate == "drop_fading_factor":
            # Omitting the (1 + alpha) covariance inflation is the same as
            # filtering with alpha = 0 while the gradient side keeps the
            # mapped schedules.
            overrides["ekf_alpha"] = np.zeros(scenario.horizon)
        elif mutate == "halve_gamma":
            overrides["gamma"] = hyper.eta[1:] / 2.0
        else:
            overrides["skip_metric_transport"] = True
    return run_pair(scenario, init_state, init_cov, hyper, tol, **overrides)


def check_continuous(
    model: ContinuousModel,
    init_state,
    init_cov,
    alpha: float | Callable[[float], float],
    dts: Sequence[float],
    horizon: float,
    tol: float = 1e-6,
    eta0: float = 0.5,
    min_order: float = 1.0,
    y_path: Callable[[float], np.ndarray] | None = None,
) -> ContinuousReport:
    """Integrate both continuous filters per step size and compare.

    Passes when the finest grid meets ``tol`` in both state and metric
    deviation and the coarse-to-fine log-log slope is at least
    ``min_order``.
    """
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    init_metric = initial_metric(init_cov, eta0)
    dts = sorted(float(d) for d in dts)[::-1]  # coarse to fine
    reports = []
    for dt in dts:
        cfg = bucy_mod.IntegratorConfig(dt=dt, horizon=horizon, alpha=alpha)
        trace_b = bucy_mod.integrate(
            bucy_mod.BUCY, bucy_mod.BucyState(init_state, init_cov), model, cfg, y_path
        )
        trace_c = bucy_mod.integrate(
            bucy_mod.CNGD,
            bucy_mod.CngdState(init_state, init_metric, eta0),
            model,
            cfg,
            y_path,
        )
        reports.append(_compare(trace_b, trace_c, trace_c.etas, tol, dt=dt))
    if len(reports) >= 2:
        span = np.log(reports[0].dt / reports[-1].dt)

        def slope(coarse: float, fine: float) -> float:
            # A deviation that vanished outright counts as converged.
            if fine == 0.0:
                return np.inf
            return float(np.log(coarse / fine) / span)

        order_state = slope(reports[0].max_state_dev, reports[-1].max_state_dev)
        order_metric = slope(reports[0].max_metric_dev, reports[-1].max_metric_dev)
    else:
        order_state = order_metric = np.nan
    finest = reports[-1]
    passed = bool(
        finest.passed and (len(reports) < 2 or order_state >= min_order)
    )
    return ContinuousReport(
        reports=reports,
        order_state=order_state,
        order_metric=order_metric,
        min_order=min_order,
        passed=passed,
    )
