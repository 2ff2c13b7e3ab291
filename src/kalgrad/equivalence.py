"""Hyperparameter bijection between the filter and gradient families, and
trace comparisons certifying that the two sides agree.

Discrete side.  A fading-memory weight schedule alpha_t maps to natural
gradient rates through

    1/eta_t = 1 / ((1 + alpha_t) * eta_{t-1}) + 1,      gamma_t = eta_t,

with the initializations tied by P_0 = eta_0 * J_0^-1.  Under this map the
fading-memory filter and the chart-based natural gradient produce the
same states, and P_t = eta_t * J_t^-1 at every step.  The two sides step
together, the filter's step t and then the gradient's, through
:func:`kalgrad.model.run_sides`.

Continuous side.  The same statement holds for the Kalman-Bucy filter and
the natural-gradient flow when gamma = eta and deta/dt = alpha eta - eta^2;
both sides are integrated on a shared RK4 grid and compared as the step
size shrinks.

Every run returns a :class:`~kalgrad.model.Trace`, so both sides are
compared row by row on the same stacked arrays.  State deviations are
reported relative to max(1, sup-norm of the filter trajectory) so that
near-zero states do not inflate relative errors.  The metric check is
||P_t - eta_t J_t^-1||_F / ||P_t||_F, read in both time domains through
the upper-triangular factors J_t = U_t^T U_t that both gradient sides
carry, as J_t^-1 = U_t^-1 U_t^-T, with stacked inverses of the U_t over
blocks of rows (back-substitution).

Negative controls live here only: :func:`check_discrete` applies one of
:data:`MUTATIONS` to the inputs of one side (alpha = 0 for the filter,
gamma = eta / 2 or a model with F = I for the gradient side), and a sound
comparison must then fail.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrs

from . import bucy as bucy_mod
from . import ekf as ekf_mod
from . import expfam
from . import natgrad as ngd_mod
from .errors import DomainError, NumericalError
from .model import ContinuousModel, Scenario, Trace, _identity, builtin, generate_scenario, run_sides
from .numerics import _prior_factor, check_eta0, schedule, symmetrize
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import solve_psd  # noqa: F401

MUTATIONS = ("drop_fading_factor", "halve_gamma", "skip_metric_transport")

# The discrete sweep grid (acceptance criterion 1 at horizon 50 with 10
# seeds): every model under every fading schedule, one scenario per seed.
SWEEP_MODELS = ("linear2d", "tanhspring", "static", "logistic-static")
SWEEP_HORIZON = 50
SWEEP_SEEDS = 10

# Rows per stacked inverse in the metric check: enough to amortise the
# call, few enough that a long trace adds no large temporaries.
_METRIC_BLOCK = 64


def sweep_schedules(horizon: int) -> dict[str, float | np.ndarray]:
    """The sweep's fading schedules by label: three constants and a ramp
    from 0 to 0.5 over the horizon."""
    return {
        "alpha=0": 0.0,
        "alpha=0.1": 0.1,
        "alpha=1": 1.0,
        "ramp(0,0.5)": np.linspace(0.0, 0.5, horizon),
    }


def sweep_cell(name: str, horizon: int, seed: int) -> tuple[Scenario, np.ndarray, np.ndarray]:
    """Scenario and prior of one sweep cell: bernoulli observations for
    logistic-static and gaussian ones (covariance 0.1 I for linear2d,
    0.25 I otherwise) for the rest, with s_0 = init_state / 2 and P_0 = I."""
    model = builtin(name)
    if name == "logistic-static":
        family = expfam.bernoulli()
    elif name == "linear2d":
        family = expfam.gaussian(0.1 * np.eye(2))
    else:
        family = expfam.gaussian(0.25 * np.eye(model.dim_obs))
    scenario = generate_scenario(model, family, horizon, seed)
    return scenario, 0.5 * np.asarray(model.init_state, dtype=float), np.eye(model.dim_state)


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
    pairs once the deviation reaches the noise floor.  An order that cannot
    be measured, because one of the two deviations is exactly 0, is nan;
    for the verdict a finest state deviation of exactly 0 still counts as
    converged.
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
) -> np.ndarray:
    """Expand the fading schedule into the matched rates eta_0..eta_T.

    ``alpha`` is normalised by :func:`kalgrad.numerics.schedule` before
    the recursion divides by 1 + alpha_t.  eta[0] = eta0 is the shared
    initialization rate; the gradient side's schedule, and its gamma_t, is
    ``eta[1:]``.  The recursion is run on 1/eta so that integer-valued
    cases stay exact.
    """
    if not 0 < eta0 <= 1:
        raise ValueError(f"eta_0 must lie in (0, 1], got {eta0:g}")
    alpha = schedule("alpha", alpha, horizon)
    eta = np.zeros(horizon + 1)
    eta[0] = eta0
    inv = 1.0 / eta0
    for t in range(1, horizon + 1):
        inv = inv / (1.0 + alpha[t - 1]) + 1.0
        eta[t] = 1.0 / inv
    return eta


def map_eta_to_alpha(eta: Sequence[float]) -> np.ndarray:
    """Invert the schedule map: the unique alpha_t reproducing eta.

    ``eta`` is the full sequence eta_0..eta_T.  Raises DomainError when
    some eta_t = 1 for t >= 1, which would require infinite fading, or
    when an entry is not positive (nan included).
    """
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 1 or eta.size < 2:
        raise ValueError("need eta_0..eta_T with T >= 1")
    if np.any(eta[1:] >= 1.0):
        raise DomainError("eta_t = 1 for t >= 1 has no finite fading weight")
    if not np.all(eta > 0.0):
        raise DomainError("eta schedule must be positive, and not nan")
    return eta[1:] / ((1.0 - eta[1:]) * eta[:-1]) - 1.0


def initial_metric(init_cov, eta0: float) -> np.ndarray:
    """The gradient side's prior metric J_0 = eta_0 P_0^-1, matched to the
    filter's prior covariance P_0 = L L^T through its Cholesky factor, as
    eta_0 L^-T L^-1 (``dpotrs`` on the identity).  eta_0 must pass
    :func:`check_eta0`; a P_0 that holds an inf or nan, or that does not
    factor, is named in the error.  No residual bound applies: a P_0 that
    factors has its inverse, however ill-conditioned."""
    check_eta0(eta0)
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    factor = _prior_factor(init_cov, "prior covariance P_0")
    return symmetrize(eta0 * dpotrs(factor, np.eye(len(init_cov)), lower=1)[0])


def _state_devs(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(states_a).max(initial=0.0)))
    return np.abs(states_a - states_b).max(axis=1) / scale


def _factor_devs(covs: np.ndarray, factors: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """||P_t - eta_t U_t^-1 U_t^-T||_F / ||P_t||_F at every row t, from
    stacked inverses of the upper-triangular factors over blocks of
    :data:`_METRIC_BLOCK` rows; on a triangular matrix the LU of
    ``np.linalg.inv`` pivots nowhere, so each inverse is a
    back-substitution."""
    devs = np.empty(len(covs))
    for start in range(0, len(covs), _METRIC_BLOCK):
        rows = slice(start, start + _METRIC_BLOCK)
        inv = np.linalg.inv(factors[rows])
        diff = covs[rows] - etas[rows, None, None] * (inv @ inv.transpose(0, 2, 1))
        devs[rows] = np.sqrt(np.einsum("tij,tij->t", diff, diff)) / np.sqrt(
            np.einsum("tij,tij->t", covs[rows], covs[rows])
        )
    return devs


def _compare(filt: Trace, grad: Trace, etas: np.ndarray, tol: float, /, **extra) -> ComparisonReport:
    """Per-step deviations of a gradient run, whose learning rate is
    ``etas`` at each row, from a filter run, with the verdict at ``tol``;
    the metric check reads the gradient run's factors."""
    state_devs = _state_devs(filt.states, grad.states)
    metric_devs = _factor_devs(filt.covs, grad.factors, etas)
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

    Steps the fading filter under ``alpha`` and the natural gradient under
    the matched rates of :func:`map_alpha_to_eta` together, from P_0 =
    ``init_cov`` and J_0 = eta_0 P_0^-1 (:func:`kalgrad.model.run_sides`),
    and compares their traces at ``tol``.  A numerical error is re-raised
    with the side that fails at the earliest step, the filter first within
    a step, prepended to the message: "filter side: " or "gradient side: ".

    ``mutate`` names a negative control, one of :data:`MUTATIONS`, which
    breaks the hyperparameter identification by changing one side's
    inputs only; a healthy implementation must then fail:

    * ``drop_fading_factor``: the filter runs with alpha = 0, i.e. without
      the (1 + alpha) covariance inflation;
    * ``halve_gamma``: the gradient side runs with gamma = eta / 2;
    * ``skip_metric_transport``: the gradient side runs on the model with
      F = I, so its metric is never transported between charts.  A model
      whose F at the prior mean and t = 1 is already exactly I is
      rejected, since the control could not fail on it.
    """
    if mutate is not None and mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; known: {MUTATIONS}")
    etas = map_alpha_to_eta(alpha, eta0, scenario.horizon)
    model = scenario.model
    if mutate == "skip_metric_transport":
        f_jac = model.jac_f(np.asarray(init_state, dtype=float), model.input_at(1))
        if np.array_equal(f_jac, _identity(model.dim_state)):
            raise ValueError(
                f"mutation {mutate!r} cannot fail on model {model.name!r}:"
                " its transition Jacobian is already the identity"
            )
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    filt_alpha = 0.0 if mutate == "drop_fading_factor" else alpha
    filter_side = ekf_mod.side(scenario, filt_alpha, init_state, init_cov)

    eta = etas[1:]
    gamma = eta / 2.0 if mutate == "halve_gamma" else eta
    if mutate == "skip_metric_transport":
        # The identity model differs only in its Jacobian, so the
        # scenario's inputs and statistics stay valid for it: a shallow
        # copy reuses them where replace() would build them again.
        identity = replace(model, jacobian_f=lambda s, u: _identity(s.size))
        scenario = copy.copy(scenario)
        object.__setattr__(scenario, "model", identity)
    metric0 = initial_metric(init_cov, eta0)
    try:
        sides = [filter_side, ngd_mod.side(scenario, eta, gamma, init_state, metric0)]
        filt, grad = run_sides(sides, scenario)
    except NumericalError as exc:
        # A J_0 that does not factor is refused as the gradient side is
        # built, before any step tags a side.
        exc.args = (f"{getattr(exc, 'side', 'gradient')} side: {exc}",)
        raise
    return _compare(
        filt, grad, etas, tol, filter_states=filt.states, grad_states=grad.states
    )


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
) -> ContinuousReport:
    """Integrate both continuous filters together per step size
    (:func:`kalgrad.bucy.run`, from one start of each side) and compare;
    the step sizes are checked (:func:`kalgrad.bucy.step_sizes`) before
    any grid is integrated.  A numerical error names the side whose field
    fails at the earliest RK4 stage, ``bucy`` if both fail in one stage.

    Passes when the finest grid meets ``tol`` in both state and metric
    deviation and the coarse-to-fine log-log slope is at least
    ``min_order``, or the finest state deviation is exactly 0.
    """
    dts = bucy_mod.step_sizes(dts, horizon)  # coarse to fine
    init_cov = symmetrize(np.asarray(init_cov, dtype=float))
    init_metric = initial_metric(init_cov, eta0)
    sides = [
        bucy_mod.start(bucy_mod.BUCY, init_state, init_cov),
        bucy_mod.start(bucy_mod.CNGD, init_state, init_metric, eta0),
    ]
    reports = []
    for dt in dts:
        trace_b, trace_c = bucy_mod.run(sides, model, dt, horizon, alpha)
        reports.append(_compare(trace_b, trace_c, trace_c.etas, tol, dt=dt))
    if len(reports) >= 2:
        span = np.log(reports[0].dt / reports[-1].dt)

        def slope(coarse: float, fine: float) -> float:
            if coarse == 0.0 or fine == 0.0:
                return np.nan
            return float(np.log(coarse / fine) / span)

        order_state = slope(reports[0].max_state_dev, reports[-1].max_state_dev)
        order_metric = slope(reports[0].max_metric_dev, reports[-1].max_metric_dev)
    else:
        order_state = order_metric = np.nan
    finest = reports[-1]
    # Converged: the state order reaches min_order, or the finest state
    # deviation vanished outright and left no order to measure.
    converged = len(reports) < 2 or finest.max_state_dev == 0.0 or order_state >= min_order
    passed = bool(finest.passed and converged)
    return ContinuousReport(
        reports=reports,
        order_state=order_state,
        order_metric=order_metric,
        min_order=min_order,
        passed=passed,
    )
