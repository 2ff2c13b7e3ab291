"""Hyperparameter bijection between the filter and gradient families, and
trace comparisons certifying that the two sides agree.

Discrete side.  A fading-memory weight schedule alpha_t maps to natural
gradient rates through

    1/eta_t = 1 / ((1 + alpha_t) * eta_{t-1}) + 1,      gamma_t = eta_t,

with the initializations tied by P_0 = eta_0 J_0^-1 (:func:`initial_factors`).
Under this map the fading-memory filter and the chart-based natural
gradient produce the same states, and P_t = eta_t * J_t^-1 at every step.
The two sides step together, the filter's step t and then the
gradient's, through :func:`kalgrad.model.run_sides`.

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
blocks of rows (back-substitution), each row scaled exactly by powers of
two so that the check has no range limit of its own.

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
from scipy.linalg.lapack import dgeqrf, dtrtri

from . import bucy as bucy_mod
from . import ekf as ekf_mod
from . import expfam
from . import natgrad as ngd_mod
from .errors import NumericalError
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
    ``eta[1:]``.  The recursion is run on 1/eta, in Python floats, so that
    integer-valued cases stay exact.
    """
    if not 0 < eta0 <= 1:
        raise ValueError(f"eta_0 must lie in (0, 1], got {eta0:g}")
    eta = [float(eta0)]
    inv = 1.0 / eta[0]
    for alpha_t in schedule("alpha", alpha, horizon).tolist():
        inv = inv / (1.0 + alpha_t) + 1.0
        eta.append(1.0 / inv)
    return np.array(eta)


def initial_factors(init_cov, eta0: float) -> tuple[np.ndarray, np.ndarray]:
    """The matched starts (S_0, U_0) of a symmetric P_0 = ``init_cov``, as
    :func:`kalgrad.numerics.symmetrize` returns it: the lower Cholesky
    factor of P_0 = S_0 S_0^T, refused by name if P_0 is not finite or does
    not factor, and the upper U_0 = R of the QR of sqrt(eta_0) S_0^-1, its
    rows signed to a positive diagonal, so that U_0^T U_0 = J_0 =
    eta_0 P_0^-1 is never formed; eta_0 must pass :func:`check_eta0`."""
    check_eta0(eta0)
    lower = _prior_factor(init_cov, "prior covariance P_0")
    upper = np.triu(dgeqrf(np.sqrt(eta0) * dtrtri(lower, lower=1)[0])[0])
    upper *= np.copysign(1.0, upper.diagonal())[:, None]
    return lower, upper


def _state_devs(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    scale = max(1.0, float(np.abs(states_a).max(initial=0.0)))
    return np.abs(states_a - states_b).max(axis=1) / scale


def _factor_devs(covs: np.ndarray, factors: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """||P_t - eta_t U_t^-1 U_t^-T||_F / ||P_t||_F at every row t, from
    stacked inverses of the upper-triangular factors over blocks of
    :data:`_METRIC_BLOCK` rows; on a triangular matrix the LU of
    ``np.linalg.inv`` pivots nowhere, so each inverse is a
    back-substitution.  Each row is first scaled exactly, P_t by 4^-k and
    U_t by 2^k with 4^k near max |P_t|: the ratio is the same number, and
    its squares stay in range however small or large the prior.  A row
    with P_t = 0 reads inf."""
    devs = np.empty(len(covs))
    for start in range(0, len(covs), _METRIC_BLOCK):
        rows = slice(start, start + _METRIC_BLOCK)
        k = np.frexp(np.abs(covs[rows]).max(axis=(1, 2)))[1][:, None, None] // 2
        cov = np.ldexp(covs[rows], -2 * k)
        inv = np.linalg.inv(np.ldexp(factors[rows], k))
        diff = cov - etas[rows, None, None] * (inv @ inv.transpose(0, 2, 1))
        norm = np.sqrt(np.einsum("tij,tij->t", cov, cov))
        dev = np.sqrt(np.einsum("tij,tij->t", diff, diff))
        devs[rows] = np.divide(dev, norm, out=np.full_like(dev, np.inf), where=norm != 0.0)
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
    ``init_cov`` and the U_0 of :func:`initial_factors`
    (:func:`kalgrad.model.run_sides`), and compares their traces at
    ``tol``.  A numerical error is re-raised with the side that fails at
    the earliest step, the filter first within a step, prepended to the
    message: "filter side: " or "gradient side: ".
    An error at step t also carries ``report``, the comparison of the rows
    0..t-1 that both sides completed, with ``passed`` False; a prior
    refused before step 1 carries none.

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
    init_cov = symmetrize(init_cov)
    factor0 = initial_factors(init_cov, eta0)[1]
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

    def compare(filt: Trace, grad: Trace) -> ComparisonReport:
        return _compare(
            filt, grad, etas[: len(filt.states)], tol,
            filter_states=filt.states, grad_states=grad.states,
        )

    sides = [filter_side, ngd_mod.side(scenario, eta, gamma, init_state, factor0)]
    try:
        filt, grad = run_sides(sides, scenario)
    except NumericalError as exc:
        exc.args = (f"{exc.side} side: {exc}",)
        exc.report = replace(compare(*exc.traces), passed=False)
        raise
    return compare(filt, grad)


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
    (:func:`kalgrad.bucy.run`, from the S_0 and U_0 of
    :func:`initial_factors`) and compare; the step sizes are checked
    (:func:`kalgrad.bucy.step_sizes`) before any grid is integrated.  A
    numerical error names the side whose field fails at the earliest RK4
    stage, ``bucy`` if both fail in one stage.

    Passes when the finest grid meets ``tol`` in both state and metric
    deviation and the coarse-to-fine log-log slope is at least
    ``min_order``, or the finest state deviation is exactly 0.
    """
    dts = bucy_mod.step_sizes(dts, horizon)  # coarse to fine
    lower, upper = initial_factors(symmetrize(init_cov), eta0)
    sides = [bucy_mod.start(bucy_mod.BUCY, init_state, lower)]
    sides.append(bucy_mod.start(bucy_mod.CNGD, init_state, upper, eta0))
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
