"""Online natural gradient descent in the moving chart of a dynamical system.

The trajectory being estimated is represented, at time t, by its state in
the chart "value at time t".  Advancing the chart by one step pushes the
value through the dynamics and transforms the Fisher metric as a (0,2)
tensor:

    s   <- f(s, u_t)
    J   <- (F^-1)^T J F^-1          (chart transport)
    J_t <- (1 - gamma_t) J + gamma_t * Fisher(yhat_t)
    s   <- s + eta_t J_t^-1 (d log p(y_t | yhat_t) / d s)^T

Three Fisher estimators are available: the exact per-observation Fisher
H^T cov(T)^-1 H, the outer product of the observed score, and a Monte
Carlo average of synthetic-score outer products.  Only the exact mode
participates in equivalence checks against the fading-memory filter.
For a model with a canonical-link observation (``model.canonical_link``)
the score is G^T (T(y) - yhat) and the exact Fisher G^T V G, with G the
Jacobian of the linear predictor x and V = cov(T) at x: cov(T)^-1
cancels against H = V G, so both stay finite where yhat rounds to the
boundary of its domain.

For static dynamics (f = Id) the chart never moves and the scheme reduces
to the ordinary online natural gradient, provided here as
:func:`plain_online_natgrad` for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import NonFiniteError, SingularMatrixError
from .model import DynamicalModel, Scenario, Trace
from .numerics import as_schedule, check_schedule, fd_jacobian, solve_psd, symmetrize

EXACT = "exact"
OUTER = "outer"
MONTE_CARLO = "mc"

# Chart changes with condition numbers beyond this are treated as singular:
# the trajectory chart is no longer well-defined.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NatGradState:
    """Trajectory expressed in the current chart, plus the metric there."""

    state: np.ndarray
    metric: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "state", np.asarray(self.state, dtype=float))
        object.__setattr__(self, "metric", np.asarray(self.metric, dtype=float))


@dataclass(frozen=True)
class NatGradConfig:
    """Schedules and Fisher estimation mode.

    ``eta`` and ``gamma`` are stored as 1-D float arrays indexed by step
    (entry t-1 applies at time t); a single entry is broadcast.
    ``skip_metric_transport`` disables the chart transport of the metric
    and exists only as a negative control for the equivalence checks.
    """

    eta: np.ndarray | float
    gamma: np.ndarray | float
    fisher_mode: str = EXACT
    mc_samples: int = 1
    skip_metric_transport: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", as_schedule(self.eta))
        object.__setattr__(self, "gamma", as_schedule(self.gamma))
        # eta = 0 (a frozen parameter with the metric still averaging) is
        # allowed; gamma = 0 would stop the metric from ever updating.
        if np.any(self.eta < 0.0) or np.any(self.eta > 1.0):
            raise ValueError("eta schedule must lie in [0, 1]")
        if np.any(self.gamma <= 0.0) or np.any(self.gamma > 1.0):
            raise ValueError("gamma schedule must lie in (0, 1]")
        if self.fisher_mode not in (EXACT, OUTER, MONTE_CARLO):
            raise ValueError(f"unknown fisher mode {self.fisher_mode!r}")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")

    def check_horizon(self, horizon: int) -> None:
        """Reject eta or gamma schedules with neither 1 nor ``horizon`` entries."""
        check_schedule(self.eta, horizon, "eta")
        check_schedule(self.gamma, horizon, "gamma")

    def eta_at(self, t: int) -> float:
        return float(self.eta[0] if self.eta.size == 1 else self.eta[t - 1])

    def gamma_at(self, t: int) -> float:
        return float(self.gamma[0] if self.gamma.size == 1 else self.gamma[t - 1])


def pushforward_metric(metric: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Transform a (0,2) tensor under the chart change with Jacobian psi.

    Returns (psi^-1)^T J psi^-1 computed with linear solves, symmetrized.

    Raises
    ------
    SingularMatrixError
        If psi is numerically singular (condition estimate above 1e12).
    """
    psi = np.asarray(psi, dtype=float)
    cond = np.linalg.cond(psi)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularMatrixError(
            f"chart-change Jacobian condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    half = np.linalg.solve(psi.T, np.asarray(metric, dtype=float))  # (psi^-1)^T J
    return symmetrize(np.linalg.solve(psi.T, half.T).T)  # ... psi^-1


def chart_transport(
    state: NatGradState,
    model: DynamicalModel,
    t: int,
) -> tuple[NatGradState, np.ndarray]:
    """Move from the chart at t-1 to the chart at t; returns (state, F)."""
    u = model.input_at(t)
    value = np.asarray(model.f(state.state, u), dtype=float)
    if not np.all(np.isfinite(value)):
        raise NonFiniteError(f"transition produced non-finite state at t = {t}")
    f_jac = model.jac_f(state.state, u)
    metric = pushforward_metric(state.metric, f_jac)
    return NatGradState(value, metric), f_jac


def fisher_term(
    yhat: np.ndarray,
    h_jac: np.ndarray,
    family: expfam.ObservationFamily,
    mode: str = EXACT,
    y=None,
    rng: np.random.Generator | None = None,
    mc_samples: int = 1,
    predictor: np.ndarray | None = None,
) -> np.ndarray:
    """Per-observation Fisher contribution with respect to the state.

    exact: H^T cov(T|yhat)^-1 H.
    outer: outer product of the observed score (requires y).
    mc:    average score outer product over mc_samples synthetic draws.

    With ``predictor``, the linear predictor x of a canonical-link model,
    ``h_jac`` is its Jacobian G and cov(T)^-1 cancels: exact is G^T V(x) G
    and the scores are (T(y) - yhat) G.  The two paths differ only in the
    Fisher in observation coordinates and the score of given sufficient
    statistics; the mc draws come from the mean either way.
    """
    if predictor is None:
        fisher = expfam.fisher_wrt_mean(family, yhat)

        def score(stats: np.ndarray) -> np.ndarray:
            return (stats - yhat) @ fisher
    else:
        fisher = expfam.canonical_variance(family, predictor)

        def score(stats: np.ndarray) -> np.ndarray:
            return expfam.canonical_residual(family, stats, predictor)

    if mode == EXACT:
        return symmetrize(h_jac.T @ fisher @ h_jac)
    if mode == OUTER:
        if y is None:
            raise ValueError("outer-product mode needs the observed y")
        observed = score(expfam.sufficient_stats(family, y)) @ h_jac
        return symmetrize(np.outer(observed, observed))
    if mode == MONTE_CARLO:
        if rng is None:
            raise ValueError("monte-carlo mode needs an rng")
        mean = yhat if predictor is None else expfam.canonical_mean(family, predictor)
        draws = expfam.sample(family, mean, rng, size=mc_samples)
        scores = score(expfam._suffstats_batch(family, draws)) @ h_jac  # one row per draw
        return symmetrize(scores.T @ scores / mc_samples)
    raise ValueError(f"unknown fisher mode {mode!r}")


def update(
    state: NatGradState,
    y,
    yhat: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    config: NatGradConfig,
    t: int,
    rng: np.random.Generator | None = None,
) -> NatGradState:
    """Blend the Fisher term into the metric and take one natural step.

    Expects ``state`` already transported to the chart at time t.
    """
    u = model.input_at(t)
    if model.canonical_link(family):
        x = model.predictor(state.state, u)
        jac = model.jac_predictor(state.state, u)
        stats = expfam.sufficient_stats(family, y)
        score_state = expfam.canonical_residual(family, stats, x) @ jac
    else:
        x = None
        jac = model.jac_h(state.state, u)
        score_state = expfam.grad_logp_wrt_mean(family, y, yhat) @ jac
    gamma = config.gamma_at(t)
    fisher = fisher_term(
        yhat, jac, family,
        mode=config.fisher_mode, y=y, rng=rng, mc_samples=config.mc_samples, predictor=x,
    )
    metric = symmetrize((1.0 - gamma) * state.metric + gamma * fisher)
    value = state.state + config.eta_at(t) * solve_psd(metric, score_state)
    return NatGradState(value, metric)


def run(
    scenario: Scenario,
    config: NatGradConfig,
    init_state,
    init_metric,
    rng: np.random.Generator | None = None,
) -> Trace:
    """Run the chart-based online natural gradient over a scenario; returns
    the states and metrics in the chart at each t, row 0 the prior.

    ``rng`` feeds the Monte Carlo Fisher mode only; by default it is a
    Philox stream split off the scenario seed.
    """
    config.check_horizon(scenario.horizon)
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=scenario.seed).jumped())
    state = NatGradState(init_state, init_metric)
    model = scenario.model
    rows = scenario.horizon + 1
    states = np.empty((rows,) + state.state.shape)
    metrics = np.empty((rows,) + state.metric.shape)
    states[0], metrics[0] = state.state, state.metric
    for t in range(1, rows):
        if config.skip_metric_transport:
            u = model.input_at(t)
            value = np.asarray(model.f(state.state, u), dtype=float)
            transported = NatGradState(value, state.metric)
        else:
            transported, _ = chart_transport(state, model, t)
        yhat = np.asarray(model.h(transported.state, model.input_at(t)), dtype=float)
        state = update(
            transported, scenario.obs(t), yhat, model, scenario.family, config, t, rng
        )
        states[t], metrics[t] = state.state, state.metric
    return Trace(states, metrics=metrics)


def plain_online_natgrad(
    inputs: list,
    observations: list,
    h,
    family: expfam.ObservationFamily,
    config: NatGradConfig,
    init_param,
    init_metric,
    jacobian_h=None,
    rng: np.random.Generator | None = None,
) -> Trace:
    """Chartless online natural gradient for a static parameter.

    ``h(theta, u)`` maps the parameter and input to the observation mean;
    ``jacobian_h`` defaults to central differences.  This is the f = Id
    reduction of :func:`run` and serves as its reference implementation;
    it returns the same trace layout.
    """
    if len(inputs) != len(observations):
        raise ValueError("inputs and observations must have equal length")
    config.check_horizon(len(inputs))
    theta = np.asarray(init_param, dtype=float)
    metric = np.asarray(init_metric, dtype=float)
    rows = len(inputs) + 1
    states = np.empty((rows,) + theta.shape)
    metrics = np.empty((rows,) + metric.shape)
    states[0], metrics[0] = theta, metric
    for t, (u, y) in enumerate(zip(inputs, observations), start=1):
        u = np.asarray(u, dtype=float)
        yhat = np.asarray(h(theta, u), dtype=float)
        if jacobian_h is not None:
            h_jac = np.asarray(jacobian_h(theta, u), dtype=float)
        else:
            h_jac = fd_jacobian(lambda v: h(v, u), theta)
        gamma = config.gamma_at(t)
        fisher = fisher_term(
            yhat, h_jac, family,
            mode=config.fisher_mode, y=y, rng=rng, mc_samples=config.mc_samples,
        )
        metric = symmetrize((1.0 - gamma) * metric + gamma * fisher)
        score = expfam.grad_logp_wrt_mean(family, y, yhat) @ h_jac
        theta = theta + config.eta_at(t) * solve_psd(metric, score)
        states[t], metrics[t] = theta, metric
    return Trace(states, metrics=metrics)
