"""Online natural gradient descent in the moving chart of a dynamical system.

The trajectory being estimated is represented, at time t, by its state in
the chart "value at time t".  Advancing the chart by one step pushes the
value through the dynamics and transforms the Fisher metric as a (0,2)
tensor:

    s   <- f(s, u_t)
    J   <- (F^-1)^T J F^-1          (chart transport)
    J_t <- (1 - gamma_t) J + gamma_t * Fisher_t
    s   <- s + eta_t J_t^-1 (d log p(y_t | s) / d s)^T

The score and the Fisher come from the one linearisation of
:func:`kalgrad.model.linearise` (B = d theta / d s, C = cov(T) at the
predicted mean, e = T(y) - E[T]): the score in the state is e B and the
Fisher the exact per-observation Fisher B^T C B, the one under which the
scheme matches the fading-memory filter.  The tests check it against a
Monte Carlo average of score outer products.

Every step function takes and returns plain arrays: the state s in the
current chart and the metric J there.

For static dynamics (f = Id) the chart never moves and the scheme reduces
to the ordinary online natural gradient; the tests keep a chartless
implementation of it as the reference for that reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from . import expfam
from .errors import NonFiniteError, SingularMatrixError
from .model import DynamicalModel, Linearisation, Scenario, Trace, linearise
from .numerics import as_schedule, check_schedule, solve_psd, symmetrize

# Chart changes with condition numbers beyond this are treated as singular:
# the trajectory chart is no longer well-defined.
_COND_LIMIT = 1e12


@dataclass(frozen=True)
class NatGradConfig:
    """Learning-rate and metric-averaging schedules.

    ``eta`` and ``gamma`` are stored as 1-D float arrays indexed by step
    (entry t-1 applies at time t); a single entry is broadcast.
    """

    eta: np.ndarray | float
    gamma: np.ndarray | float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eta", as_schedule(self.eta))
        object.__setattr__(self, "gamma", as_schedule(self.gamma))
        # eta = 0 (a frozen parameter with the metric still averaging) is
        # allowed; gamma = 0 would stop the metric from ever updating.
        if not np.all((0.0 <= self.eta) & (self.eta <= 1.0)):
            raise ValueError("eta schedule must lie in [0, 1]")
        if not np.all((0.0 < self.gamma) & (self.gamma <= 1.0)):
            raise ValueError("gamma schedule must lie in (0, 1]")

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

    Returns (psi^-1)^T J psi^-1, symmetrized.  One singular-value
    decomposition of psi gives its 2-norm condition number s_max / s_min
    (the value ``np.linalg.cond`` returns) for the singularity check; one
    LU factorization of psi^T then serves both linear solves with psi^T:
    first for (psi^-1)^T J, then for its transpose.

    Raises
    ------
    NonFiniteError
        If psi holds an inf or nan.
    SingularMatrixError
        If psi is numerically singular (condition estimate above 1e12).
    """
    psi = np.asarray(psi, dtype=float)
    if not np.isfinite(psi).all():
        raise NonFiniteError("chart-change Jacobian has non-finite entries")
    cond = _condition(psi)
    if not cond <= _COND_LIMIT:
        raise SingularMatrixError(
            f"chart-change Jacobian condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    lu, piv, info = dgetrf(psi.T)
    if info:
        raise SingularMatrixError("chart-change Jacobian has an exactly singular LU factor")
    half = dgetrs(lu, piv, metric)[0]  # (psi^-1)^T J
    return symmetrize(dgetrs(lu, piv, half.T)[0].T)  # ... psi^-1


def _condition(psi: np.ndarray) -> float:
    """2-norm condition number s_max / s_min of a finite square psi from
    one SVD, as np.linalg.cond computes it; inf where s_min is 0."""
    s = np.linalg.svd(psi, compute_uv=False)
    return float(s[0]) / float(s[-1]) if s[-1] else math.inf


def chart_transport(
    state: np.ndarray,
    metric: np.ndarray,
    model: DynamicalModel,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Move the state and metric from the chart at t-1 to the chart at t;
    returns (f(s, u_t), (F^-1)^T J F^-1)."""
    u = model.input_at(t)
    value = np.asarray(model.f(state, u), dtype=float)
    if not np.isfinite(value).all():
        raise NonFiniteError(f"transition produced non-finite state at t = {t}")
    try:
        return value, pushforward_metric(metric, model.jac_f(state, u))
    except NonFiniteError as exc:
        # The same object is re-raised, now naming the step.
        exc.args = (f"{exc} at t = {t}",)
        raise


def fisher_term(lin: Linearisation) -> np.ndarray:
    """Per-observation Fisher information with respect to the state: B^T C B."""
    return symmetrize(lin.jac.T @ lin.cov @ lin.jac)


def update(
    state: np.ndarray,
    metric: np.ndarray,
    y,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    config: NatGradConfig,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend the Fisher term into the metric and take one natural step;
    returns the new (state, metric).

    Expects ``state`` and ``metric`` already transported to the chart at
    time t.
    """
    lin = linearise(model, family, state, t)
    score_state = lin.residual(expfam.sufficient_stats(family, y)) @ lin.jac
    gamma = config.gamma_at(t)
    metric = symmetrize((1.0 - gamma) * metric + gamma * fisher_term(lin))
    return state + config.eta_at(t) * solve_psd(metric, score_state), metric


def run(
    scenario: Scenario,
    config: NatGradConfig,
    init_state,
    init_metric,
) -> Trace:
    """Run the chart-based online natural gradient over a scenario; returns
    the states and metrics in the chart at each t, row 0 the prior."""
    config.check_horizon(scenario.horizon)
    state = np.asarray(init_state, dtype=float)
    metric = np.asarray(init_metric, dtype=float)
    model = scenario.model
    rows = scenario.horizon + 1
    states = np.empty((rows,) + state.shape)
    metrics = np.empty((rows,) + metric.shape)
    states[0], metrics[0] = state, metric
    for t in range(1, rows):
        state, metric = chart_transport(state, metric, model, t)
        state, metric = update(state, metric, scenario.obs(t), model, scenario.family, config, t)
        states[t], metrics[t] = state, metric
    return Trace(states, metrics=metrics)
