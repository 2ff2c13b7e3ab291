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
current chart and the metric J there.  The eta and gamma schedules are
plain arrays too: :func:`run` normalises them once and hands each update
its floats eta_t and gamma_t.  As on the filter side, step t reads the
input u_t and the sufficient statistics T(y_t) from the scenario's
``inputs`` and ``stats``.  The chart's condition number comes from one
LAPACK ``dgesdd`` call, the one ``np.linalg.cond`` makes.

For static dynamics (f = Id) the chart never moves and the scheme reduces
to the ordinary online natural gradient; the tests keep a chartless
implementation of it as the reference for that reduction.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dgesdd, dgetrf, dgetrs

from . import expfam
from .errors import NonFiniteError, SingularMatrixError
from .model import DynamicalModel, Linearisation, Scenario, Trace, linearise
from .numerics import schedule, solve_psd, symmetrize

# Chart changes with condition numbers beyond this are treated as singular:
# the trajectory chart is no longer well-defined.
_COND_LIMIT = 1e12


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
    one SVD, LAPACK ``dgesdd`` without singular vectors as
    ``np.linalg.cond`` calls it, and the same number; inf where s_min is 0."""
    s, info = dgesdd(psi, compute_uv=0)[1::2]
    if info:
        raise SingularMatrixError("chart-change Jacobian SVD did not converge")
    return float(s[0]) / float(s[-1]) if s[-1] else math.inf


def chart_transport(
    state: np.ndarray,
    metric: np.ndarray,
    model: DynamicalModel,
    u: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Move the state and metric from the chart at t-1 to the chart at t,
    at input ``u`` = u_t; returns (f(s, u), (F^-1)^T J F^-1)."""
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
    stats: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    u: np.ndarray,
    eta_t: float,
    gamma_t: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend the Fisher term of an observation with sufficient statistics
    ``stats`` = T(y_t) at input ``u`` = u_t into the metric with weight
    gamma_t and take one natural step of rate eta_t; returns the new
    (state, metric).

    Expects ``state`` and ``metric`` already transported to the chart at
    time t.
    """
    lin = linearise(model, family, state, u, t)
    score_state = lin.residual(stats) @ lin.jac
    metric = symmetrize((1.0 - gamma_t) * metric + gamma_t * fisher_term(lin))
    return state + eta_t * solve_psd(metric, score_state), metric


def run(
    scenario: Scenario,
    eta,
    gamma,
    init_state,
    init_metric,
) -> Trace:
    """Run the chart-based online natural gradient over a scenario under
    the rate schedule ``eta`` and the metric-averaging schedule ``gamma``
    (each a scalar, or one entry or one per step; see
    :func:`kalgrad.numerics.schedule`); returns the states and metrics in
    the chart at each t, row 0 the prior.  Step t reads row t-1 of the
    scenario's ``inputs`` and ``stats``."""
    eta = schedule("eta", eta, scenario.horizon)
    gamma = schedule("gamma", gamma, scenario.horizon)
    state = np.asarray(init_state, dtype=float)
    metric = np.asarray(init_metric, dtype=float)
    model, family = scenario.model, scenario.family
    rows = scenario.horizon + 1
    states = np.empty((rows,) + state.shape)
    metrics = np.empty((rows,) + metric.shape)
    states[0], metrics[0] = state, metric
    steps = zip(eta.tolist(), gamma.tolist(), scenario.inputs, scenario.stats)
    for t, (eta_t, gamma_t, u, stats) in enumerate(steps, start=1):
        state, metric = chart_transport(state, metric, model, u, t)
        state, metric = update(state, metric, stats, model, family, u, eta_t, gamma_t, t)
        states[t], metrics[t] = state, metric
    return Trace(states, metrics=metrics)
