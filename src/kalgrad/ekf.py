"""Discrete-time extended Kalman filter with exponential-family observations.

The transition step advances the mean through the dynamics
(:func:`kalgrad.model.step_dynamics`) under the fading-memory process
noise Q_t = alpha_t F P F^T, so that P_pred = (1 + alpha_t) F P F^T.

The observation update reads the one linearisation of
:func:`kalgrad.model.linearise`: B = d theta / d s in the family's natural
parameter theta, the residual e = T(y) - E[T], and C = cov(T) at the
predicted mean, built by its ``cov()`` (never the root of C).  It is
the gain form

    K = P_pred B^T (I + C B P_pred B^T)^-1,
    P = P_pred - K C B P_pred,  s += K e,

which the tests hold to the information form P^-1 = P_pred^-1 + B^T C B,
s += P B^T e.  Off a canonical link the observation is read whitened,
B = S^-T H for S^T S = cov(T) at the predicted mean (H the Jacobian of
h), C = I and e = (T - h) S^-1; for a gaussian one S^-T = L^-1 for
R = L L^T, and K e is P H^T (H P H^T + R)^-1 (y - h).  Under a canonical
link B is the predictor Jacobian G, and the update stays finite where
the mean rounds to the boundary of its domain and C to zero.

The belief (mean, cov), the fading schedule, and each step's input u_t
and sufficient statistics T(y_t), row t-1 of the scenario's ``inputs``
and ``stats``, are plain arrays: :func:`side` normalises the schedule
once, and :func:`kalgrad.model.run_sides` hands each step its rows.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from . import expfam
from .errors import NonFiniteError, NumericalError, SingularMatrixError, at_step
from .model import DynamicalModel, Scenario, Trace, linearise, run_sides, step_dynamics

# GAIN, _OBSERVERS and the solve_psd import are unused here; they stay while
# certbench's tests read _OBSERVERS[GAIN] and this module's solve_psd.
from .numerics import _finite, schedule, solve_psd, symmetrize

GAIN = "gain"


def transition(
    mean: np.ndarray,
    cov: np.ndarray,
    model: DynamicalModel,
    u: np.ndarray,
    t: int,
    alpha_t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the Gaussian belief (mean, cov) through the dynamics at
    input ``u`` = u_t under the fading weight alpha_t; returns
    (mean_pred, P_pred) with P_pred = (1 + alpha_t) F P F^T.  A numerical
    error raised here names the step."""
    mean_pred = step_dynamics(model, mean, u, t)
    try:
        f_jac = model.jac_f(mean, u, mean_pred)
    except NumericalError as exc:
        raise at_step(exc, t)
    # An overflow here is reported below, as a failure of this step.
    with np.errstate(over="ignore", invalid="ignore"):
        cov_pred = symmetrize((1.0 + alpha_t) * f_jac.dot(cov).dot(f_jac.T))
    if not _finite(cov_pred):
        raise NonFiniteError(f"transition produced non-finite covariance at t = {t}")
    return mean_pred, cov_pred


def observe_gain(
    mean: np.ndarray,
    cov: np.ndarray,
    stats: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    u: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form update of the predicted (mean, cov) by an observation with
    sufficient statistics ``stats`` = T(y_t) at input ``u`` = u_t:
    K = P B^T (I + C B P B^T)^-1, s += K e; returns the posterior
    (mean, cov)."""
    lin = linearise(model, family, mean, u, stats, t)
    c_mat = lin.cov()
    bp = lin.jac.dot(cov)
    # K^T = (I + B P B^T C)^-1 B P; the matrix is I plus a product of two
    # PSD matrices, so it is singular only in floating point.
    innov = bp.dot(lin.jac.T).dot(c_mat)
    innov.flat[:: innov.shape[0] + 1] += 1.0
    gain_t, info = dgesv(innov, bp, overwrite_a=1)[2:]
    if info:
        raise SingularMatrixError(f"gain-form innovation matrix singular at t = {t}")
    gain = gain_t.T
    cov_post = symmetrize(cov - gain.dot(c_mat).dot(bp))
    mean_post = mean + gain.dot(lin.residual)
    if not (_finite(mean_post) and _finite(cov_post)):
        raise NonFiniteError(f"observation update non-finite at t = {t}")
    return mean_post, cov_post


_OBSERVERS = {GAIN: observe_gain}


def side(scenario: Scenario, alpha, init_mean, init_cov) -> tuple:
    """The filter side of :func:`kalgrad.model.run_sides` from the Gaussian
    prior (``init_mean``, ``init_cov``) under the fading schedule
    ``alpha``, normalised here once; its step is :func:`transition` and
    then :func:`observe_gain`, both looked up in this module at each call."""
    alpha = schedule("alpha", alpha, scenario.horizon).tolist()
    model, family = scenario.model, scenario.family
    mean, cov = np.asarray(init_mean, dtype=float), np.asarray(init_cov, dtype=float)

    def step(t, u, stats):
        nonlocal mean, cov
        mean, cov = transition(mean, cov, model, u, t, alpha[t - 1])
        mean, cov = observe_gain(mean, cov, stats, model, family, u, t)
        return mean, cov

    return "filter", mean, cov, step


def run(
    scenario: Scenario,
    alpha,
    init_mean,
    init_cov,
) -> Trace:
    """Filter the scenario's observations from the given Gaussian prior
    under the fading schedule ``alpha`` (a scalar, or one entry or one per
    step; see :func:`kalgrad.numerics.schedule`), with the gain-form
    update; returns the posterior means and covariances, row 0 the prior.
    Step t reads row t-1 of the scenario's ``inputs`` and ``stats``: this
    is :func:`side` alone through :func:`kalgrad.model.run_sides`."""
    return run_sides([side(scenario, alpha, init_mean, init_cov)], scenario)[0]
