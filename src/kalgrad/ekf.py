"""Discrete-time extended Kalman filter with exponential-family observations.

The transition step advances the mean through the dynamics
(:func:`kalgrad.model.step_dynamics`) under the fading-memory process
noise Q_t = alpha_t F P F^T, so that P_pred = (1 + alpha_t) F P F^T.

The observation update reads the one linearisation of
:func:`kalgrad.model.linearise`: B = d theta / d s in the family's natural
parameter theta, C = cov(T) at the predicted mean, and the residual
e = T(y) - E[T].  It is the gain form

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
and ``stats``, are plain arrays: :func:`run` normalises the schedule once
and hands each step its float alpha_t and its rows.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from . import expfam
from .errors import NonFiniteError, SingularMatrixError
from .model import DynamicalModel, Scenario, Trace, linearise, step_dynamics

# GAIN, _OBSERVERS and the solve_psd import are unused here; they stay while
# certbench's tests read _OBSERVERS[GAIN] and this module's solve_psd.
from .numerics import schedule, solve_psd, symmetrize

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
    (mean_pred, P_pred) with P_pred = (1 + alpha_t) F P F^T."""
    mean_pred = step_dynamics(model, mean, u, t)
    f_jac = model.jac_f(mean, u)
    # An overflow here is reported below, as a failure of this step.
    with np.errstate(over="ignore", invalid="ignore"):
        cov_pred = symmetrize((1.0 + alpha_t) * (f_jac @ cov @ f_jac.T))
    if not np.isfinite(cov_pred).all():
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
    lin = linearise(model, family, mean, u, t)
    bp = lin.jac @ cov
    # K^T = (I + B P B^T C)^-1 B P; the matrix is I plus a product of two
    # PSD matrices, so it is singular only in floating point.
    innov = bp @ lin.jac.T @ lin.cov
    innov.flat[:: innov.shape[0] + 1] += 1.0
    gain_t, info = dgesv(innov, bp, overwrite_a=1)[2:]
    if info:
        raise SingularMatrixError(f"gain-form innovation matrix singular at t = {t}")
    gain = gain_t.T
    cov_post = symmetrize(cov - gain @ lin.cov @ bp)
    mean_post = mean + gain @ lin.residual(stats)
    if not (np.isfinite(mean_post).all() and np.isfinite(cov_post).all()):
        raise NonFiniteError(f"observation update non-finite at t = {t}")
    return mean_post, cov_post


_OBSERVERS = {GAIN: observe_gain}


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
    Step t reads row t-1 of the scenario's ``inputs`` and ``stats``."""
    alpha = schedule("alpha", alpha, scenario.horizon)
    model, family = scenario.model, scenario.family
    mean = np.asarray(init_mean, dtype=float)
    cov = np.asarray(init_cov, dtype=float)
    rows = scenario.horizon + 1
    means = np.empty((rows,) + mean.shape)
    covs = np.empty((rows,) + cov.shape)
    means[0], covs[0] = mean, cov
    steps = zip(alpha.tolist(), scenario.inputs, scenario.stats)
    for t, (alpha_t, u, stats) in enumerate(steps, start=1):
        mean, cov = transition(mean, cov, model, u, t, alpha_t)
        mean, cov = observe_gain(mean, cov, stats, model, family, u, t)
        means[t], covs[t] = mean, cov
    return Trace(means, covs=covs)
