"""Discrete-time extended Kalman filter with exponential-family observations.

The transition step uses the fading-memory process noise
Q_t = alpha_t F P F^T, under which

    P_pred = (1 + alpha_t) F P F^T.

Every observation update reads the one linearisation of
:func:`kalgrad.model.linearise`: B = d theta / d s in the family's natural
parameter theta, C = cov(T) at the predicted mean, and the residual
e = T(y) - E[T].  Three algebraically equivalent updates are written
here; :func:`run` uses the gain form, and the tests hold the other two to
it:

* gain form:        K = P_pred B^T (I + C B P_pred B^T)^-1,
                    P = P_pred - K C B P_pred,  s += K e
* information form: P^-1 = P_pred^-1 + B^T C B,  s += P B^T e
* gradient form:    the same update, read as the step along the score
                    e B of the observation, preconditioned by P.

With B = R^-1 H (R = C the observation covariance, H the Jacobian of h)
the gain is the classical P H^T (H P H^T + R)^-1.  Under a canonical link
B is the predictor Jacobian G, R^-1 never appears, and the updates stay
finite where the mean rounds to the boundary of its domain and C to zero.

The belief is the pair of plain arrays (mean, cov): the transition and
every update take it and return the new pair.  The fading schedule is a
plain array too: :func:`run` normalises it once and hands each
transition its float alpha_t.  The input u_t and the sufficient
statistics T(y_t) of step t are row t-1 of the scenario's ``inputs`` and
``stats``; the step functions take them as arguments.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv

from . import expfam
from .errors import NonFiniteError, SingularMatrixError
from .model import DynamicalModel, Scenario, Trace, linearise
from .numerics import schedule, solve_psd, symmetrize

GAIN = "gain"
INFORMATION = "information"
GRADIENT = "gradient"


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
    mean_pred = np.asarray(model.f(mean, u), dtype=float)
    if not np.isfinite(mean_pred).all():
        raise NonFiniteError(f"transition produced non-finite mean at t = {t}")
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


def observe_information(
    mean: np.ndarray,
    cov: np.ndarray,
    stats: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    u: np.ndarray,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-covariance update of the predicted (mean, cov), with the
    arguments of :func:`observe_gain`: P^-1 = P_pred^-1 + B^T C B,
    s += P B^T e; returns the posterior."""
    lin = linearise(model, family, mean, u, t)
    dim = cov.shape[0]
    prec_pred = solve_psd(cov, np.eye(dim))
    prec = symmetrize(prec_pred + lin.jac.T @ lin.cov @ lin.jac)
    cov_post = symmetrize(solve_psd(prec, np.eye(dim)))
    score = lin.residual(stats) @ lin.jac
    return mean + cov_post @ score, cov_post


# The state score read from the linearisation is e B, so the preconditioned
# gradient step P (d log p / d s)^T is the information form's P B^T e.
observe_gradient = observe_information


# Not read by run; kept while the benchmark's tests look up _OBSERVERS[GAIN].
_OBSERVERS = {
    GAIN: observe_gain,
    INFORMATION: observe_information,
    GRADIENT: observe_gradient,
}


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
