"""Discrete-time extended Kalman filter with exponential-family observations.

The transition step uses the fading-memory process noise
Q_t = alpha_t F P F^T, under which

    P_pred = (1 + alpha_t) F P F^T.

Every observation update reads the one linearisation of
:func:`kalgrad.model.linearise`: B = d theta / d s in the family's natural
parameter theta, C = cov(T) at the predicted mean, and the residual
e = T(y) - E[T].  Three algebraically equivalent updates are provided:

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
every update take it and return the new pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import NonFiniteError
from .model import DynamicalModel, Scenario, Trace, linearise
from .numerics import as_schedule, check_schedule, solve_psd, symmetrize

GAIN = "gain"
INFORMATION = "information"
GRADIENT = "gradient"


@dataclass(frozen=True)
class EkfConfig:
    """Fading-memory schedule and observation-update form for one filter run.

    ``alpha`` is stored as a 1-D float array indexed by step (alpha[t-1] is
    used at time t; a single entry applies at every step).
    """

    alpha: np.ndarray | float = 0.0
    update_form: str = GAIN

    def __post_init__(self) -> None:
        if self.update_form not in (GAIN, INFORMATION, GRADIENT):
            raise ValueError(f"unknown update form {self.update_form!r}")
        object.__setattr__(self, "alpha", as_schedule(self.alpha))
        if np.any(self.alpha < 0):
            raise ValueError("fading-memory weights must be >= 0")

    def alpha_at(self, t: int) -> float:
        return float(self.alpha[0] if self.alpha.size == 1 else self.alpha[t - 1])


def transition(
    mean: np.ndarray,
    cov: np.ndarray,
    model: DynamicalModel,
    t: int,
    config: EkfConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate the Gaussian belief (mean, cov) through the dynamics;
    returns (mean_pred, P_pred) with P_pred = (1 + alpha_t) F P F^T."""
    u = model.input_at(t)
    mean_pred = np.asarray(model.f(mean, u), dtype=float)
    if not np.all(np.isfinite(mean_pred)):
        raise NonFiniteError(f"transition produced non-finite mean at t = {t}")
    f_jac = model.jac_f(mean, u)
    # An overflow here is reported below, as a failure of this step.
    with np.errstate(over="ignore", invalid="ignore"):
        cov_pred = symmetrize((1.0 + config.alpha_at(t)) * (f_jac @ cov @ f_jac.T))
    if not np.all(np.isfinite(cov_pred)):
        raise NonFiniteError(f"transition produced non-finite covariance at t = {t}")
    return mean_pred, cov_pred


def observe_gain(
    mean: np.ndarray,
    cov: np.ndarray,
    y,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Gain-form update of the predicted (mean, cov): K = P B^T
    (I + C B P B^T)^-1, s += K e; returns the posterior (mean, cov)."""
    lin = linearise(model, family, mean, t)
    bp = lin.jac @ cov
    # K^T = (I + B P B^T C)^-1 B P; the matrix is I plus a product of two
    # PSD matrices, so it is never singular.
    gain = np.linalg.solve(np.eye(lin.cov.shape[0]) + bp @ lin.jac.T @ lin.cov, bp).T
    cov_post = symmetrize(cov - gain @ lin.cov @ bp)
    mean_post = mean + gain @ lin.residual(expfam.sufficient_stats(family, y))
    if not (np.all(np.isfinite(mean_post)) and np.all(np.isfinite(cov_post))):
        raise NonFiniteError(f"observation update non-finite at t = {t}")
    return mean_post, cov_post


def observe_information(
    mean: np.ndarray,
    cov: np.ndarray,
    y,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-covariance update of the predicted (mean, cov):
    P^-1 = P_pred^-1 + B^T C B, s += P B^T e; returns the posterior."""
    lin = linearise(model, family, mean, t)
    dim = cov.shape[0]
    prec_pred = solve_psd(cov, np.eye(dim))
    prec = symmetrize(prec_pred + lin.jac.T @ lin.cov @ lin.jac)
    cov_post = symmetrize(solve_psd(prec, np.eye(dim)))
    score = lin.residual(expfam.sufficient_stats(family, y)) @ lin.jac
    return mean + cov_post @ score, cov_post


# The state score read from the linearisation is e B, so the preconditioned
# gradient step P (d log p / d s)^T is the information form's P B^T e.
observe_gradient = observe_information


_OBSERVERS = {
    GAIN: observe_gain,
    INFORMATION: observe_information,
    GRADIENT: observe_gradient,
}


def run(
    scenario: Scenario,
    config: EkfConfig,
    init_mean,
    init_cov,
) -> Trace:
    """Filter the scenario's observations from the given Gaussian prior;
    returns the posterior means and covariances, row 0 the prior."""
    check_schedule(config.alpha, scenario.horizon, "alpha")
    mean = np.asarray(init_mean, dtype=float)
    cov = np.asarray(init_cov, dtype=float)
    observe = _OBSERVERS[config.update_form]
    rows = scenario.horizon + 1
    means = np.empty((rows,) + mean.shape)
    covs = np.empty((rows,) + cov.shape)
    means[0], covs[0] = mean, cov
    for t in range(1, rows):
        mean, cov = transition(mean, cov, scenario.model, t, config)
        mean, cov = observe(mean, cov, scenario.obs(t), scenario.model, scenario.family, t)
        means[t], covs[t] = mean, cov
    return Trace(means, covs=covs)
