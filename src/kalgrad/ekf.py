"""Discrete-time extended Kalman filter with exponential-family observations.

The transition step uses the fading-memory process noise
Q_t = alpha_t F P F^T, under which

    P_pred = (1 + alpha_t) F P F^T.

Three algebraically equivalent observation updates are provided:

* gain form:        K = P_pred H^T (H P_pred H^T + R)^-1,
                    P = (I - K H) P_pred,  s += K (T(y) - yhat)
* information form: P^-1 = P_pred^-1 + H^T R^-1 H,  s += P H^T R^-1 (T(y) - yhat)
* gradient form:    same P; the state moves along the score of the
                    observation family preconditioned by P.

On the general path yhat = h(s) is the mean parameter, H its Jacobian and
R the covariance of the sufficient statistics at the predicted mean, so
the generalized filter covers Bernoulli and categorical outputs with the
same equations, as long as yhat stays inside its domain and R invertible.

For a model with a canonical-link observation (``model.canonical_link``)
the updates work with the linear predictor x instead, where H = V G with
G the predictor Jacobian and V = R = cov(T) at x.  R^-1 then cancels:

* gain form:        K = P_pred G^T (I + V G P_pred G^T)^-1,
                    P = P_pred - K V G P_pred,  s += K (T(y) - yhat)
* information form: P^-1 = P_pred^-1 + G^T V G,  s += P G^T (T(y) - yhat)
* gradient form:    same P; the score with respect to the state is
                    G^T (T(y) - yhat).

These stay finite where yhat rounds to the boundary and V to zero, where
the mean-parameter forms would need R^-1 of a singular R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import NonFiniteError
from .model import DynamicalModel, Scenario, Trace
from .numerics import as_schedule, check_schedule, solve_psd, symmetrize

GAIN = "gain"
INFORMATION = "information"
GRADIENT = "gradient"


@dataclass(frozen=True)
class GaussianBelief:
    """Gaussian posterior approximation: mean state and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=float))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=float))


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
    belief: GaussianBelief,
    model: DynamicalModel,
    t: int,
    config: EkfConfig,
) -> tuple[GaussianBelief, np.ndarray, np.ndarray]:
    """Propagate the belief through the dynamics; returns (pred, yhat, F),
    with P_pred = (1 + alpha_t) F P F^T."""
    u = model.input_at(t)
    mean_pred = np.asarray(model.f(belief.mean, u), dtype=float)
    if not np.all(np.isfinite(mean_pred)):
        raise NonFiniteError(f"transition produced non-finite mean at t = {t}")
    f_jac = model.jac_f(belief.mean, u)
    # An overflow here is reported below, as a failure of this step.
    with np.errstate(over="ignore", invalid="ignore"):
        cov_pred = symmetrize((1.0 + config.alpha_at(t)) * (f_jac @ belief.cov @ f_jac.T))
    if not np.all(np.isfinite(cov_pred)):
        raise NonFiniteError(f"transition produced non-finite covariance at t = {t}")
    yhat = np.asarray(model.h(mean_pred, u), dtype=float)
    if not np.all(np.isfinite(yhat)):
        raise NonFiniteError(f"observation map non-finite at t = {t}")
    return GaussianBelief(mean_pred, cov_pred), yhat, f_jac


def observe_gain(
    predicted: GaussianBelief,
    y,
    yhat: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    t: int,
) -> GaussianBelief:
    """Classical gain-form update on the innovation T(y) - yhat."""
    u = model.input_at(t)
    if model.canonical_link(family):
        g_jac, v, resid = _canonical_terms(predicted.mean, y, model, family, u)
        gp = g_jac @ predicted.cov
        # K^T = (I + G P G^T V)^-1 G P; the matrix is I plus a product of
        # two PSD matrices, so it is never singular.
        gain = np.linalg.solve(np.eye(v.shape[0]) + gp @ g_jac.T @ v, gp).T
        cov = symmetrize(predicted.cov - gain @ v @ gp)
        mean = predicted.mean + gain @ resid
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise NonFiniteError(f"observation update non-finite at t = {t}")
        return GaussianBelief(mean, cov)
    h_jac = model.jac_h(predicted.mean, u)
    innov = expfam.sufficient_stats(family, y) - yhat
    r = expfam.cov_suffstats(family, yhat)
    s_mat = symmetrize(h_jac @ predicted.cov @ h_jac.T + r)
    # K = P H^T S^-1, via the SPD solve on S.
    gain = solve_psd(s_mat, h_jac @ predicted.cov).T
    cov = symmetrize((np.eye(model.dim_state) - gain @ h_jac) @ predicted.cov)
    return GaussianBelief(predicted.mean + gain @ innov, cov)


def _canonical_terms(
    mean: np.ndarray,
    y,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predictor Jacobian G, variance V and residual T(y) - yhat at the
    linear predictor of a canonical-link model."""
    x = model.predictor(mean, u)
    return (
        model.jac_predictor(mean, u),
        expfam.canonical_variance(family, x),
        expfam.canonical_residual(family, expfam.sufficient_stats(family, y), x),
    )


def _information_cov(predicted: GaussianBelief, fisher: np.ndarray) -> np.ndarray:
    """Posterior covariance from P^-1 = P_pred^-1 + F, with F the Fisher
    term H^T R^-1 H (or G^T V G)."""
    dim = predicted.cov.shape[0]
    prec_pred = solve_psd(predicted.cov, np.eye(dim))
    prec = symmetrize(prec_pred + fisher)
    return symmetrize(solve_psd(prec, np.eye(dim)))


def observe_information(
    predicted: GaussianBelief,
    y,
    yhat: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    t: int,
) -> GaussianBelief:
    """Inverse-covariance update; the state moves by P H^T R^-1 (T(y) - yhat)."""
    u = model.input_at(t)
    if model.canonical_link(family):
        g_jac, v, resid = _canonical_terms(predicted.mean, y, model, family, u)
        cov = _information_cov(predicted, g_jac.T @ v @ g_jac)
        return GaussianBelief(predicted.mean + cov @ (g_jac.T @ resid), cov)
    h_jac = model.jac_h(predicted.mean, u)
    innov = expfam.sufficient_stats(family, y) - yhat
    r = expfam.cov_suffstats(family, yhat)
    cov = _information_cov(predicted, h_jac.T @ solve_psd(r, h_jac))
    mean = predicted.mean + cov @ (h_jac.T @ solve_psd(r, innov))
    return GaussianBelief(mean, cov)


def observe_gradient(
    predicted: GaussianBelief,
    y,
    yhat: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    t: int,
) -> GaussianBelief:
    """Preconditioned-gradient update: s += P (d log p / d s)^T.

    The score with respect to the state chains the family score through
    the observation Jacobian.
    """
    u = model.input_at(t)
    if model.canonical_link(family):
        g_jac, v, resid = _canonical_terms(predicted.mean, y, model, family, u)
        cov = _information_cov(predicted, g_jac.T @ v @ g_jac)
        return GaussianBelief(predicted.mean + cov @ (resid @ g_jac), cov)
    h_jac = model.jac_h(predicted.mean, u)
    r = expfam.cov_suffstats(family, yhat)
    cov = _information_cov(predicted, h_jac.T @ solve_psd(r, h_jac))
    score_state = expfam.grad_logp_wrt_mean(family, y, yhat) @ h_jac
    return GaussianBelief(predicted.mean + cov @ score_state, cov)


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
    belief = GaussianBelief(init_mean, init_cov)
    observe = _OBSERVERS[config.update_form]
    rows = scenario.horizon + 1
    means = np.empty((rows,) + belief.mean.shape)
    covs = np.empty((rows,) + belief.cov.shape)
    means[0], covs[0] = belief.mean, belief.cov
    for t in range(1, rows):
        predicted, yhat, _ = transition(belief, scenario.model, t, config)
        belief = observe(predicted, scenario.obs(t), yhat, scenario.model, scenario.family, t)
        means[t], covs[t] = belief.mean, belief.cov
    return Trace(means, covs=covs)
