"""Reference implementations the tests compare the library against:
log-likelihoods that the tests differentiate numerically, as oracles for
the scores the library reads from its linearisations, a Monte Carlo
Fisher estimate, as the oracle for the exact Fisher the library blends in,
and the chartless online natural gradient that chart-based runs on static
dynamics must reproduce."""

import numpy as np

from kalgrad import expfam
from kalgrad.model import Linearisation, Trace, mean_linearisation
from kalgrad.natgrad import NatGradConfig, fisher_term
from kalgrad.numerics import fd_jacobian, solve_psd, symmetrize


def log_density(family: expfam.ObservationFamily, y, yhat) -> float:
    """log p(y | yhat) up to an additive constant independent of yhat."""
    yhat = expfam.check_mean(family, yhat)
    if family.kind == expfam.GAUSSIAN:
        err = expfam.sufficient_stats(family, y) - yhat
        return -0.5 * float(err @ solve_psd(family.obs_cov, err))
    label = expfam._as_label(family, y)
    if family.kind == expfam.BERNOULLI:
        p = yhat[0]
        return float(np.log(p) if label == 1 else np.log1p(-p))
    if label < family.num_classes - 1:
        return float(np.log(yhat[label]))
    return float(np.log1p(-yhat.sum()))


def inst_loglik(y, s, u, obs_cov, h) -> float:
    """Instantaneous log-likelihood of a smooth observation against h(s, u).

    Equals y^T R^-1 h - h^T R^-1 h / 2; the quadratic term in y lives in
    the reference measure and is dropped.
    """
    hv = np.atleast_1d(np.asarray(h(s, u), dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rinv_h = solve_psd(np.atleast_2d(obs_cov), hv)
    return float(y @ rinv_h - 0.5 * hv @ rinv_h)


def suffstats_batch(family: expfam.ObservationFamily, draws) -> np.ndarray:
    """Sufficient statistics for a batch of draws, one row per draw."""
    if family.kind == expfam.GAUSSIAN:
        return np.asarray(draws, dtype=float)
    labels = np.asarray(draws, dtype=np.int64)
    if family.kind == expfam.BERNOULLI:
        return labels[:, None].astype(float)
    t = np.zeros((labels.size, family.num_classes - 1))
    kept = labels < family.num_classes - 1
    t[np.nonzero(kept)[0], labels[kept]] = 1.0
    return t


def mc_fisher(
    lin: Linearisation, family: expfam.ObservationFamily, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Monte Carlo Fisher: the average outer product of the state scores of
    ``n`` draws at the linearisation's predicted mean."""
    draws = expfam.sample(family, lin.mean, rng, size=n)
    scores = lin.residual(suffstats_batch(family, draws)) @ lin.jac  # one row per draw
    return symmetrize(scores.T @ scores / n)


def plain_online_natgrad(
    inputs: list,
    observations: list,
    h,
    family: expfam.ObservationFamily,
    config: NatGradConfig,
    init_param,
    init_metric,
    jacobian_h=None,
) -> Trace:
    """Chartless online natural gradient for a static parameter.

    ``h(theta, u)`` maps the parameter and input to the observation mean;
    ``jacobian_h`` defaults to central differences.  This is the f = Id
    reduction of :func:`kalgrad.natgrad.run` and serves as its reference
    implementation; it returns the same trace layout.
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
        if jacobian_h is not None:
            h_jac = np.asarray(jacobian_h(theta, u), dtype=float)
        else:
            h_jac = fd_jacobian(lambda v: h(v, u), theta)
        lin = mean_linearisation(family, np.asarray(h(theta, u), dtype=float), h_jac)
        gamma = config.gamma_at(t)
        metric = symmetrize((1.0 - gamma) * metric + gamma * fisher_term(lin))
        score = lin.residual(expfam.sufficient_stats(family, y)) @ lin.jac
        theta = theta + config.eta_at(t) * solve_psd(metric, score)
        states[t], metrics[t] = theta, metric
    return Trace(states, metrics=metrics)
