"""Log-likelihoods that the tests differentiate numerically, as oracles for
the scores the library reads from its linearisations."""

import numpy as np

from kalgrad import expfam
from kalgrad.numerics import solve_psd


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
