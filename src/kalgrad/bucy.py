"""Continuous-time filtering pair: Kalman-Bucy with pure fading memory and
the explicit continuous-time online natural gradient.

Kalman-Bucy with process noise alpha(t) * P:

    ds/dt = f(s, u_t) + P H^T R^-1 (y(t) - h(s, u_t))
    dP/dt = F P + P F^T - P H^T R^-1 H P + alpha(t) P

Natural gradient flow, with the metric J expressed in the moving chart
"state at time t" and the learning rate eta co-integrated:

    dJ/dt   = -F^T J - J F - gamma(t) J + gamma(t) H^T R^-1 H
    ds/dt   = f(s, u_t) + eta J^-1 H^T R^-1 (y(t) - h(s, u_t))
    deta/dt = alpha(t) eta - eta^2          (with gamma = eta)

Both fields read the observation from one Gaussian linearisation,
:func:`gaussian_linearisation`: B = R^-1 H from a single solve,
C = R and e = y(t) - h(s, u_t), so that P H^T R^-1 = P B^T,
H^T R^-1 H = B^T C B and H^T R^-1 (y - h) = B^T e.

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide; :func:`integrate` runs either side with fixed-step RK4 so the
agreement can be measured as a function of the step size.  The fields take
the state as plain arrays (s and P, or s, J and eta) plus the time and the
model, whose own observation path they read, and return the derivatives;
:func:`integrate` packs them into one vector for RK4.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  P and J are symmetrized after every step and their
positivity is monitored, never enforced: after each step a Cholesky
factorization of the matrix shifted down by 1e-13 times its Frobenius norm
must succeed.  An error inside a step names the side and the step's grid
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import NumericalError, PositivityLostError
from .model import ContinuousModel, Trace
from .numerics import rk4_step, solve_psd, symmetrize

BUCY = "bucy"
CNGD = "cngd"

# Relative floor, times the Frobenius norm, below which the smallest
# eigenvalue of P or J counts as a loss of positivity.
_POSITIVITY_FLOOR = 1e-13


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings and schedules for :func:`integrate`.

    ``alpha`` may be a float or a callable of time; a negative fading
    weight is rejected when the config is built (a float) or when
    :meth:`alpha_at` evaluates it (a callable).
    """

    dt: float
    horizon: float
    alpha: float | Callable[[float], float] = 0.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not 0 < self.dt <= self.horizon:
            raise ValueError("need 0 < dt <= horizon")
        if not callable(self.alpha) and not self.alpha >= 0:
            raise ValueError("fading-memory weights must be >= 0")

    def alpha_at(self, t: float) -> float:
        if not callable(self.alpha):
            return float(self.alpha)
        alpha = float(self.alpha(t))
        if not alpha >= 0:
            raise ValueError("fading-memory weights must be >= 0")
        return alpha


def gaussian_linearisation(
    model: ContinuousModel,
    s: np.ndarray,
    u: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The model's observation path at time t, linearised at state s:
    returns (B, C, e) with B = R(t)^-1 H, C = R(t) and e = y(t) - h(s, u).

    The score of the instantaneous log-likelihood in the state is e B and
    its Fisher information is B^T C B.
    """
    r = np.atleast_2d(model.obs_cov(t))
    resid = np.atleast_1d(model.obs_path(t)) - model.h(s, u)
    return solve_psd(r, model.jac_h(s, u)), r, resid


def bucy_deriv(
    s: np.ndarray,
    cov: np.ndarray,
    t: float,
    model: ContinuousModel,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dP/dt) of the fading-memory Kalman-Bucy filter
    at mean s, covariance P (exactly symmetric) and time t."""
    u = model.input_at(t)
    obs_jac, obs_cov, resid = gaussian_linearisation(model, s, u, t)
    f_jac = model.jac_f(s, u)
    gain = cov @ obs_jac.T  # P H^T R^-1
    ds = model.f(s, u) + gain @ resid
    # P F^T = (F P)^T exactly, since P is exactly symmetric.
    fp = f_jac @ cov
    dcov = fp + fp.T - gain @ obs_cov @ gain.T + alpha * cov
    return ds, symmetrize(dcov)


def cngd_deriv(
    s: np.ndarray,
    metric: np.ndarray,
    eta: float,
    t: float,
    model: ContinuousModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dJ/dt) of the continuous-time natural gradient
    at chart value s, metric J (exactly symmetric), learning rate
    eta = gamma and time t."""
    u = model.input_at(t)
    obs_jac, obs_cov, resid = gaussian_linearisation(model, s, u, t)
    f_jac = model.jac_f(s, u)
    fisher = symmetrize(obs_jac.T @ obs_cov @ obs_jac)
    # F^T J = (J F)^T exactly, since J is exactly symmetric.
    jf = metric @ f_jac
    dmetric = -jf.T - jf - eta * metric + eta * fisher
    ds = model.f(s, u) + eta * solve_psd(metric, obs_jac.T @ resid)
    return ds, symmetrize(dmetric)


def eta_ode(eta: float, alpha: float) -> float:
    """Learning-rate flow deta/dt = alpha * eta - eta^2."""
    return alpha * eta - eta * eta


def _check_positive(mat: np.ndarray, label: str, t: float) -> None:
    """Raise PositivityLostError unless mat - floor * I, with floor the
    positivity floor times the Frobenius norm of the symmetric mat, has a
    Cholesky factor: its smallest eigenvalue must exceed the floor.  A
    floor that is not finite (an inf or nan entry, or a norm beyond the
    float range) fails too."""
    floor = _POSITIVITY_FLOOR * float(np.linalg.norm(mat))
    if not floor < math.inf or dpotrf(mat - floor * np.eye(len(mat)), lower=1, clean=0)[1]:
        raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")


def integrate(
    kind: str,
    init_state,
    init_matrix,
    model: ContinuousModel,
    cfg: IntegratorConfig,
    eta0: float | None = None,
) -> Trace:
    """Fixed-step RK4 integration of either continuous filter against the
    model's observation path, from t = 0; returns the samples at every grid
    time, with ``covs`` for ``bucy`` and ``metrics`` and ``etas`` for
    ``cngd``.

    ``init_matrix`` is the prior covariance P_0 for ``bucy`` and the prior
    metric J_0 for ``cngd``, whose runs also need the initial learning rate
    ``eta0``; it is co-integrated with the state via :func:`eta_ode` and
    gamma(t) = eta(t).  The matrix part of the state is symmetrized after
    each step; positivity is checked and failure raises PositivityLostError.
    A numerical error raised inside a step gets the side (``bucy`` or
    ``cngd``) and the step's grid time prepended to its message.
    """
    n = model.dim_state
    n_steps = int(round(cfg.horizon / cfg.dt))
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)

    # The packed state z is (s, matrix entries), and cngd appends eta.
    mat0 = symmetrize(np.asarray(init_matrix, dtype=float))
    if kind == BUCY:
        label, tail = "covariance", []

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            ds, dcov = bucy_deriv(z[:n], z[n:].reshape(n, n), t, model, cfg.alpha_at(t))
            return np.concatenate([ds, dcov.ravel()])

    elif kind == CNGD:
        if eta0 is None or not eta0 > 0:
            raise ValueError("initial eta must be > 0")
        label, tail = "metric", [float(eta0)]

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            eta = z[-1]
            ds, dmetric = cngd_deriv(z[:n], z[n:-1].reshape(n, n), eta, t, model)
            return np.concatenate([ds, dmetric.ravel(), [eta_ode(eta, cfg.alpha_at(t))]])

    else:
        raise ValueError(f"unknown integration kind {kind!r}")

    z = np.concatenate([np.asarray(init_state, dtype=float), mat0.ravel(), tail])
    end = n + n * n
    packed = np.zeros((n_steps + 1, z.size))
    packed[0] = z
    _check_positive(mat0, label, 0.0)
    # An overflow inside a field is reported by rk4_step's finiteness check,
    # as a failure of its step, so numpy's warnings are off for the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            try:
                z = rk4_step(deriv, z, times[i], cfg.dt)
            except NumericalError as exc:
                # The same object is re-raised, so its callers see one error.
                exc.args = (f"{kind} step from t = {times[i]:.6g}: {exc}",)
                raise
            mat = symmetrize(z[n:end].reshape(n, n))
            z[n:end] = mat.ravel()
            _check_positive(mat, label, times[i + 1])
            packed[i + 1] = z
    states, mats = packed[:, :n], packed[:, n:end].reshape(-1, n, n)
    if kind == BUCY:
        return Trace(states, covs=mats, times=times)
    return Trace(states, metrics=mats, etas=packed[:, end], times=times)
