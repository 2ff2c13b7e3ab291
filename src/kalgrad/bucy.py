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

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide; :func:`integrate` runs either side with fixed-step RK4 so the
agreement can be measured as a function of the step size.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  P and J are symmetrized after every step and their
positivity is monitored, never enforced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import PositivityLostError
from .model import ContinuousModel, Trace
from .numerics import rk4_step, solve_psd, symmetrize

BUCY = "bucy"
CNGD = "cngd"

# Relative floor below which the smallest eigenvalue of P or J counts as a
# loss of positivity.
_POSITIVITY_FLOOR = 1e-13


@dataclass(frozen=True)
class BucyState:
    """Kalman-Bucy state: mean, covariance, and current time."""

    s: np.ndarray
    cov: np.ndarray
    t: float = 0.0


@dataclass(frozen=True)
class CngdState:
    """Natural-gradient flow state: chart value, metric, learning rate, time."""

    s: np.ndarray
    metric: np.ndarray
    eta: float
    t: float = 0.0


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings and schedules for :func:`integrate`.

    ``alpha`` may be a float or a callable of time.
    """

    dt: float
    horizon: float
    alpha: float | Callable[[float], float] = 0.0

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if not 0 < self.dt <= self.horizon:
            raise ValueError("need 0 < dt <= horizon")

    def alpha_at(self, t: float) -> float:
        return float(self.alpha(t)) if callable(self.alpha) else float(self.alpha)


def inst_loglik(y, s, u, obs_cov, h) -> float:
    """Instantaneous log-likelihood of a smooth observation against h(s, u).

    Equals y^T R^-1 h - h^T R^-1 h / 2; the quadratic term in y lives in
    the reference measure and is dropped.
    """
    hv = np.atleast_1d(np.asarray(h(s, u), dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rinv_h = solve_psd(np.atleast_2d(obs_cov), hv)
    return float(y @ rinv_h - 0.5 * hv @ rinv_h)


def inst_loglik_grad(y, s, u, obs_cov, h_jac, h) -> np.ndarray:
    """Row gradient of :func:`inst_loglik` with respect to the state:
    (y - h(s, u))^T R^-1 H."""
    hv = np.atleast_1d(np.asarray(h(s, u), dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    return solve_psd(np.atleast_2d(obs_cov), y - hv) @ np.atleast_2d(h_jac)


def inst_fisher(h_jac, obs_cov) -> np.ndarray:
    """Instantaneous Fisher matrix in the current-state chart: H^T R^-1 H."""
    h_jac = np.atleast_2d(np.asarray(h_jac, dtype=float))
    return symmetrize(h_jac.T @ solve_psd(np.atleast_2d(obs_cov), h_jac))


def bucy_deriv(
    state: BucyState,
    y_path: Callable[[float], np.ndarray],
    model: ContinuousModel,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field of the fading-memory Kalman-Bucy filter at one state."""
    u = model.input_at(state.t)
    s = np.asarray(state.s, dtype=float)
    cov = np.asarray(state.cov, dtype=float)
    f_val = np.asarray(model.f(s, u), dtype=float)
    h_val = np.asarray(model.h(s, u), dtype=float)
    f_jac = model.jac_f(s, u)
    h_jac = model.jac_h(s, u)
    r = np.atleast_2d(model.obs_cov(state.t))
    resid = np.atleast_1d(y_path(state.t)) - h_val
    gain = cov @ h_jac.T  # times R^-1 below
    # One solve covers both R^-1 resid and R^-1 H.
    rinv_both = solve_psd(r, np.column_stack([resid, h_jac]))
    ds = f_val + gain @ rinv_both[:, 0]
    dcov = f_jac @ cov + cov @ f_jac.T - gain @ rinv_both[:, 1:] @ cov + alpha * cov
    return ds, symmetrize(dcov)


def cngd_deriv(
    state: CngdState,
    y_path: Callable[[float], np.ndarray],
    model: ContinuousModel,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field of the continuous-time natural gradient at one state."""
    u = model.input_at(state.t)
    s = np.asarray(state.s, dtype=float)
    metric = np.asarray(state.metric, dtype=float)
    f_val = np.asarray(model.f(s, u), dtype=float)
    h_val = np.asarray(model.h(s, u), dtype=float)
    f_jac = model.jac_f(s, u)
    h_jac = model.jac_h(s, u)
    r = np.atleast_2d(model.obs_cov(state.t))
    resid = np.atleast_1d(y_path(state.t)) - h_val
    # One solve covers both R^-1 resid and R^-1 H (the Fisher term).
    rinv_both = solve_psd(r, np.column_stack([resid, h_jac]))
    fisher = symmetrize(h_jac.T @ rinv_both[:, 1:])
    dmetric = -f_jac.T @ metric - metric @ f_jac - gamma * metric + gamma * fisher
    ds = f_val + state.eta * solve_psd(metric, h_jac.T @ rinv_both[:, 0])
    return ds, symmetrize(dmetric)


def eta_ode(eta: float, alpha: float) -> float:
    """Learning-rate flow deta/dt = alpha * eta - eta^2."""
    return alpha * eta - eta * eta


def _check_positive(mat: np.ndarray, label: str, t: float) -> None:
    floor = _POSITIVITY_FLOOR * float(np.linalg.norm(mat))
    if np.linalg.eigvalsh(mat).min() < floor:
        raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")


def integrate(
    kind: str,
    init: BucyState | CngdState,
    model: ContinuousModel,
    cfg: IntegratorConfig,
    y_path: Callable[[float], np.ndarray] | None = None,
) -> Trace:
    """Fixed-step RK4 integration of either continuous filter; returns the
    samples at every grid time, with ``covs`` for ``bucy`` and ``metrics``
    and ``etas`` for ``cngd``.

    For ``cngd`` runs the learning rate is co-integrated with the state
    via :func:`eta_ode` and gamma(t) = eta(t).  The matrix
    part of the state is symmetrized after each step; positivity is
    checked and failure raises PositivityLostError.
    """
    if y_path is None:
        y_path = model.obs_path
    n = model.dim_state
    n_steps = int(round(cfg.horizon / cfg.dt))
    times = np.linspace(0.0, n_steps * cfg.dt, n_steps + 1)

    # The packed state z is (s, matrix entries), and cngd appends eta.
    if kind == BUCY:
        mat0 = symmetrize(np.asarray(init.cov, dtype=float))
        label, tail = "covariance", []

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            ds, dcov = bucy_deriv(
                BucyState(z[:n], z[n:].reshape(n, n), t), y_path, model, cfg.alpha_at(t)
            )
            return np.concatenate([ds, dcov.ravel()])

    elif kind == CNGD:
        mat0 = symmetrize(np.asarray(init.metric, dtype=float))
        if not init.eta > 0:
            raise ValueError("initial eta must be > 0")
        label, tail = "metric", [float(init.eta)]

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            eta = z[-1]
            ds, dmetric = cngd_deriv(
                CngdState(z[:n], z[n:-1].reshape(n, n), eta, t), y_path, model, eta
            )
            return np.concatenate([ds, dmetric.ravel(), [eta_ode(eta, cfg.alpha_at(t))]])

    else:
        raise ValueError(f"unknown integration kind {kind!r}")

    z = np.concatenate([np.asarray(init.s, dtype=float), mat0.ravel(), tail])
    end = n + n * n
    packed = np.zeros((n_steps + 1, z.size))
    packed[0] = z
    _check_positive(mat0, label, 0.0)
    for i in range(n_steps):
        z = rk4_step(deriv, z, times[i], cfg.dt)
        mat = symmetrize(z[n:end].reshape(n, n))
        z[n:end] = mat.ravel()
        _check_positive(mat, label, times[i + 1])
        packed[i + 1] = z
    states, mats = packed[:, :n], packed[:, n:end].reshape(-1, n, n)
    if kind == BUCY:
        return Trace(states, covs=mats, times=times)
    return Trace(states, metrics=mats, etas=packed[:, end], times=times)
