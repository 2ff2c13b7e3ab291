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

The metric is carried, as on the discrete side, as an upper-triangular
factor U with J = U^T U (Morf, Levy and Kailath 1978):

    dU/dt = Phi(-M - M^T - eta I + eta V^T V) U,   M = U F U^-1,  V = W U^-1,

with Phi keeping the strict upper triangle and half the diagonal, so that
dU^T U + U^T dU = dJ/dt; every inverse is a triangular solve.

Both fields read the discrete side's linearisation,
:func:`kalgrad.model.mean_linearisation` under the model's gaussian family:
B = R^-1 H, C = R and e = y(t) - h(s, u_t), so that P H^T R^-1 = P B^T,
H^T R^-1 H = B^T C B = W^T W for the Fisher rows W
(:func:`kalgrad.natgrad.fisher_rows`) and H^T R^-1 (y - h) = B^T e.

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide; :func:`integrate` runs either side with fixed-step RK4, on a
grid that must end at the horizon (:func:`grid_steps`), so the agreement
can be measured as a function of the step size.  The fields take the
state as plain arrays (s and P, or s, U and eta) plus the time and the
model, whose own observation path they read, and return the derivatives;
:func:`integrate` packs them into one vector for RK4.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  The fields keep P exactly symmetric and U exactly upper
triangular, and positivity is monitored, never enforced: after each step a
Cholesky factorization of P shifted down by 1e-13 times its Frobenius norm
must succeed, and U must be finite with a positive diagonal.  An error
inside a step names the side and the step's grid time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import NumericalError, PositivityLostError
from .model import ContinuousModel, Trace, mean_linearisation
from .natgrad import _metric_solve, _prior_factor, _upper, fisher_rows
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import check_eta0, rk4_step, solve_psd, symmetrize  # noqa: F401

BUCY = "bucy"
CNGD = "cngd"

# Relative floor, times the Frobenius norm, below which the smallest
# eigenvalue of P counts as a loss of positivity.
_POSITIVITY_FLOOR = 1e-13


def grid_steps(dt: float, horizon: float) -> int:
    """Number of RK4 steps on the grid t = k dt, which must end at the
    finite horizon T: a ValueError names dt and T if dt lies outside
    (0, T] or the grid misses T by more than rounding, 4 ulps of T."""
    if not horizon < math.inf:
        raise ValueError("horizon must be finite")
    if not 0 < dt <= horizon:
        raise ValueError(f"need 0 < dt <= T = {horizon:g}, got {dt:g}")
    steps = round(horizon / dt)
    if abs(steps * dt - horizon) > 4 * math.ulp(horizon):
        raise ValueError(f"need a dt that divides T = {horizon:g}, got {dt:g}")
    return steps


def step_sizes(dts, horizon: float) -> list[float]:
    """The step sizes of a step-size study, coarse to fine.  Each must pass
    :func:`grid_steps` and differ from the others, since the study's order
    is a slope between two of them: a ValueError names the first that
    does not and its entry in ``dts``."""
    dts = [float(dt) for dt in dts]
    if not dts:
        raise ValueError("dts must hold at least one step size")
    for i, dt in enumerate(dts):
        try:
            grid_steps(dt, horizon)
            if dt in dts[:i]:
                raise ValueError(f"repeated step size dt = {dt:g}")
        except ValueError as exc:
            raise ValueError(f"{exc} (entry {i + 1} of {len(dts)})") from None
    return sorted(dts, reverse=True)


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
    lin = mean_linearisation(model.family, model.h(s, u), model.jac_h(s, u))
    resid = lin.residual(np.atleast_1d(model.obs_path(t)))
    f_jac = model.jac_f(s, u)
    gain = cov @ lin.jac.T  # P H^T R^-1
    ds = model.f(s, u) + gain @ resid
    # P F^T = (F P)^T exactly, since P is exactly symmetric.
    fp = f_jac @ cov
    dcov = fp + fp.T - gain @ lin.cov @ gain.T + alpha * cov
    return ds, symmetrize(dcov)


def cngd_deriv(
    s: np.ndarray,
    factor: np.ndarray,
    eta: float,
    t: float,
    model: ContinuousModel,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dU/dt) of the continuous-time natural gradient
    at chart value s, upper-triangular metric factor U (J = U^T U),
    learning rate eta = gamma and time t; dU/dt is upper triangular.  A U
    with an exactly zero diagonal entry raises SingularMatrixError."""
    u = model.input_at(t)
    lin = mean_linearisation(model.family, model.h(s, u), model.jac_h(s, u))
    resid = lin.residual(np.atleast_1d(model.obs_path(t)))
    ds = model.f(s, u) + eta * _metric_solve(factor, lin.jac.T @ resid, "metric factor", t)
    n = len(factor)
    # One solve U^T X = [(U F)^T, W^T] gives X = [M^T, V^T].
    rhs = np.concatenate(((factor @ model.jac_f(s, u)).T, fisher_rows(lin).T), axis=1)
    sol = dtrtrs(factor, rhs, trans=1)[0]
    m_t, v_t = sol[:, :n], sol[:, n:]
    gen = eta * (v_t @ v_t.T) - m_t - m_t.T - eta * np.eye(n)
    # Phi keeps the strict upper triangle and half the diagonal.
    gen.flat[:: n + 1] *= 0.5
    return ds, (gen * _upper(n)) @ factor


def eta_ode(eta: float, alpha: float) -> float:
    """Learning-rate flow deta/dt = alpha * eta - eta^2."""
    return alpha * eta - eta * eta


def _fading_weight(alpha) -> float:
    """alpha as a float, refused unless it is >= 0 (nan included)."""
    alpha = float(alpha)
    if not alpha >= 0:
        raise ValueError("fading-memory weights must be >= 0")
    return alpha


def _check_factor(factor: np.ndarray, label: str, t: float) -> None:
    """Raise PositivityLostError unless the upper-triangular factor U is
    finite with a positive diagonal, so that U^T U is positive definite."""
    if not (np.isfinite(factor).all() and (np.diagonal(factor) > 0.0).all()):
        raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")


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
    dt: float,
    horizon: float,
    alpha: float | Callable[[float], float] = 0.0,
    eta0: float | None = None,
) -> Trace:
    """Fixed-step RK4 integration of either continuous filter against the
    model's observation path on the grid t = k dt from 0 to the horizon
    (:func:`grid_steps`); returns the samples at every grid time, with
    ``covs`` for ``bucy`` and ``factors`` (J_t = U_t^T U_t) and ``etas``
    for ``cngd``.  ``alpha`` is a float, refused on entry if negative or
    nan, or a callable of time, refused so when it is evaluated.

    ``init_matrix`` is the prior covariance P_0 for ``bucy`` and the prior
    metric J_0 for ``cngd``, factored as in :func:`kalgrad.natgrad.run`;
    its runs also need the initial learning rate ``eta0`` (refused on
    entry unless :func:`kalgrad.numerics.check_eta0` passes it), which is
    co-integrated with the state via :func:`eta_ode` and gamma(t) = eta(t).
    P stays exactly symmetric and U exactly upper triangular, as are the
    fields' derivatives; positivity is checked after each step and failure
    raises PositivityLostError.  A numerical error raised inside a step
    gets the side (``bucy`` or ``cngd``) and the step's grid time
    prepended to its message.
    """
    n = model.dim_state
    n_steps = grid_steps(dt, horizon)
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    if callable(alpha):
        alpha_at = lambda t: _fading_weight(alpha(t))
    else:
        constant = _fading_weight(alpha)
        alpha_at = lambda t: constant

    # The packed state z is (s, matrix entries), and cngd appends eta.
    mat0 = symmetrize(np.asarray(init_matrix, dtype=float))
    if kind == BUCY:
        label, check, tail = "covariance", _check_positive, []

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            ds, dcov = bucy_deriv(z[:n], z[n:].reshape(n, n), t, model, alpha_at(t))
            return np.concatenate([ds, dcov.ravel()])

    elif kind == CNGD:
        if eta0 is None:
            raise ValueError("cngd needs the initial rate eta0")
        label, check, tail = "metric", _check_factor, [check_eta0(eta0)]
        mat0 = _prior_factor(mat0)

        def deriv(t: float, z: np.ndarray) -> np.ndarray:
            eta = z[-1]
            ds, dfactor = cngd_deriv(z[:n], z[n:-1].reshape(n, n), eta, t, model)
            return np.concatenate([ds, dfactor.ravel(), [eta_ode(eta, alpha_at(t))]])

    else:
        raise ValueError(f"unknown integration kind {kind!r}")

    z = np.concatenate([np.asarray(init_state, dtype=float), mat0.ravel(), tail])
    end = n + n * n
    packed = np.zeros((n_steps + 1, z.size))
    packed[0] = z
    check(mat0, label, 0.0)
    # An overflow inside a field is reported by rk4_step's finiteness check,
    # as a failure of its step, so numpy's warnings are off for the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            try:
                z = rk4_step(deriv, z, times[i], dt)
            except NumericalError as exc:
                # The same object is re-raised, so its callers see one error.
                exc.args = (f"{kind} step from t = {times[i]:.6g}: {exc}",)
                raise
            check(z[n:end].reshape(n, n), label, times[i + 1])
            packed[i + 1] = z
    states, mats = packed[:, :n], packed[:, n:end].reshape(-1, n, n)
    if kind == BUCY:
        return Trace(states, covs=mats, times=times)
    return Trace(states, factors=mats, etas=packed[:, end], times=times)
