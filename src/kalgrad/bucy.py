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

    dU/dt = Phi(-M - M^T - eta I + eta V^T V) U,   M = U F U^-1,  V = B U^-1,

with Phi keeping the strict upper triangle and half the diagonal, so that
dU^T U + U^T dU = dJ/dt; every inverse is a triangular solve.

Both fields read the gaussian observation whitened by R = L L^T, through
the helper of the gaussian branch of :func:`kalgrad.model.mean_linearisation`:
B = L^-1 H and e = (y(t) - h(s, u_t)) L^-T, so H^T R^-1 (y - h) = B^T e
and H^T R^-1 H = B^T B.

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide.  :func:`run` steps a stack of sides, each from :func:`start`,
together with fixed-step RK4 on a grid that must end at the horizon
(:func:`grid_steps`); each stage reads u_t, y(t) and alpha(t) once and
passes them to every side's field.
:func:`kalgrad.equivalence.check_continuous` runs both sides so, and
:func:`integrate` runs one.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  The fields keep P exactly symmetric and U exactly upper
triangular, and positivity is monitored, never enforced: after each step a
Cholesky factorization of P shifted down by 1e-13 times its Frobenius norm
must succeed, and U must be finite with a positive diagonal.  An error
inside a step names the side and the step's grid time: in a stack, the
side that fails at the earliest grid step, the earlier on a tie.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from .errors import NumericalError, PositivityLostError
from .model import ContinuousModel, Trace, _whitened
from .natgrad import _metric_solve, _prior_factor, _upper
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
    model: ContinuousModel,
    u: np.ndarray,
    y: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dP/dt) of the fading-memory Kalman-Bucy filter
    at mean s, covariance P (exactly symmetric), input u = u_t,
    observation y = y(t) and fading weight alpha = alpha(t)."""
    jac, residual = _whitened(model.family, model.h(s, u), model.jac_h(s, u))
    resid = residual(y)
    f_jac = model.jac_f(s, u)
    gain = cov @ jac.T  # P H^T L^-T
    ds = model.f(s, u) + gain @ resid
    # P F^T = (F P)^T exactly, since P is exactly symmetric.
    fp = f_jac @ cov
    dcov = fp + fp.T - gain @ gain.T + alpha * cov
    return ds, symmetrize(dcov)


def cngd_deriv(
    s: np.ndarray,
    factor: np.ndarray,
    eta: float,
    t: float,
    model: ContinuousModel,
    u: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dU/dt) of the continuous-time natural gradient
    at chart value s, upper-triangular metric factor U (J = U^T U),
    learning rate eta = gamma, time t, input u = u_t and observation
    y = y(t); dU/dt is upper triangular.  A U with an exactly zero
    diagonal entry raises SingularMatrixError, naming t."""
    jac, residual = _whitened(model.family, model.h(s, u), model.jac_h(s, u))
    resid = residual(y)
    ds = model.f(s, u) + eta * _metric_solve(factor, jac.T @ resid, "metric factor", t)
    n = len(factor)
    # One solve U^T X = [(U F)^T, B^T] gives X = [M^T, V^T]: the Fisher
    # rows of a whitened observation are B itself.
    rhs = np.concatenate(((factor @ model.jac_f(s, u)).T, jac.T), axis=1)
    sol = dtrtrs(factor, rhs, trans=1)[0]
    m_t, v_t = sol[:, :n], sol[:, n:]
    gen = eta * (v_t @ v_t.T) - m_t - m_t.T
    gen.flat[:: n + 1] -= eta
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
    if floor < math.inf:
        shifted = mat.copy()
        shifted.flat[:: len(mat) + 1] -= floor
        if not dpotrf(shifted, lower=1, clean=0)[1]:
            return
    raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")


# Per side: the label of its matrix in errors and its positivity check.
_CHECKS = {BUCY: ("covariance", _check_positive), CNGD: ("metric", _check_factor)}


def start(kind: str, init_state, init_matrix, eta0: float | None = None) -> tuple[str, np.ndarray]:
    """One side of a continuous run, (kind, z_0), with z_0 its packed start:
    s_0, then the entries of P_0 for ``bucy`` or of U_0 and eta_0 for
    ``cngd``.  ``init_matrix`` is P_0 or the prior metric J_0, factored as
    in :func:`kalgrad.natgrad.run`; ``cngd`` needs the initial rate
    ``eta0``, refused unless :func:`kalgrad.numerics.check_eta0` passes
    it.  The matrix must pass the side's positivity check at t = 0."""
    mat0 = symmetrize(np.asarray(init_matrix, dtype=float))
    if kind == BUCY:
        tail = []
    elif kind == CNGD:
        if eta0 is None:
            raise ValueError("cngd needs the initial rate eta0")
        tail = [check_eta0(eta0)]
        mat0 = _prior_factor(mat0)
    else:
        raise ValueError(f"unknown integration kind {kind!r}")
    label, check = _CHECKS[kind]
    check(mat0, label, 0.0)
    return kind, np.concatenate([np.asarray(init_state, dtype=float), mat0.ravel(), tail])


def _field(kinds: Sequence[str], model: ContinuousModel, alpha_at: Callable[[float], float]):
    """The derivative of the sides ``kinds`` packed one after another, for
    :func:`kalgrad.numerics.rk4_step`: each evaluation reads u_t, y(t) and
    alpha(t) once and writes every side's field into one new vector."""
    n = model.dim_state
    end = n + n * n
    layout, size = [], 0
    for kind in kinds:
        layout.append((kind == BUCY, size))
        size += end if kind == BUCY else end + 1

    def deriv(t: float, z: np.ndarray) -> np.ndarray:
        u = model.input_at(t)
        y = np.atleast_1d(model.obs_path(t))
        alpha = alpha_at(t)
        out = np.empty(size)
        for is_bucy, lo in layout:
            s, mat = z[lo : lo + n], z[lo + n : lo + end].reshape(n, n)
            if is_bucy:
                ds, dmat = bucy_deriv(s, mat, model, u, y, alpha)
            else:
                eta = float(z[lo + end])
                ds, dmat = cngd_deriv(s, mat, eta, t, model, u, y)
                out[lo + end] = eta_ode(eta, alpha)
            out[lo : lo + n] = ds
            out[lo + n : lo + end] = dmat.ravel()
        return out

    return deriv


def run(
    sides: Sequence[tuple[str, np.ndarray]],
    model: ContinuousModel,
    dt: float,
    horizon: float,
    alpha: float | Callable[[float], float] = 0.0,
) -> list[Trace]:
    """Fixed-step RK4 integration of the sides made by :func:`start`, one
    RK4 step of all of them per grid step, on the grid and under the
    ``alpha`` of :func:`integrate`; returns one Trace per side, as it
    does.  A numerical error inside a step names the side that
    :func:`_culprit` finds, and after each step the sides' positivity
    checks run in their order.
    """
    n = model.dim_state
    end = n + n * n
    n_steps = grid_steps(dt, horizon)
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    if callable(alpha):
        alpha_at = lambda t: _fading_weight(alpha(t))
    else:
        constant = _fading_weight(alpha)
        alpha_at = lambda t: constant

    kinds = [kind for kind, _ in sides]
    bounds = np.cumsum([0] + [z0.size for _, z0 in sides]).tolist()
    for kind, lo, hi in zip(kinds, bounds, bounds[1:]):
        if hi - lo != end + (kind == CNGD):
            raise ValueError(f"{kind} start does not match a state of dimension {n}")
    field = _field(kinds, model, alpha_at)
    z = np.concatenate([z0 for _, z0 in sides])
    packed = np.empty((n_steps + 1, z.size))
    packed[0] = z
    # An overflow inside a field is reported by rk4_step's finiteness check,
    # as a failure of its step, so numpy's warnings are off for the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = times[i]
            try:
                z = rk4_step(field, z, t, dt)
            except NumericalError as exc:
                kind, error = _culprit(kinds, bounds, z, t, dt, model, alpha_at, exc)
                # The side's own error is re-raised, not wrapped in a new one.
                error.args = (f"{kind} step from t = {t:.6g}: {error}",)
                raise error from None
            for kind, lo in zip(kinds, bounds):
                label, check = _CHECKS[kind]
                check(z[lo + n : lo + end].reshape(n, n), label, times[i + 1])
            packed[i + 1] = z
    traces = []
    for kind, lo in zip(kinds, bounds):
        states, mats = packed[:, lo : lo + n], packed[:, lo + n : lo + end].reshape(-1, n, n)
        if kind == BUCY:
            traces.append(Trace(states, covs=mats, times=times))
        else:
            traces.append(Trace(states, factors=mats, etas=packed[:, lo + end], times=times))
    return traces


def _culprit(kinds, bounds, z, t, dt, model, alpha_at, exc):
    """(side, its error) for the error ``exc`` of the step from t of the
    sides ``kinds``, packed in z between ``bounds``: the first side before
    the last that fails when stepped alone from z, else the last side,
    whose error ``exc`` is.  So the earliest failing grid step decides,
    and a failure of two sides in one step names the earlier."""
    for kind, lo, hi in zip(kinds[:-1], bounds, bounds[1:]):
        try:
            rk4_step(_field([kind], model, alpha_at), z[lo:hi], t, dt)
        except NumericalError as alone:
            return kind, alone
    return kinds[-1], exc


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
    (:func:`grid_steps`), started by :func:`start`: :func:`run` with one
    side.  Returns the samples at every grid time, with ``covs`` for
    ``bucy`` and ``factors`` (J_t = U_t^T U_t) and ``etas`` for ``cngd``.
    ``alpha`` is a float, refused on entry if negative or nan, or a
    callable of time, refused so when it is evaluated.  eta is
    co-integrated with the state via :func:`eta_ode` and gamma(t) = eta(t).
    P stays exactly symmetric and U exactly upper triangular, as are the
    fields' derivatives; positivity is checked after each step and failure
    raises PositivityLostError.  A numerical error raised inside a step
    gets the side (``bucy`` or ``cngd``) and the step's grid time
    prepended to its message.
    """
    return run([start(kind, init_state, init_matrix, eta0)], model, dt, horizon, alpha)[0]
