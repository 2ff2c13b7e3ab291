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

Both matrices are carried as triangular factors, P = S S^T with S lower
and J = U^T U with U upper triangular, in the square-root flows of Morf,
Levy and Kailath (1978):

    dS/dt = S Phi_L(M + M^T - W^T W + alpha I),    M = S^-1 F S,  W = B S,
    dU/dt = Phi(-M - M^T - eta I + eta V^T V) U,   M = U F U^-1,  V = B U^-1,

with Phi_L (Phi) keeping the strict lower (upper) triangle and half the
diagonal, so that dS S^T + S dS^T = dP/dt and dU^T U + U^T dU = dJ/dt.
Every inverse is a triangular solve.

Both fields read the gaussian observation y(t) whitened by R = L L^T, each
in one call of :func:`kalgrad.model._whitened_path`, which tests h(s, u_t)
before H is taken: B = L^-1 H and e = (y(t) - h(s, u_t)) L^-T, so
H^T R^-1 (y - h) = B^T e and H^T R^-1 H = B^T B.  Phi and Phi_L are one
multiply by a read-only mask, both made once per state dimension
(:func:`_masks`).

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide.  :func:`run` steps a stack of sides, each from :func:`start`,
together with fixed-step RK4 on a grid that must end at the horizon
(:func:`grid_steps`), walked as Python floats.  u_t, y(t) and alpha(t)
are read once per distinct stage time for every side's field: the two
middle stages of a step share one time, and the last stage's time is
the next step's wherever the floats agree.
:func:`kalgrad.equivalence.check_continuous` runs both sides so, and
:func:`integrate` runs one.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  The fields keep S exactly lower and U exactly upper
triangular, and positivity is monitored, never enforced: after each step
every factor must be finite with a positive diagonal, with no floor.  An
error inside a step names the side and the step's grid time: in a stack,
the side whose field fails first, stage by stage and, within a stage, in
the order of the stack.  :func:`_field` tests each RK4 stage in one
finiteness pass over all sides, and each side's slice only when a test
fails or a field raises; :func:`kalgrad.numerics.rk4_step` tests none.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NonFiniteError, NumericalError, PositivityLostError, SingularMatrixError
from .model import ContinuousModel, Trace, _whitened_path
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import (  # noqa: F401
    _atleast_1d, _finite, _prior_factor, check_eta0, rk4_step, solve_psd, symmetrize,
)

BUCY = "bucy"
CNGD = "cngd"


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


@functools.cache
def _masks(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only n x n masks of Phi, ones on the strict upper triangle
    and 0.5 on the diagonal, and of Phi_L, its transpose."""
    phi = np.triu(np.ones((n, n)))
    phi.flat[:: n + 1] = 0.5
    phi.flags.writeable = False
    return phi, phi.T


def bucy_deriv(
    s: np.ndarray, factor: np.ndarray, model: ContinuousModel, u: np.ndarray, y: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dS/dt) of the fading-memory Kalman-Bucy filter
    at mean s, lower-triangular covariance factor S (P = S S^T), input
    u = u_t, observation y = y(t) and fading weight alpha = alpha(t); dS/dt
    is lower triangular.  An S with a zero diagonal raises SingularMatrixError."""
    jac, residual = _whitened_path(model, s, u, y)
    rows = jac.dot(factor)  # W = B S
    drift = model.f(s, u)
    ds = drift + factor.dot(rows.T.dot(residual))
    m, info = dtrtrs(factor, model.jac_f(s, u, drift).dot(factor), lower=1)
    if info:
        raise SingularMatrixError("covariance factor is singular")
    n = len(factor)
    gen = m + m.T
    gen -= rows.T.dot(rows)
    gen.flat[:: n + 1] += alpha
    gen *= _masks(n)[1]  # Phi_L
    return ds, factor.dot(gen)


def cngd_deriv(
    s: np.ndarray, factor: np.ndarray, eta: float, t: float, model: ContinuousModel,
    u: np.ndarray, y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dU/dt) of the continuous-time natural gradient
    at chart value s, upper-triangular metric factor U (J = U^T U),
    learning rate eta = gamma, time t, input u = u_t and observation
    y = y(t); dU/dt is upper triangular.  A U with an exactly zero
    diagonal entry raises SingularMatrixError, naming t."""
    jac, residual = _whitened_path(model, s, u, y)
    n = len(factor)
    drift = model.f(s, u)
    # One solve U^T X = [(U F)^T, B^T] gives X = [M^T, V^T]: the Fisher
    # rows of a whitened observation are B itself, and
    # J^-1 B^T e = U^-1 (V^T e) needs one more solve.
    rhs = np.concatenate((factor.dot(model.jac_f(s, u, drift)).T, jac.T), axis=1)
    sol, info = dtrtrs(factor, rhs, trans=1)
    if info:
        raise SingularMatrixError(f"metric factor is singular at t = {t}")
    m_t, v_t = sol[:, :n], sol[:, n:]
    ds = drift + eta * dtrtrs(factor, v_t.dot(residual))[0]
    gen = v_t.dot(v_t.T)
    gen *= eta
    gen -= m_t
    gen -= m_t.T
    gen.flat[:: n + 1] -= eta
    gen *= _masks(n)[0]  # Phi
    return ds, gen.dot(factor)


def eta_ode(eta: float, alpha: float) -> float:
    """Learning-rate flow deta/dt = alpha * eta - eta^2."""
    return alpha * eta - eta * eta


def _fading_weight(alpha) -> float:
    """alpha as a float, refused unless it is >= 0 (nan included)."""
    alpha = float(alpha)
    if not alpha >= 0:
        raise ValueError("fading-memory weights must be >= 0")
    return alpha


def _factor_check(kinds: Sequence[str], starts, n: int) -> Callable[[np.ndarray, float], None]:
    """The positivity test check(z, t) of the sides ``kinds`` packed in z
    from ``starts`` at state dimension n, with the indices of their factors
    computed once: each triangular factor, S or U, must be finite with a
    positive diagonal, else PositivityLostError names the first side that
    fails, by its matrix, ``covariance`` or ``metric``, and t."""
    labels = ["covariance" if kind == BUCY else "metric" for kind in kinds]
    entries = np.array(starts)[:, None] + np.arange(n, n + n * n)  # one row per side

    def check(z: np.ndarray, t: float) -> None:
        factors = z[entries]
        # With every entry finite, min() over the diagonals is exact.  Only
        # when the stack fails is each side tested the same way, in order.
        if _finite(factors) and min(factors[:, :: n + 1].ravel().tolist()) > 0.0:
            return
        for label, factor in zip(labels, factors):
            if not (_finite(factor) and min(factor[:: n + 1].tolist()) > 0.0):
                raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")

    return check


def start(kind: str, init_state, init_factor, eta0: float | None = None) -> tuple[str, np.ndarray]:
    """One side of a continuous run, (kind, z_0), with z_0 its packed start:
    s_0, then the entries of the n x n ``init_factor``, the lower S_0
    (P_0 = S_0 S_0^T) for ``bucy`` or the upper U_0 (J_0 = U_0^T U_0) and
    eta_0 for ``cngd``, refused if it is of another shape or triangle;
    ``cngd`` needs the initial rate ``eta0``, refused unless
    :func:`kalgrad.numerics.check_eta0` passes it.  The factor must pass
    :func:`run`'s positivity test at t = 0."""
    state = np.asarray(init_state, dtype=float)
    factor = np.asarray(init_factor, dtype=float)
    if kind == BUCY:
        tail, triangle = [], "lower"
    elif kind == CNGD:
        if eta0 is None:
            raise ValueError("cngd needs the initial rate eta0")
        tail, triangle = [check_eta0(eta0)], "upper"
    else:
        raise ValueError(f"unknown integration kind {kind!r}")
    if factor.shape != (state.size, state.size):
        raise ValueError(f"{kind} start needs a matrix of shape ({state.size}, {state.size})")
    if (np.triu(factor, 1) if kind == BUCY else np.tril(factor, -1)).any():
        raise ValueError(f"{kind} start needs a {triangle}-triangular factor")
    z0 = np.concatenate([state, factor.ravel(), tail])
    _factor_check([kind], [0], state.size)(z0, 0.0)
    return kind, z0


def _field(
    kinds: Sequence[str], bounds, model: ContinuousModel, alpha_at: Callable[[float], float]
):
    """The derivative of the sides ``kinds`` packed between ``bounds``, for
    :func:`kalgrad.numerics.rk4_step`: every side's field written into one
    new vector.  u_t, y(t) and alpha(t) are read once per distinct stage
    time, and kept for the next evaluation at the same float; an error
    while reading them is the first side's.  The new vector is tested
    once, and each side's block, in order, only when that test fails or a
    later side's field raises, so that a numerical error gets ``side`` set
    to the kind of the first side whose field raises or is not finite.
    Each side's slices of z, its state, factor, eta (the entry after its
    factor, read by ``cngd`` only) and whole block, are built once."""
    n = model.dim_state
    end = n + n * n
    size = bounds[-1]
    layout = [
        (kind, slice(lo, lo + n), slice(lo + n, lo + end), lo + end, slice(lo, hi))
        for kind, lo, hi in zip(kinds, bounds, bounds[1:])
    ]
    t_read, inputs = math.nan, None  # no time read yet

    def raise_first_non_finite(out: np.ndarray, sides: int, t: float) -> None:
        """Raise NonFiniteError, its ``side`` set, for the first of the
        first ``sides`` sides whose block of ``out`` is not finite."""
        for kind, *_, block in layout[:sides]:
            if not _finite(out[block]):
                exc = NonFiniteError(f"derivative non-finite at t = {t:.6g}")
                exc.side = kind
                raise exc from None

    def deriv(t: float, z: np.ndarray) -> np.ndarray:
        nonlocal t_read, inputs
        out = np.empty(size)
        done = 0  # the sides whose blocks of out are written
        try:
            if t != t_read:
                inputs = model.input_at(t), _atleast_1d(model.obs_path(t)), alpha_at(t)
                t_read = t
            u, y, alpha = inputs
            for kind, state, mat, eta_at, _ in layout:
                s, factor = z[state], z[mat].reshape(n, n)
                if kind == BUCY:
                    ds, dmat = bucy_deriv(s, factor, model, u, y, alpha)
                else:
                    eta = z.item(eta_at)
                    ds, dmat = cngd_deriv(s, factor, eta, t, model, u, y)
                    out[eta_at] = eta_ode(eta, alpha)
                out[state] = ds
                out[mat] = dmat.ravel()
                done += 1
        except Exception as exc:
            # Any error of a later side, numerical or not, comes after an
            # earlier side's non-finite block in evaluation order.
            raise_first_non_finite(out, done, t)
            if isinstance(exc, NumericalError):
                exc.side = kinds[done]
            raise
        if not _finite(out):
            raise_first_non_finite(out, done, t)
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
    does, with each P_t = S_t S_t^T formed in one stacked product.  A
    numerical error inside a step names the side whose field fails first
    in evaluation order (:func:`_field`): stage by stage, and within a
    stage in the order of ``sides``.  After each step the stack passes
    :func:`_factor_check`.
    """
    n = model.dim_state
    end = n + n * n
    n_steps = grid_steps(dt, horizon)
    times = np.linspace(0.0, n_steps * dt, n_steps + 1)
    grid = times.tolist()
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
    field = _field(kinds, bounds, model, alpha_at)
    check = _factor_check(kinds, bounds[:-1], n)
    z = np.concatenate([z0 for _, z0 in sides])
    packed = np.empty((n_steps + 1, z.size))
    packed[0] = z
    # An overflow inside a field is reported by _field's finiteness check,
    # as a failure of its side, so numpy's warnings are off for the loop.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = grid[i]
            try:
                z = rk4_step(field, z, t, dt)
            except NumericalError as exc:
                # The side's own error is re-raised, not wrapped in a new one.
                exc.args = (f"{exc.side} step from t = {t:.6g}: {exc}",)
                raise
            check(z, grid[i + 1])
            packed[i + 1] = z
    traces = []
    for kind, lo in zip(kinds, bounds):
        states, mats = packed[:, lo : lo + n], packed[:, lo + n : lo + end].reshape(-1, n, n)
        if kind == BUCY:
            traces.append(Trace(states, covs=mats @ mats.transpose(0, 2, 1), times=times))
        else:
            traces.append(Trace(states, factors=mats, etas=packed[:, lo + end], times=times))
    return traces


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
    side.  Returns the samples at every grid time, with ``covs``
    (P_t = S_t S_t^T) for ``bucy`` and ``factors`` (J_t = U_t^T U_t) and
    ``etas`` for ``cngd``.  ``alpha`` is a float, refused on entry if
    negative or nan, or a callable of time, refused so when it is
    evaluated.  eta is co-integrated with the state via :func:`eta_ode`
    and gamma(t) = eta(t).  ``init_matrix``, P_0 or J_0, is factored once,
    and refused by name if it does not factor.  Positivity is checked after
    each step, and failure raises PositivityLostError.  A numerical error
    inside a step gets the side and the step's grid time prepended.
    """
    name = "prior covariance P_0" if kind == BUCY else "prior metric J_0"
    lower = _prior_factor(symmetrize(init_matrix), name)
    side = start(kind, init_state, lower if kind == BUCY else lower.T, eta0)
    return run([side], model, dt, horizon, alpha)[0]
