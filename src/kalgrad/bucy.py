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

Both fields read the gaussian observation whitened by R = L L^T, through
the helper of :func:`kalgrad.model.mean_linearisation`:
B = L^-1 H and e = (y(t) - h(s, u_t)) L^-T, so H^T R^-1 (y - h) = B^T e
and H^T R^-1 H = B^T B.

Under P = eta J^-1 and the eta equation above, the two vector fields
coincide.  :func:`run` steps a stack of sides, each from :func:`start`,
together with fixed-step RK4 on a grid that must end at the horizon
(:func:`grid_steps`); each stage reads u_t, y(t) and alpha(t) once for
every side's field.  :func:`kalgrad.equivalence.check_continuous` runs
both sides so, and :func:`integrate` runs one.

Observation paths y(t) are smooth callables; rough (white-noise) paths are
out of scope.  The fields keep S exactly lower and U exactly upper
triangular, and positivity is monitored, never enforced: after each step
every factor must be finite with a positive diagonal, with no floor.  An
error inside a step names the side and the step's grid time: in a stack,
the side whose field fails first, stage by stage and, within a stage, in
the order of the stack.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .errors import NonFiniteError, NumericalError, PositivityLostError, SingularMatrixError
from .model import ContinuousModel, Trace, _whitened
from .natgrad import _prior_factor, _upper
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import _factor_psd, check_eta0, rk4_step, solve_psd, symmetrize  # noqa: F401

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


def bucy_deriv(
    s: np.ndarray, factor: np.ndarray, model: ContinuousModel, u: np.ndarray, y: np.ndarray,
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dS/dt) of the fading-memory Kalman-Bucy filter
    at mean s, lower-triangular covariance factor S (P = S S^T), input
    u = u_t, observation y = y(t) and fading weight alpha = alpha(t); dS/dt
    is lower triangular.  An S with a zero diagonal raises SingularMatrixError."""
    jac, residual = _whitened(model.family, model.h(s, u), model.jac_h(s, u))
    rows = jac @ factor  # W = B S
    ds = model.f(s, u) + factor @ (rows.T @ residual(y))
    m, info = dtrtrs(factor, model.jac_f(s, u) @ factor, lower=1)
    if info:
        raise SingularMatrixError("covariance factor is singular")
    n = len(factor)
    gen = m + m.T - rows.T @ rows
    gen.flat[:: n + 1] += alpha
    # Phi_L keeps the strict lower triangle and half the diagonal.
    gen.flat[:: n + 1] *= 0.5
    return ds, factor @ (gen * _upper(n).T)


def cngd_deriv(
    s: np.ndarray, factor: np.ndarray, eta: float, t: float, model: ContinuousModel,
    u: np.ndarray, y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vector field (ds/dt, dU/dt) of the continuous-time natural gradient
    at chart value s, upper-triangular metric factor U (J = U^T U),
    learning rate eta = gamma, time t, input u = u_t and observation
    y = y(t); dU/dt is upper triangular.  A U with an exactly zero
    diagonal entry raises SingularMatrixError, naming t."""
    jac, residual = _whitened(model.family, model.h(s, u), model.jac_h(s, u))
    n = len(factor)
    # One solve U^T X = [(U F)^T, B^T] gives X = [M^T, V^T]: the Fisher
    # rows of a whitened observation are B itself, and
    # J^-1 B^T e = U^-1 (V^T e) needs one more solve.
    rhs = np.concatenate(((factor @ model.jac_f(s, u)).T, jac.T), axis=1)
    sol, info = dtrtrs(factor, rhs, trans=1)
    if info:
        raise SingularMatrixError(f"metric factor is singular at t = {t}")
    m_t, v_t = sol[:, :n], sol[:, n:]
    ds = model.f(s, u) + eta * dtrtrs(factor, v_t @ residual(y))[0]
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
        passed = np.isfinite(factors).all(axis=1) & (factors[:, :: n + 1] > 0.0).all(axis=1)
        if not passed.all():
            label = labels[int(passed.argmin())]
            raise PositivityLostError(f"{label} lost positive definiteness at t = {t:.6g}")

    return check


def start(kind: str, init_state, init_matrix, eta0: float | None = None) -> tuple[str, np.ndarray]:
    """One side of a continuous run, (kind, z_0), with z_0 its packed start:
    s_0, then the entries of the lower S_0 (P_0 = S_0 S_0^T) for ``bucy``
    or of the upper U_0 (J_0 = U_0^T U_0) and eta_0 for ``cngd``.  The n x n
    ``init_matrix``, P_0 or J_0, is Cholesky-factored once and refused by
    name if it is not finite or does not factor; ``cngd`` needs the
    initial rate ``eta0``, refused unless :func:`kalgrad.numerics.check_eta0`
    passes it.  The factor must pass :func:`run`'s positivity test at t = 0."""
    state = np.asarray(init_state, dtype=float)
    mat0 = symmetrize(np.asarray(init_matrix, dtype=float))
    if kind == BUCY:
        tail = []
        try:
            mat0 = _factor_psd(mat0)
        except NumericalError as exc:
            exc.args = (f"prior covariance P_0: {exc}",)
            raise
    elif kind == CNGD:
        if eta0 is None:
            raise ValueError("cngd needs the initial rate eta0")
        tail = [check_eta0(eta0)]
        mat0 = _prior_factor(mat0)
    else:
        raise ValueError(f"unknown integration kind {kind!r}")
    if len(mat0) != state.size:
        raise ValueError(f"{kind} start needs a matrix of shape ({state.size}, {state.size})")
    z0 = np.concatenate([state, mat0.ravel(), tail])
    _factor_check([kind], [0], state.size)(z0, 0.0)
    return kind, z0


def _field(
    kinds: Sequence[str], bounds, model: ContinuousModel, alpha_at: Callable[[float], float]
):
    """The derivative of the sides ``kinds`` packed between ``bounds``, for
    :func:`kalgrad.numerics.rk4_step`: each evaluation reads u_t, y(t) and
    alpha(t) once and writes every side's field into one new vector.  A
    numerical error raised while a side's field is evaluated, or a
    non-finite field of that side, gets ``side`` set to the side's kind."""
    n = model.dim_state
    end = n + n * n
    layout, size = list(zip(kinds, bounds, bounds[1:])), bounds[-1]

    def deriv(t: float, z: np.ndarray) -> np.ndarray:
        kind = kinds[0]  # an error reading the inputs is the first side's
        try:
            u = model.input_at(t)
            y = np.atleast_1d(model.obs_path(t))
            alpha = alpha_at(t)
            out = np.empty(size)
            for kind, lo, hi in layout:
                s, mat = z[lo : lo + n], z[lo + n : lo + end].reshape(n, n)
                if kind == BUCY:
                    ds, dmat = bucy_deriv(s, mat, model, u, y, alpha)
                else:
                    eta = float(z[lo + end])
                    ds, dmat = cngd_deriv(s, mat, eta, t, model, u, y)
                    out[lo + end] = eta_ode(eta, alpha)
                out[lo : lo + n] = ds
                out[lo + n : lo + end] = dmat.ravel()
                # On a few entries a Python-level test is cheaper than numpy's.
                if not all(map(math.isfinite, out[lo:hi].tolist())):
                    raise NonFiniteError(f"derivative non-finite at t = {t:.6g}")
        except NumericalError as exc:
            exc.side = kind
            raise
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
            t = times[i]
            try:
                z = rk4_step(field, z, t, dt)
            except NumericalError as exc:
                # The side's own error is re-raised, not wrapped in a new one.
                exc.args = (f"{exc.side} step from t = {t:.6g}: {exc}",)
                raise
            check(z, times[i + 1])
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
    and gamma(t) = eta(t).  Positivity is checked after each step, and
    failure raises PositivityLostError.  A numerical error raised inside a
    step gets the side (``bucy`` or ``cngd``) and the step's grid time
    prepended to its message.
    """
    return run([start(kind, init_state, init_matrix, eta0)], model, dt, horizon, alpha)[0]
