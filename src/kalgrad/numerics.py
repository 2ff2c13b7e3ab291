"""Dense linear-algebra and calculus utilities shared by the filters.

Everything here is a pure function of its inputs; matrices are small and
dense (state dimensions of a few at most), so factorization-based solves
and fixed-step integration are the right tools.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import NonFiniteError, SingularMatrixError

# Diagonal jitter ladder used to rescue marginally non-PD solves, scaled
# by trace(A)/dim.  Exhausting the ladder is a hard failure.
_JITTER_SCALES = (1e-12, 1e-10, 1e-8)

_TINY = float(np.finfo(float).tiny)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T) / 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("symmetrize expects a square matrix")
    return 0.5 * (a + a.T)


def as_schedule(values) -> np.ndarray:
    """A per-step schedule as a 1-D float array; a scalar becomes one entry."""
    return np.atleast_1d(np.asarray(values, dtype=float))


def check_schedule(schedule: np.ndarray, horizon: int, name: str) -> None:
    """Reject a schedule that has neither one entry nor one per step."""
    if schedule.size not in (1, horizon):
        raise ValueError(
            f"{name} schedule has {schedule.size} entries; need 1 or {horizon}"
        )


def _chol_small(a: np.ndarray, n: int):
    """Lower Cholesky factor of a 1x1 or 2x2 matrix, or None if not PD or
    a pivot is not finite."""
    if n == 1:
        d = a[0, 0]
        if not 0 < d < np.inf:
            return None
        return (np.sqrt(d),)
    l00_sq = a[0, 0]
    if not 0 < l00_sq < np.inf:
        return None
    l00 = np.sqrt(l00_sq)
    l10 = a[1, 0] / l00
    d = a[1, 1] - l10 * l10
    if not 0 < d < np.inf:
        return None
    return (l00, l10, np.sqrt(d))


def _chol_solve_small(factor, b: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return b / (factor[0] * factor[0])
    l00, l10, l11 = factor
    y0 = b[0] / l00
    y1 = (b[1] - l10 * y0) / l11
    x1 = y1 / l11
    x0 = (y0 - l10 * x1) / l00
    if b.ndim == 1:
        return np.array((x0, x1))
    return np.stack([x0, x1])


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A without forming A^{-1}.

    Uses a Cholesky factorization plus one step of iterative refinement.
    If the factorization fails, diagonal jitter delta * trace(A)/dim is
    added for delta in {1e-12, 1e-10, 1e-8} before giving up; the residual
    is then measured against the jittered matrix actually solved.

    Dimensions 1 and 2 take a closed-form path; the semantics match the
    general factorization route.

    Raises
    ------
    NonFiniteError
        If the matrix or the right-hand side holds an inf or nan (checked
        once the factorization or the solve has failed).
    SingularMatrixError
        If positive definiteness cannot be restored within the jitter
        budget, or the relative residual stays above 1e-10.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("solve_psd expects a square matrix")

    a_used = a
    factor = _factor(a)
    if factor is None:
        _check_finite(a, b)  # no jitter rescues an inf or nan
        for delta in _JITTER_SCALES:
            a_used = a + (delta * np.trace(a) / n) * np.eye(n)
            factor = _factor(a_used)
            if factor is not None:
                break
        else:
            raise SingularMatrixError("matrix is not positive definite within the jitter budget")

    if n <= 2:
        x = _chol_solve_small(factor, b, n)
        resid = b - a_used @ x
        x = x + _chol_solve_small(factor, resid, n)
    else:
        try:
            x = scipy.linalg.cho_solve(factor, b)
        except ValueError:
            _check_finite(a, b)
            raise
        # One refinement pass keeps the residual near machine precision.
        resid = b - a_used @ x
        x = x + scipy.linalg.cho_solve(factor, resid)
    final = b - a_used @ x
    with np.errstate(over="ignore"):
        rel = _norm(final) / max(_norm(b), _TINY)
    if not rel <= 1e-10:
        _check_finite(a, b)
        raise SingularMatrixError(
            f"SPD solve residual {rel:.3e} exceeds 1e-10; matrix too ill-conditioned"
        )
    return x


def _norm(v: np.ndarray) -> float:
    """Frobenius norm, to be called with numpy overflow warnings off.

    Where sum(v * v) is neither inf nor below the normal range this is
    its square root; elsewhere v is scaled by the power of two just above
    max |v| before squaring, which is exact, so the result is the same
    number without the range limit.
    """
    ss = float((v * v).sum())
    if _TINY <= ss < math.inf or not np.count_nonzero(v):
        return math.sqrt(ss)
    peak = float(np.abs(v).max())
    if not peak < math.inf:
        return peak  # inf or nan
    exp = np.frexp(peak)[1]
    w = np.ldexp(v, -exp)
    return float(np.ldexp(math.sqrt(float((w * w).sum())), exp))


def _factor(a: np.ndarray):
    """Cholesky factor of A, or None if A is not numerically PD or not finite."""
    if a.shape[0] <= 2:
        return _chol_small(a, a.shape[0])
    try:
        return scipy.linalg.cho_factor(a, lower=True)
    except ValueError:  # LinAlgError, or scipy's check for inf/nan entries
        return None


def _check_finite(a: np.ndarray, b: np.ndarray) -> None:
    """Raise NonFiniteError naming the operand of a failed solve that holds
    an inf or nan; called on failure paths only."""
    for label, arr in (("matrix", a), ("right-hand side", b)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"SPD solve {label} has non-finite entries")


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of a vector map at x.

    Column j is (fn(x + h_j e_j) - fn(x - h_j e_j)) / (2 h_j), with
    h_j = cbrt(eps) * (1 + |x_j|), the usual central-difference balance of
    truncation against roundoff.

    Raises
    ------
    NonFiniteError
        If the map returns a non-finite value at any probe point.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x), dtype=float)
    if not np.all(np.isfinite(f0)):
        raise NonFiniteError("map is non-finite at the expansion point")
    n = x.size
    jac = np.zeros((f0.size, n))
    for j in range(n):
        h = np.cbrt(np.finfo(float).eps) * (1.0 + abs(x[j]))
        e = np.zeros(n)
        e[j] = h
        f_plus = np.asarray(fn(x + e), dtype=float)
        f_minus = np.asarray(fn(x - e), dtype=float)
        if not (np.all(np.isfinite(f_plus)) and np.all(np.isfinite(f_minus))):
            raise NonFiniteError(f"map is non-finite at a probe point for column {j}")
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    return jac


def rk4_step(
    deriv: Callable[[float, np.ndarray], np.ndarray],
    state: np.ndarray,
    t: float,
    dt: float,
) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size dt from time t.

    Raises
    ------
    NonFiniteError
        If any of the four stage evaluations is non-finite.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    state = np.asarray(state, dtype=float)

    def stage(tau: float, y: np.ndarray) -> np.ndarray:
        k = np.asarray(deriv(tau, y), dtype=float)
        if not np.all(np.isfinite(k)):
            raise NonFiniteError(f"derivative non-finite at t = {tau}")
        return k

    k1 = stage(t, state)
    k2 = stage(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = stage(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = stage(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
