"""Dense linear-algebra and calculus utilities shared by the filters.

Everything here is a pure function of its inputs; matrices are small and
dense (state dimensions of a few at most), so factorizations and
fixed-step integration are the right tools.  A matrix that does not
factor is refused, never shifted.  The SPD solve has no library caller;
it stays for certbench, whose per-layer metrics wrap it.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import NonFiniteError, SingularMatrixError

# The largest relative residual ||B - A X||_F / ||B||_F an SPD solve may
# leave.
_RESIDUAL_BOUND = 1e-10

_TINY = float(np.finfo(float).tiny)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T) / 2."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("symmetrize expects a square matrix")
    return 0.5 * (a + a.T)


# The domain of each discrete schedule: the test an entry must pass, and
# how the refusal states it.  eta = 0 (a frozen parameter with the metric
# still averaging) is allowed; gamma = 0 would stop the metric from ever
# updating.  Comparisons with nan are false, so nan fails every test.
_SCHEDULE_DOMAINS = {
    "alpha": (lambda v: v >= 0.0, "be >= 0"),
    "eta": (lambda v: (0.0 <= v) & (v <= 1.0), "lie in [0, 1]"),
    "gamma": (lambda v: (0.0 < v) & (v <= 1.0), "lie in (0, 1]"),
}


def schedule(name: str, values, horizon: int) -> np.ndarray:
    """The discrete schedule ``name`` (alpha, eta or gamma) as the float
    array values_1..values_T, entry t-1 applying at step t.

    ``values`` is a scalar, a one-entry 1-D input that applies at every
    step, or a 1-D input with one entry per step.

    Raises
    ------
    ValueError
        If ``values`` has another shape, or an entry outside the
        schedule's domain (nan included).
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim > 1:
        raise ValueError(f"{name} schedule has shape {arr.shape}; need a scalar or a 1-D array")
    if arr.size not in (1, horizon):
        raise ValueError(f"{name} schedule has {arr.size} entries; need 1 or {horizon}")
    test, rule = _SCHEDULE_DOMAINS[name]
    if not np.all(test(arr)):
        raise ValueError(f"{name} schedule must {rule}")
    return np.resize(arr, horizon)  # a new array, a single entry repeated


def check_eta0(eta0: float) -> float:
    """Return the initial rate eta_0 if J_0 = eta_0 P_0^-1 is defined for
    it, finite and > 0; a ValueError otherwise.  The discrete map further
    needs eta_0 <= 1 (:func:`kalgrad.equivalence.map_alpha_to_eta`)."""
    if not 0 < eta0 < math.inf:
        raise ValueError(f"must be positive and finite, got {eta0:g}")
    return eta0


def solve_psd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B for symmetric positive definite A without forming A^{-1}.

    Uses LAPACK's Cholesky factorization (``dpotrf``, lower triangle) and
    solve (``dpotrs``) at every dimension, plus one step of iterative
    refinement, applied in place.  A matrix that does not factor is
    refused; it is never shifted to make it factor.  The relative residual
    ||B - A X||_F / ||B||_F must stay below 1e-10.

    Raises
    ------
    ValueError
        If A is not a non-empty square matrix, or B is not a vector or
        matrix with one row per row of A (checked before A is factored).
    NonFiniteError
        If the matrix holds an inf or nan (checked before it is factored),
        or the right-hand side does (checked once the residual check has
        failed).
    SingularMatrixError
        If A is not positive definite (its factorization fails), or the
        relative residual stays above 1e-10.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"solve_psd expects a non-empty square matrix, got shape {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.ndim not in (1, 2) or b.shape[0] != a.shape[0]:
        raise ValueError(
            f"solve_psd right-hand side of shape {b.shape} does not match matrix of shape {a.shape}"
        )
    factor = _factor_psd(a)
    # An inf or nan in B leaves a nan or inf residual, which fails the
    # bound below and is then named by _check_finite.
    with np.errstate(over="ignore", invalid="ignore"):
        x = dpotrs(factor, b, lower=1)[0]
        # One refinement pass keeps the residual near machine precision.
        x += dpotrs(factor, b - a @ x, lower=1, overwrite_b=1)[0]
        # ||B|| is floored at the smallest normal number so that B = 0
        # passes with X = 0; a nan never passes.
        rel = _norm(b - a @ x) / max(_norm(b), _TINY)
    if not rel <= _RESIDUAL_BOUND:
        _check_finite(a, b)
        raise SingularMatrixError(
            f"SPD solve residual {rel:.3e} exceeds {_RESIDUAL_BOUND:.0e};"
            " matrix too ill-conditioned"
        )
    return x


def _factor_psd(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of a validated square float A, with the
    upper triangle zeroed: :func:`solve_psd`'s factorization, and the one
    that a gaussian family and the prior metric keep.

    Raises NonFiniteError if A holds an inf or nan, before the
    factorization (which lets a nan or +inf pivot through), and
    SingularMatrixError if A is otherwise not positive definite.
    """
    _check_finite(a)
    factor, info = dpotrf(a, lower=1, clean=1)
    if info:
        raise SingularMatrixError("matrix is not positive definite")
    return factor


def _norm(v: np.ndarray) -> float:
    """Frobenius norm, to be called with numpy overflow warnings off.

    Where the dot product of the raveled v with itself is neither inf nor
    below the normal range this is its square root; elsewhere v is scaled
    by the power of two just above max |v| before the same dot product,
    which is exact, so the result is the same number without the range
    limit.
    """
    ss = float(np.vdot(v, v))
    if _TINY <= ss < math.inf or not np.count_nonzero(v):
        return math.sqrt(ss)
    peak = float(np.abs(v).max())
    if not peak < math.inf:
        return peak  # inf or nan
    exp = np.frexp(peak)[1]
    w = np.ldexp(v, -exp)
    return float(np.ldexp(math.sqrt(float(np.vdot(w, w))), exp))


def _check_finite(a: np.ndarray, b: np.ndarray | None = None) -> None:
    """Raise NonFiniteError naming the operand of a solve that holds an inf
    or nan: the matrix before it is factored, the right-hand side once a
    solve has failed."""
    for label, arr in (("matrix", a), ("right-hand side", b)):
        if arr is not None and not np.isfinite(arr).all():
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
        # On a few entries a Python-level test is cheaper than numpy's.
        if not all(map(math.isfinite, k.ravel().tolist())):
            raise NonFiniteError(f"derivative non-finite at t = {tau:.6g}")
        return k

    k1 = stage(t, state)
    k2 = stage(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = stage(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = stage(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
