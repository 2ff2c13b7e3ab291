"""Dense linear-algebra and calculus utilities shared by the filters.

Everything here is a pure function of its inputs; matrices are small and
dense (state dimensions of a few at most), so factorizations and
fixed-step integration are the right tools.  A matrix that does not
factor is refused, never shifted.  The SPD solve has no library caller;
it stays for certbench, whose per-layer metrics wrap it.  Every
finiteness check of the library, per step or not, is one call to
:func:`_finite`; :func:`rk4_step` makes none, as the continuous fields
test each of its stages themselves.  Every product of two single
matrices or vectors on a step path is ``a.dot(b)``, which reaches the
same BLAS call as ``a @ b`` for less than half its dispatch cost on the
2x2 arrays of a step; a product of stacks (3-D arrays) stays ``@``, as
``dot`` contracts tensors instead of multiplying matrix by matrix.
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


# Private, as the inline tests it replaced were: certbench's tracer wraps
# every public function, and its span would cost more than the check.
def _finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array ``a`` is finite, the value of
    ``np.isfinite(a).all()``; True for an empty array.

    The entries are summed in Python, cheaper than numpy's isfinite and its
    reduction on the few to 64 entries a step checks: an inf or nan entry
    leaves the sum inf or nan, so a finite sum proves every entry finite,
    and only a sum that is not (a nan or inf entry, or finite entries that
    overflow) tests the entries one by one.
    """
    entries = a.ravel().tolist()
    return math.isfinite(sum(entries)) or all(map(math.isfinite, entries))


def _atleast_1d(a) -> np.ndarray:
    """``np.atleast_1d(a)`` for one argument, without the array-function
    dispatch that costs it more than the conversion: the same array, a
    0-d one reshaped to one entry, and the same refusals."""
    a = np.asanyarray(a)
    return a.reshape(1) if a.ndim == 0 else a


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


def _prior_factor(matrix, name: str) -> np.ndarray:
    """The lower Cholesky factor of a prior ``matrix`` (:func:`_factor_psd`),
    refused by its ``name``, ``prior covariance P_0`` or ``prior metric
    J_0``, if it is not finite or does not factor."""
    try:
        return _factor_psd(np.asarray(matrix, dtype=float))
    except NonFiniteError:
        raise NonFiniteError(f"{name} has non-finite entries") from None
    except SingularMatrixError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


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
        if arr is not None and not _finite(arr):
            raise NonFiniteError(f"SPD solve {label} has non-finite entries")


def fd_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, f0: np.ndarray | None = None
) -> np.ndarray:
    """Central-difference Jacobian of a vector map at x.

    Column j is (fn(x + h_j e_j) - fn(x - h_j e_j)) / (2 h_j), with
    h_j = cbrt(eps) * (1 + |x_j|), the usual central-difference balance of
    truncation against roundoff.  ``f0`` is fn(x) where the caller already
    holds it, so that fn runs 2n times rather than 1 + 2n.

    Raises
    ------
    NonFiniteError
        If the map returns a non-finite value at any probe point.
    """
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(fn(x) if f0 is None else f0, dtype=float)
    if not _finite(f0):
        raise NonFiniteError("map is non-finite at the expansion point")
    n = x.size
    jac = np.zeros((f0.size, n))
    for j in range(n):
        h = np.cbrt(np.finfo(float).eps) * (1.0 + abs(x[j]))
        e = np.zeros(n)
        e[j] = h
        f_plus = np.asarray(fn(x + e), dtype=float)
        f_minus = np.asarray(fn(x - e), dtype=float)
        if not (_finite(f_plus) and _finite(f_minus)):
            raise NonFiniteError(f"map is non-finite at a probe point for column {j}")
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    return jac


def rk4_step(
    deriv: Callable[[float, np.ndarray], np.ndarray],
    state: np.ndarray,
    t: float,
    dt: float,
) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step of size dt from time t,
    for a ``deriv(tau, y)`` returning a float array.  No stage is tested
    here: a derivative that must stay finite tests itself, as
    :func:`kalgrad.bucy._field` does.

    Raises
    ------
    ValueError
        If dt is not > 0.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    state = np.asarray(state, dtype=float)
    k1 = deriv(t, state)
    k2 = deriv(t + 0.5 * dt, state + 0.5 * dt * k1)
    k3 = deriv(t + 0.5 * dt, state + 0.5 * dt * k2)
    k4 = deriv(t + dt, state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
