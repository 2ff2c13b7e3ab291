"""Exponential-family observation models, in mean and natural parameters.

Supported families: Gaussian with known covariance, Bernoulli, and
categorical with the last class dropped.  The general interface is the
mean parameter ``yhat`` (the expected sufficient statistics T), strictly
inside the mean domain (:func:`check_mean`).  There :func:`whitener`
gives S^-T in closed form for a square root S of cov(T), S^T S = cov(T):
L^-1 for a gaussian family's fixed R = L L^T, factored and inverted once
when the family is built, and the inverse of the transposed simplex root
otherwise.  Since d theta / d yhat = cov(T)^-1 in the natural parameter
theta, an observation with mean yhat = h(s) and Jacobian H has the score
e B = (T - yhat) cov(T)^-1 H and the Fisher B^T B = H^T cov(T)^-1 H for
B = S^-T H and e = (T - yhat) S^-1, with no solve with cov(T)
(:func:`kalgrad.model.linearise`).

Bernoulli and categorical also take the natural parameter ``x`` (the
logits, the linear predictor of a model with the canonical link), where
``yhat = mean(x)`` and ``d yhat / d x = V(x) = cov(T)``.  In ``x`` the
Fisher is ``V(x)`` and the score ``T(y) - mean(x)``, both finite for
every finite ``x``, even where ``mean(x)`` rounds to the boundary.
:func:`canonical_parts` gives a linearisation
(:func:`kalgrad.model.linearise`) the score, and ``V(x)`` and its root
S^T S = V(x) built when called, from one evaluation of the
probabilities p, 1 - p and p_K at ``x``, with no ``1 - yhat`` formed by
subtraction.

:func:`check_mean` and the natural-parameter check are the one test of
an observed mean or predictor: its shape, its finiteness
(:func:`kalgrad.numerics._finite`, as for a gaussian observation) and
its domain.

Categorical distributions keep K-1 free coordinates (probabilities of the
first K-1 classes) so the covariance stays invertible; the full-simplex
parameterization would be singular.  Their natural parameter is the K-1
logits against the dropped class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtrtri

from .errors import DomainError, NonFiniteError, OutOfSupportError, SingularMatrixError
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import _atleast_1d, _factor_psd, _finite, solve_psd, symmetrize  # noqa: F401

GAUSSIAN = "gaussian"
BERNOULLI = "bernoulli"
CATEGORICAL = "categorical"

@dataclass(frozen=True)
class ObservationFamily:
    """One exponential family, identified by kind plus fixed parameters.

    Use the :func:`gaussian`, :func:`bernoulli`, :func:`categorical`
    constructors instead of instantiating directly.  A gaussian family,
    however built, symmetrizes its covariance R, refuses one that is not
    finite or does not factor (a ValueError), and keeps its lower Cholesky
    factor L as ``obs_factor``, its one check and its sampler, and the
    read-only inverse L^-1 as ``obs_whitener``, from one ``dtrtri``.
    Neither can be set, nor ``mean_dim``, the length of a mean parameter,
    fixed when the family is built.
    """

    kind: str
    obs_cov: np.ndarray | None = None  # gaussian: fixed covariance of y
    num_classes: int | None = None  # categorical: K >= 2
    obs_factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    obs_whitener: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    mean_dim: int = field(default=1, init=False, repr=False, compare=False)  # 1: bernoulli

    def __post_init__(self):
        if self.kind == CATEGORICAL:
            object.__setattr__(self, "mean_dim", self.num_classes - 1)
        if self.kind != GAUSSIAN:
            return
        with np.errstate(invalid="ignore"):  # inf - inf is a nan, refused below
            r = symmetrize(np.atleast_2d(np.asarray(self.obs_cov, dtype=float)))
        try:
            factor = _factor_psd(r)
        except NonFiniteError:
            raise ValueError("gaussian observation covariance has non-finite entries") from None
        except SingularMatrixError:
            raise ValueError("gaussian observation covariance must be positive definite") from None
        whitener = dtrtri(factor, lower=1)[0]  # L has a positive diagonal
        whitener.flags.writeable = False
        object.__setattr__(self, "obs_cov", r)
        object.__setattr__(self, "obs_factor", factor)
        object.__setattr__(self, "obs_whitener", whitener)
        object.__setattr__(self, "mean_dim", r.shape[0])


def gaussian(obs_cov: np.ndarray) -> ObservationFamily:
    """Gaussian observations with fixed, known, positive definite covariance."""
    return ObservationFamily(kind=GAUSSIAN, obs_cov=obs_cov)


def bernoulli() -> ObservationFamily:
    """Bernoulli observations; mean parameter is P(y = 1)."""
    return ObservationFamily(kind=BERNOULLI)


def categorical(num_classes: int) -> ObservationFamily:
    """Categorical observations over num_classes outcomes, last class dropped."""
    if num_classes < 2:
        raise ValueError("categorical family needs at least 2 classes")
    return ObservationFamily(kind=CATEGORICAL, num_classes=num_classes)


def _as_mean(family: ObservationFamily, yhat) -> np.ndarray:
    yhat = np.asarray(yhat, dtype=float)
    if yhat.shape != (family.mean_dim,):
        yhat = _atleast_1d(yhat)
        if yhat.shape != (family.mean_dim,):
            raise ValueError(
                f"mean parameter must have shape ({family.mean_dim},), got {yhat.shape}"
            )
    return yhat


def check_mean(family: ObservationFamily, yhat) -> np.ndarray:
    """Validate that yhat lies strictly inside the family's mean domain."""
    yhat = _as_mean(family, yhat)
    if not _finite(yhat):
        raise DomainError(f"{family.kind} mean must be finite")
    if family.kind == GAUSSIAN:
        return yhat
    if np.any(yhat <= 0.0) or np.any(yhat >= 1.0):
        raise DomainError(f"{family.kind} mean must lie strictly inside (0, 1)")
    if family.kind == CATEGORICAL and yhat.sum() >= 1.0:
        raise DomainError("categorical mean components must sum to less than 1")
    return yhat


def sufficient_stats(family: ObservationFamily, y) -> np.ndarray:
    """Sufficient statistics T(y) as a vector of length mean_dim.

    Gaussian: T(y) = y.  Bernoulli: T(y) = y in {0, 1}.  Categorical:
    one-hot indicator restricted to the first K-1 classes (the reference
    class maps to the zero vector).
    """
    if family.kind == GAUSSIAN:
        t = _atleast_1d(np.asarray(y, dtype=float))
        if t.shape != (family.mean_dim,):
            raise OutOfSupportError(
                f"gaussian observation must have dimension {family.mean_dim}"
            )
        if not _finite(t):
            raise OutOfSupportError("gaussian observation must be finite")
        return t
    label = _as_label(family, y)
    if family.kind == BERNOULLI:
        return np.array([float(label)])
    t = np.zeros(family.num_classes - 1)
    if label < family.num_classes - 1:
        t[label] = 1.0
    return t


def _as_label(family: ObservationFamily, y) -> int:
    y_arr = np.asarray(y)
    if y_arr.size != 1:
        raise OutOfSupportError(f"{family.kind} observation must be a single label")
    val = float(y_arr.reshape(()))
    if not (math.isfinite(val) and val == int(val)):
        raise OutOfSupportError(f"{family.kind} observation must be an integer label")
    label = int(val)
    limit = 2 if family.kind == BERNOULLI else family.num_classes
    if not 0 <= label < limit:
        raise OutOfSupportError(
            f"label {label} outside support of {family.kind} with {limit} outcomes"
        )
    return label


def _as_natural(family: ObservationFamily, x) -> np.ndarray:
    if family.kind == GAUSSIAN:
        raise ValueError("the natural parameter is defined for bernoulli and categorical only")
    x = _atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (family.mean_dim,):
        raise ValueError(
            f"natural parameter must have shape ({family.mean_dim},), got {x.shape}"
        )
    if not _finite(x):
        raise DomainError(f"{family.kind} natural parameter must be finite")
    return x


def _expit(x: float) -> float:
    """The logistic 1 / (1 + exp(-x)) of a float, 0.0 where exp(-x)
    overflows: scipy.special.expit's expression, from libm's exp."""
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def _canonical_probs(family: ObservationFamily, x) -> tuple[np.ndarray, np.ndarray, float]:
    """Kept-class probabilities p = mean(x), their complements 1 - p, and
    the probability of the dropped class.

    Each complement is summed from the weights of the other classes, so it
    keeps full relative precision where p rounds to 1.
    """
    x = _as_natural(family, x)
    if family.kind == BERNOULLI:
        q = _expit(-x.item())
        return np.array([_expit(x.item())]), np.array([q]), q
    logits = np.append(x, 0.0)  # the dropped class has logit 0
    weights = np.exp(logits - logits.max())
    total = weights.sum()
    others = _complements(logits.size).dot(weights)
    return weights[:-1] / total, others[:-1] / total, float(weights[-1] / total)


@functools.cache
def _complements(k: int) -> np.ndarray:
    """The read-only k x k matrix 1 - I, whose row i sums the weights of
    every class but i."""
    ones = 1.0 - np.eye(k)
    ones.flags.writeable = False
    return ones


def canonical_mean(family: ObservationFamily, x) -> np.ndarray:
    """Mean parameter at natural parameter x: expit(x), or the softmax of
    the logits x against the dropped class."""
    return _canonical_probs(family, x)[0]


def canonical_parts(
    family: ObservationFamily, x, stats
) -> tuple[np.ndarray, Callable[[], np.ndarray], Callable[[], np.ndarray]]:
    """The score T - mean(x) of sufficient statistics ``stats`` = T, one
    vector or one row per draw, then V(x) and its root S^T S = V(x)
    (:func:`_simplex_root`) as callables that build them, all from one
    evaluation of the probabilities p, 1 - p and p_K at natural parameter
    x.  An entry 1 of T takes 1 - p from the complements."""
    p, comp, last = _canonical_probs(family, x)
    return (
        np.where(np.asarray(stats) == 1.0, comp, -p),
        lambda: _variance(p, comp),
        lambda: _simplex_root(p, comp, last),
    )


def _variance(p: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """diag(p) - p p^T for kept-class probabilities p, with the diagonal
    p (1 - p) formed from their complements comp = 1 - p."""
    v = -p[:, None] * p  # (-p_i) p_j, the same number as -(p_i p_j)
    v.flat[:: p.size + 1] = p * comp
    return v


def whitener(family: ObservationFamily, yhat: np.ndarray) -> np.ndarray:
    """S^-T, S^T S = cov(T), at a mean yhat that :func:`check_mean` passed:
    the gaussian family's read-only L^-1, else the inverse of the transposed
    :func:`_simplex_root`, (I + q q^T / (s (1 + s))) diag(1/q) for q = sqrt(p)
    and s = sqrt(1 - sum(p)); for bernoulli, 1 / sqrt(p (1 - p))."""
    if family.kind == GAUSSIAN:
        return family.obs_whitener
    q = np.sqrt(yhat)
    s = math.sqrt(1.0 - yhat.sum())
    inv = np.outer(q, q / (s * (1.0 + s)))
    inv.flat[:: q.size + 1] += 1.0
    return inv / q


def _simplex_root(p: np.ndarray, comp: np.ndarray, last: float) -> np.ndarray:
    """S = (I - c q q^T) diag(q), with q = sqrt(p) and c = 1 / (1 + sqrt(last)),
    for kept-class probabilities p, their complements comp = 1 - p and the
    dropped class's probability ``last``: S^T S = diag(p) - p p^T, since
    (I - c q q^T)^2 = I - q q^T when |q|^2 = 1 - last.  For bernoulli S is
    sqrt(p (1 - p)).

    The diagonal q (1 - c p) is formed as c q (sqrt(last) + comp), from
    the complements, so S keeps its relative precision where a class
    saturates; no Cholesky factor is taken, as the covariance is singular
    there.
    """
    q = np.sqrt(p)
    s = math.sqrt(last)
    c = 1.0 / (1.0 + s)
    root = -c * (q[:, None] * p)
    root.flat[:: q.size + 1] = c * q * (s + comp)
    return root


def sample(family: ObservationFamily, yhat, rng: np.random.Generator, size: int | None = None):
    """Draw from p(. | yhat) using the supplied generator.

    With ``size=None`` returns a single observation in the family's native
    representation (vector for gaussian, integer label otherwise); with
    ``size=n`` returns a batch (n x dim array, or length-n integer array).

    Unlike the covariance, score and Fisher, sampling is defined on the
    closed domain: bernoulli and categorical means may sit on the boundary
    (entries in [0, 1] summing to at most 1), where some outcomes are sure.
    A sum a few ulps above 1, as rounding leaves it in a saturated softmax,
    gives the dropped class probability 0.
    """
    n = 1 if size is None else int(size)
    if family.kind == GAUSSIAN:
        yhat = check_mean(family, yhat)
        draws = yhat + rng.standard_normal((n, family.mean_dim)).dot(family.obs_factor.T)
        return draws[0] if size is None else draws
    yhat = _as_mean(family, yhat)
    total = yhat.sum()
    in_range = np.all(yhat >= 0.0) and np.all(yhat <= 1.0)
    if not (in_range and total <= 1.0 + yhat.size * np.finfo(float).eps):
        raise DomainError(f"{family.kind} mean must lie in [0, 1] and sum to at most 1")
    if family.kind == BERNOULLI:
        draws = (rng.random(n) < yhat[0]).astype(np.int64)
    else:
        probs = np.append(yhat, max(1.0 - total, 0.0))
        draws = rng.choice(family.num_classes, size=n, p=probs)
    return int(draws[0]) if size is None else draws

