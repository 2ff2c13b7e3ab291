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
(:func:`kalgrad.model.mean_linearisation`).

Bernoulli and categorical also take the natural parameter ``x`` (the
logits, the linear predictor of a model with the canonical link), where
``yhat = mean(x)`` and ``d yhat / d x = V(x) = cov(T)``.  In ``x`` the
Fisher is ``V(x)`` and the score ``T(y) - mean(x)``, both finite for
every finite ``x``, even where ``mean(x)`` rounds to the boundary.
:func:`canonical_variance`, :func:`canonical_residual` and
:func:`canonical_root` (S with S^T S = V(x), by the same simplex root)
compute them without forming ``1 - yhat`` by subtraction.

Categorical distributions keep K-1 free coordinates (probabilities of the
first K-1 classes) so the covariance stays invertible; the full-simplex
parameterization would be singular.  Their natural parameter is the K-1
logits against the dropped class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtrtri
from scipy.special import expit

from .errors import DomainError, NonFiniteError, OutOfSupportError, SingularMatrixError
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import _factor_psd, solve_psd, symmetrize  # noqa: F401

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
    Neither can be set.
    """

    kind: str
    obs_cov: np.ndarray | None = None  # gaussian: fixed covariance of y
    num_classes: int | None = None  # categorical: K >= 2
    obs_factor: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    obs_whitener: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
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

    @property
    def mean_dim(self) -> int:
        if self.kind == GAUSSIAN:
            return self.obs_cov.shape[0]
        if self.kind == BERNOULLI:
            return 1
        return self.num_classes - 1


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
    yhat = np.atleast_1d(np.asarray(yhat, dtype=float))
    if yhat.shape != (family.mean_dim,):
        raise ValueError(
            f"mean parameter must have shape ({family.mean_dim},), got {yhat.shape}"
        )
    return yhat


def check_mean(family: ObservationFamily, yhat) -> np.ndarray:
    """Validate that yhat lies strictly inside the family's mean domain."""
    yhat = _as_mean(family, yhat)
    if not np.isfinite(yhat).all():
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
        t = np.atleast_1d(np.asarray(y, dtype=float))
        if t.shape != (family.mean_dim,):
            raise OutOfSupportError(
                f"gaussian observation must have dimension {family.mean_dim}"
            )
        if not np.isfinite(t).all():
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
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (family.mean_dim,):
        raise ValueError(
            f"natural parameter must have shape ({family.mean_dim},), got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise DomainError(f"{family.kind} natural parameter must be finite")
    return x


def _canonical_probs(family: ObservationFamily, x) -> tuple[np.ndarray, np.ndarray, float]:
    """Kept-class probabilities p = mean(x), their complements 1 - p, and
    the probability of the dropped class.

    Each complement is summed from the weights of the other classes, so it
    keeps full relative precision where p rounds to 1.
    """
    x = _as_natural(family, x)
    if family.kind == BERNOULLI:
        q = expit(-x)
        return expit(x), q, float(q[0])
    logits = np.append(x, 0.0)  # the dropped class has logit 0
    weights = np.exp(logits - logits.max())
    total = weights.sum()
    others = (1.0 - np.eye(logits.size)) @ weights
    return weights[:-1] / total, others[:-1] / total, float(weights[-1] / total)


def canonical_mean(family: ObservationFamily, x) -> np.ndarray:
    """Mean parameter at natural parameter x: expit(x), or the softmax of
    the logits x against the dropped class."""
    return _canonical_probs(family, x)[0]


def canonical_variance(family: ObservationFamily, x) -> np.ndarray:
    """cov(T) at natural parameter x, which is also d mean / d x and the
    Fisher information with respect to x.

    Bernoulli: expit(x) expit(-x).  Categorical: diag(p (1 - p)) - p p^T
    off the diagonal.  Finite, and possibly zero, for every finite x.
    """
    p, q, _ = _canonical_probs(family, x)
    v = -np.outer(p, p)
    np.fill_diagonal(v, p * q)
    return v


def canonical_residual(family: ObservationFamily, stats, x) -> np.ndarray:
    """T(y) - mean(x): the score with respect to the natural parameter.

    ``stats`` holds sufficient statistics T(y), one vector or one row per
    draw.  Their entries are 0 or 1, and an entry 1 - p is taken from the
    complements rather than by subtraction.
    """
    p, q, _ = _canonical_probs(family, x)
    return np.where(np.asarray(stats) == 1.0, q, -p)


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


def canonical_root(family: ObservationFamily, x) -> np.ndarray:
    """A square root S of cov(T) = V(x) at natural parameter x,
    S^T S = V(x); see :func:`_simplex_root`.  Finite for every finite x,
    and 0 where the mean saturates."""
    return _simplex_root(*_canonical_probs(family, x))


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
    root = -c * np.outer(q, p)
    np.fill_diagonal(root, c * q * (s + comp))
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
        draws = yhat + rng.standard_normal((n, family.mean_dim)) @ family.obs_factor.T
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

