"""Dynamical-system definitions, built-in test systems, scenario synthesis,
and the one linearisation of an observation that every update reads.

A discrete model provides the transition ``f(s, u)``, the observation map
``h(s, u)`` returning the mean parameter of the observation family, their
Jacobians (analytic, or central differences as a fallback), and a
deterministic input path ``u_t`` indexed by t >= 1.

:func:`linearise` linearises sufficient statistics ``T`` in the natural
parameter theta of their family.  It returns ``B = d theta / d s`` and
the residual ``e = T - E[T]``, the score in the state being ``e B``, and
builds, only when called, ``C = cov(T)`` at the predicted mean for the
filter's Fisher ``B^T C B`` and a root ``S`` of ``C`` for the gradient
side's Fisher rows ``S B``.  Through the mean parameter the
observation is read whitened by ``S^-T`` for the square root ``S`` of
``cov(T)`` there: ``B = S^-T H``, ``C = I`` and ``e = (T - h) S^-1``,
with ``H`` the Jacobian of ``h`` (:func:`_whitened`); the observed value,
``h`` or the predictor, is tested before its Jacobian is taken, and a
central-difference Jacobian starts from it.  For a gaussian observation
``S^-T = L^-1`` for its covariance ``R = L L^T``; each continuous field
reads its path y(t) so in one call of :func:`_whitened_path`, which
takes the family's fixed ``L^-1`` as it is.  A model whose ``h`` is the
mean of a Bernoulli or categorical family at a linear predictor
``x = predictor(s, u)`` under the canonical link declares that family
kind and the predictor; there ``theta = x``, ``B`` is the
predictor Jacobian ``G`` and ``C = V(x)``, so the updates stay defined
where the mean rounds to the boundary of its domain and ``C`` is
singular.  This is the only place where that choice is made.

The built-in models return each Jacobian that does not depend on the
state (an identity, linear2d's rotation, the continuous models' ``H`` and
linear-ct's ``F``) as one shared read-only array, never a fresh copy;
code that needs to keep or change one copies it, as
:func:`kalgrad.natgrad.chart` does.

Scenarios pair a model with an observation family: the ground-truth
trajectory follows the noiseless dynamics exactly, and observations are
sampled from the family at the true predicted mean.  Randomness comes from
a counter-based Philox stream keyed by the scenario seed, so generation is
a pure function of (model, family, horizon, seed).  A scenario also
carries what both sides of a certificate read at each step: the inputs
u_t and the sufficient statistics T(y_t), computed, and the observations
validated, once when it is built.  The step functions take u_t as an
argument; none of them calls ``input_at`` or computes T(y).
:func:`run_sides` reads each row once for every side of a discrete run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import expfam
from .errors import NonFiniteError, NumericalError, OutOfSupportError, UnknownModelError, at_step
from .numerics import _finite, fd_jacobian

Array = np.ndarray
Map = Callable[[Array, Array], Array]


def _jacobian(analytic: Map | None, fn: Map, s: Array, u: Array, value) -> Array:
    """Jacobian of fn in s: the analytic one if given, central differences
    otherwise, started from ``value`` = fn(s, u) where the caller holds it
    (None where it does not)."""
    if analytic is not None:
        return np.asarray(analytic(s, u), dtype=float)
    return fd_jacobian(lambda v: fn(v, u), s, value)


@dataclass(frozen=True)
class DynamicalModel:
    """Discrete-time system s_t = f(s_{t-1}, u_t), yhat_t = h(s_t, u_t)."""

    name: str
    dim_state: int
    dim_input: int
    dim_obs: int
    f: Map
    h: Map
    inputs: Callable[[int], Array]
    init_state: Array
    jacobian_f: Map | None = None
    jacobian_h: Map | None = None
    # Canonical link: h(s, u) = expfam.canonical_mean(family, predictor(s, u))
    # for an observation family of kind ``link_family``.
    link_family: str | None = None
    predictor: Map | None = None
    jacobian_predictor: Map | None = None

    def input_at(self, t: int) -> Array:
        return np.asarray(self.inputs(t), dtype=float).reshape(self.dim_input)

    def canonical_link(self, family: expfam.ObservationFamily) -> bool:
        """Whether observations from ``family`` go through the linear predictor."""
        return self.predictor is not None and family.kind == self.link_family

    # Each Jacobian takes the value of its map at (s, u) where the caller
    # holds it, so that the central-difference fallback does not evaluate
    # the map there again.
    def jac_predictor(self, s: Array, u: Array, value: Array | None = None) -> Array:
        return _jacobian(self.jacobian_predictor, self.predictor, s, u, value)

    def jac_f(self, s: Array, u: Array, value: Array | None = None) -> Array:
        return _jacobian(self.jacobian_f, self.f, s, u, value)

    def jac_h(self, s: Array, u: Array, value: Array | None = None) -> Array:
        return _jacobian(self.jacobian_h, self.h, s, u, value)


@dataclass(frozen=True)
class ContinuousModel:
    """Continuous-time system ds/dt = f(s, u_t), observed through h plus noise.

    ``family`` is the gaussian family of the fixed observation noise R,
    checked and factored once, and ``obs_path`` is a smooth observation
    signal y(t) used by the continuous filters.
    """

    name: str
    dim_state: int
    dim_input: int
    dim_obs: int
    f: Map
    h: Map
    input_fn: Callable[[float], Array]
    family: expfam.ObservationFamily
    obs_path: Callable[[float], Array]
    init_state: Array
    jacobian_f: Map | None = None
    jacobian_h: Map | None = None

    def __post_init__(self) -> None:
        if self.family.kind != expfam.GAUSSIAN or self.family.mean_dim != self.dim_obs:
            raise ValueError(f"{self.name}: needs a gaussian family of dimension {self.dim_obs}")

    def input_at(self, t: float) -> Array:
        return np.asarray(self.input_fn(t), dtype=float).reshape(self.dim_input)

    def jac_f(self, s: Array, u: Array, value: Array | None = None) -> Array:
        return _jacobian(self.jacobian_f, self.f, s, u, value)

    def jac_h(self, s: Array, u: Array, value: Array | None = None) -> Array:
        return _jacobian(self.jacobian_h, self.h, s, u, value)


@dataclass(frozen=True)
class Scenario:
    """Ground-truth trajectory plus sampled observations for one model/family,
    with the per-step data that both sides of a certificate read.

    ``inputs`` holds the input path u_1..u_T (row t-1 is u_t) and
    ``stats`` the sufficient statistics T(y_1)..T(y_T) of the
    observations.  Both are read-only arrays, made from the model and the
    observations when the scenario is built, which validates each
    observation once.  An observation outside the family's support raises
    OutOfSupportError naming its t.
    """

    model: DynamicalModel
    family: expfam.ObservationFamily
    true_states: Array  # (T+1, dim_state), noiseless
    observations: list  # length T; vectors or integer labels per family
    seed: int
    inputs: Array = field(init=False, repr=False)  # (T, dim_input)
    stats: Array = field(init=False, repr=False)  # (T, family.mean_dim)

    def __post_init__(self) -> None:
        horizon, model = len(self.observations), self.model
        inputs = np.empty((horizon, model.dim_input))
        for t in range(1, horizon + 1):
            inputs[t - 1] = model.input_at(t)
        stats = np.empty((horizon, self.family.mean_dim))
        for t, y in enumerate(self.observations, start=1):
            try:
                stats[t - 1] = expfam.sufficient_stats(self.family, y)
            except OutOfSupportError as exc:
                raise at_step(exc, t)
        inputs.flags.writeable = stats.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "stats", stats)

    @property
    def horizon(self) -> int:
        return len(self.observations)

    def obs(self, t: int):
        """Observation y_t for 1 <= t <= T.  The library reads ``stats``;
        certbench's reference filter reads this."""
        return self.observations[t - 1]


@dataclass(frozen=True)
class Trace:
    """Estimates of one run, stacked over its rows t = 0..T (row 0 is the
    prior): the filters fill ``covs``, and the natural gradient, in either
    time domain, ``factors``, the upper-triangular U_t of its metric
    J_t = U_t^T U_t.

    ``etas`` is the co-integrated learning rate of a continuous gradient
    run, and ``times`` the grid times of a continuous run.
    """

    states: Array  # (T+1, dim_state)
    covs: Array | None = None  # (T+1, dim_state, dim_state)
    factors: Array | None = None  # (T+1, dim_state, dim_state)
    etas: Array | None = None  # (T+1,)
    times: Array | None = None  # (T+1,)


def run_sides(sides: Sequence[tuple], scenario: Scenario) -> list[Trace]:
    """Step the sides of a discrete run together.  A side is (kind, s_0,
    M_0, step): kind ``filter`` with M = P or ``gradient`` with M = U, and
    ``step(t, u_t, T(y_t))`` moving it from step t-1 to t and returning
    its (s, M), so a side runs once.  At each t, row t-1 of the scenario's
    ``inputs`` and ``stats`` is read once and every side steps, in order;
    returns one Trace per side.  A numerical error at step t gets ``side``
    set to the kind of the side that raised it, the first in order within
    that step, and ``traces`` set to one Trace per side over the rows
    0..t-1 that every side completed."""
    rows = scenario.horizon + 1
    lanes = []
    for kind, state, matrix, step in sides:
        states, mats = np.empty((rows,) + state.shape), np.empty((rows,) + matrix.shape)
        states[0], mats[0] = state, matrix
        lanes.append((kind, step, states, mats))
    fields = {"filter": "covs", "gradient": "factors"}

    def traces(end: int) -> list[Trace]:
        return [Trace(states[:end], **{fields[kind]: mats[:end]}) for kind, _, states, mats in lanes]

    # An overflow fails the finiteness check of its step; numpy's warnings are off.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t, (u, stats) in enumerate(zip(scenario.inputs, scenario.stats), start=1):
                for kind, step, states, mats in lanes:
                    states[t], mats[t] = step(t, u, stats)
    except NumericalError as exc:
        exc.side, exc.traces = kind, traces(t)
        raise
    return traces(rows)


class Linearisation(NamedTuple):
    """One observation linearised in the natural parameter theta of its
    family, at a predicted state.

    ``jac`` is B = d theta / d s and ``residual`` is e = T - E[T] for the
    sufficient statistics T it was made with, one vector or one row per
    draw, both in whitened coordinates off a canonical link
    (:func:`_whitened`).  The score of T in the state is
    ``residual @ jac``.  ``cov()`` is C = cov(T) at the predicted mean and
    ``root()`` a square root S of C, S^T S = C, each made only when called,
    so that the Fisher information is ``jac.T @ cov() @ jac`` or W^T W for
    the rows W = S B.  Off a canonical link both return the shared
    read-only ``_identity(k)`` itself, which a step recognises by identity
    and never multiplies by.
    """

    jac: Array
    residual: Array
    cov: Callable[[], Array]
    root: Callable[[], Array]


@functools.cache
def _identity(n: int) -> Array:
    """The read-only n x n identity."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.cache
def _whitened_cov(n: int) -> Callable[[], Array]:
    """The ``cov`` and ``root`` of every whitened linearisation of dimension n."""
    return functools.partial(_identity, n)


def _whitened(
    family: expfam.ObservationFamily, mean: Array, h_jac: Array, stats: Array
) -> tuple[Array, Array]:
    """B = S^-T H and e = (T - h) S^-1 for sufficient statistics ``stats``
    = T of an observation with mean ``mean`` = h(s, u), as
    :func:`expfam.check_mean` returned it, Jacobian ``h_jac`` = H and
    S^-T = :func:`expfam.whitener`'s."""
    whitener = expfam.whitener(family, mean)
    return whitener.dot(h_jac), (stats - mean).dot(whitener.T)


def _whitened_path(model: ContinuousModel, s: Array, u: Array, y: Array) -> tuple[Array, Array]:
    """B = L^-1 H and e = (y - h) L^-T for the observation y = y(t) of a
    continuous model at (s, u), with R = L L^T the covariance of its
    gaussian family: :func:`_whitened` with the family's fixed L^-1 read
    directly, after h(s, u) has passed :func:`expfam.check_mean`."""
    mean = expfam.check_mean(model.family, model.h(s, u))
    whitener = model.family.obs_whitener
    return whitener.dot(model.jac_h(s, u, mean)), (y - mean).dot(whitener.T)


def linearise(
    model: DynamicalModel, family: expfam.ObservationFamily, s: Array, u: Array, stats: Array, t: int
) -> Linearisation:
    """Linearise the observation of ``family`` with sufficient statistics
    ``stats`` = T(y_t) at state ``s``, input ``u`` = u_t and time t, which a
    numerical error raised here names.

    Under a declared canonical link, theta is the linear predictor x:
    B = G, and the residual, C = V(x) and the root of C are
    :func:`expfam.canonical_parts` at x.  Otherwise theta is read
    through the mean h(s, u) with Jacobian H, whitened
    (:func:`_whitened`): B = S^-T H, e = (T - h) S^-1 and C = S = I, the
    shared identity, so e B = (T - h) cov(T)^-1 H and B^T C B =
    H^T cov(T)^-1 H with no solve with cov(T).  Either tests the observed
    value, x (:func:`expfam.canonical_parts`) or h(s, u)
    (:func:`expfam.check_mean`), once, before its Jacobian is taken, and a
    central-difference H starts from h.
    """
    try:
        if model.canonical_link(family):
            x = model.predictor(s, u)
            parts = expfam.canonical_parts(family, x, stats)
            return Linearisation(model.jac_predictor(s, u, x), *parts)
        mean = expfam.check_mean(family, model.h(s, u))
        jac, residual = _whitened(family, mean, model.jac_h(s, u, mean), stats)
    except NumericalError as exc:
        raise at_step(exc, t)
    eye = _whitened_cov(family.mean_dim)
    return Linearisation(jac, residual, eye, eye)


def step_dynamics(model: DynamicalModel, s: Array, u: Array, t: int) -> Array:
    """Advance the noiseless dynamics one step: f(s, u), with u = u_t."""
    out = np.asarray(model.f(np.asarray(s, dtype=float), u), dtype=float)
    if not _finite(out):
        raise NonFiniteError(f"transition produced non-finite state at t = {t}")
    return out


def generate_scenario(
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    horizon: int,
    seed: int,
) -> Scenario:
    """Simulate the noiseless trajectory and draw observations at each step.

    Deterministic given the seed: the observation stream is a Philox
    generator keyed by it.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = np.zeros((horizon + 1, model.dim_state))
    states[0] = np.asarray(model.init_state, dtype=float)
    observations = []
    for t in range(1, horizon + 1):
        u = model.input_at(t)
        states[t] = step_dynamics(model, states[t - 1], u, t)
        try:
            observations.append(expfam.sample(family, model.h(states[t], u), rng))
        except NumericalError as exc:
            raise at_step(exc, t)
    return Scenario(
        model=model,
        family=family,
        true_states=states,
        observations=observations,
        seed=seed,
    )


# --- built-in systems ----------------------------------------------------

_TANH_COUPLING = np.array([[0.0, 1.0], [-1.0, -0.5]])  # spectral norm ~1.28 < 2
_TANH_GAIN = 0.1  # keeps ||dF - I|| <= gain * ||coupling|| < 1, so F stays invertible

_ROT = 0.99 * np.array(
    [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
)
_PENDULUM_H = np.array([[1.0, 0.0]])  # pendulum-ct observes the angle
_LINEAR_CT_F = np.array([[-0.3]])
# Returned as Jacobians to every caller, so none may write into them.
_ROT.flags.writeable = _PENDULUM_H.flags.writeable = _LINEAR_CT_F.flags.writeable = False

_EMPTY = np.zeros(0)


def _static_inputs(t: int) -> Array:
    return np.array([np.cos(0.7 * t + 0.3), np.sin(1.3 * t - 0.2)])


def _logistic_inputs(t: int) -> Array:
    return np.array([np.cos(0.9 * t + 0.5), np.sin(0.6 * t - 0.8)])


def _make_static() -> DynamicalModel:
    return DynamicalModel(
        name="static",
        dim_state=2,
        dim_input=2,
        dim_obs=1,
        f=lambda s, u: s,
        h=lambda s, u: np.array([s.dot(u)]),
        jacobian_f=lambda s, u: _identity(2),
        jacobian_h=lambda s, u: u[None, :].copy(),
        inputs=_static_inputs,
        init_state=np.array([0.8, -0.5]),
    )


def _make_linear2d() -> DynamicalModel:
    return DynamicalModel(
        name="linear2d",
        dim_state=2,
        dim_input=0,
        dim_obs=2,
        f=lambda s, u: _ROT.dot(s),
        h=lambda s, u: s.copy(),
        jacobian_f=lambda s, u: _ROT,
        jacobian_h=lambda s, u: _identity(2),
        inputs=lambda t: _EMPTY,
        init_state=np.array([1.0, 0.0]),
    )


def _tanhspring_f(s: Array, u: Array) -> Array:
    return s + _TANH_GAIN * np.tanh(_TANH_COUPLING.dot(s))


def _tanhspring_jac(s: Array, u: Array) -> Array:
    gain = 1.0 - np.tanh(_TANH_COUPLING.dot(s)) ** 2
    return _identity(2) + _TANH_GAIN * gain[:, None] * _TANH_COUPLING


def _make_tanhspring() -> DynamicalModel:
    # Full-state observation: a fixed rank-one h would leave one direction
    # of the Fisher metric fed only through the weak dynamics coupling,
    # which turns ill-conditioned under strong fading.
    return DynamicalModel(
        name="tanhspring",
        dim_state=2,
        dim_input=0,
        dim_obs=2,
        f=_tanhspring_f,
        h=lambda s, u: s.copy(),
        jacobian_f=_tanhspring_jac,
        jacobian_h=lambda s, u: _identity(2),
        inputs=lambda t: _EMPTY,
        init_state=np.array([1.0, -1.0]),
    )


def _logistic_predictor(s: Array, u: Array) -> Array:
    return np.array([s.dot(u)])


def _logistic_h(s: Array, u: Array) -> Array:
    return np.array([expfam._expit(s.dot(u))])


def _logistic_jac_h(s: Array, u: Array) -> Array:
    p = expfam._expit(s.dot(u))
    return (p * (1.0 - p)) * u[None, :]


def _make_logistic_static() -> DynamicalModel:
    return DynamicalModel(
        name="logistic-static",
        dim_state=2,
        dim_input=2,
        dim_obs=1,
        f=lambda s, u: s,
        h=_logistic_h,
        jacobian_f=lambda s, u: _identity(2),
        jacobian_h=_logistic_jac_h,
        inputs=_logistic_inputs,
        init_state=np.array([1.2, -0.7]),
        link_family=expfam.BERNOULLI,
        predictor=_logistic_predictor,
        jacobian_predictor=lambda s, u: u[None, :].copy(),
    )


def _make_pendulum_ct() -> ContinuousModel:
    return ContinuousModel(
        name="pendulum-ct",
        dim_state=2,
        dim_input=0,
        dim_obs=1,
        f=lambda s, u: np.array([s[1], -math.sin(s[0])]),
        h=lambda s, u: s[:1].copy(),
        jacobian_f=lambda s, u: np.array([[0.0, 1.0], [-math.cos(s[0]), 0.0]]),
        jacobian_h=lambda s, u: _PENDULUM_H,
        input_fn=lambda t: _EMPTY,
        family=expfam.gaussian(np.eye(1)),
        obs_path=lambda t: np.array([1.2 * np.cos(0.9 * t) + 0.1 * np.sin(2.3 * t)]),
        init_state=np.array([0.8, 0.0]),
    )


def _make_linear_ct() -> ContinuousModel:
    return ContinuousModel(
        name="linear-ct",
        dim_state=1,
        dim_input=0,
        dim_obs=1,
        f=lambda s, u: -0.3 * s,
        h=lambda s, u: s.copy(),
        jacobian_f=lambda s, u: _LINEAR_CT_F,
        jacobian_h=lambda s, u: _identity(1),
        input_fn=lambda t: _EMPTY,
        family=expfam.gaussian(np.eye(1)),
        obs_path=lambda t: np.array([0.9 * np.exp(-0.3 * t) + 0.05 * np.sin(2.0 * t)]),
        init_state=np.array([1.0]),
    )


_BUILTINS: dict[str, Callable[[], DynamicalModel | ContinuousModel]] = {
    "static": _make_static,
    "linear2d": _make_linear2d,
    "tanhspring": _make_tanhspring,
    "logistic-static": _make_logistic_static,
    "pendulum-ct": _make_pendulum_ct,
    "linear-ct": _make_linear_ct,
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> DynamicalModel | ContinuousModel:
    """Return a registered built-in model by name."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownModelError(
            f"unknown model {name!r}; available: {', '.join(builtin_names())}"
        ) from None
    return factory()
