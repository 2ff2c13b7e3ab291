"""Online natural gradient descent in the moving chart of a dynamical system.

The trajectory being estimated is represented, at time t, by its state in
the chart "value at time t".  Advancing the chart by one step pushes the
value through the dynamics and transforms the Fisher metric as a (0,2)
tensor, J <- F^-T J F^-1.  The metric is carried as an upper-triangular
factor U with J = U^T U, the square-root information filter's form
(Bierman 1977; Kaminski, Bryson and Schmidt 1971):

    s   <- f(s, u_t)
    U   <- U F^-1                   (chart transport)
    U_t <- R of the QR of [sqrt(1 - gamma_t) U; sqrt(gamma_t) W_t]
    s   <- s + eta_t U_t^-1 U_t^-T (d log p(y_t | s) / d s)^T

so that J_t = (1 - gamma_t) J + gamma_t * Fisher_t.  Summing the Fisher
into a dense J instead rounds it away once cond(J) nears 1/eps times the
Fisher's share; the factor keeps it.

The score and the Fisher come from the one linearisation of
:func:`kalgrad.model.linearise` (B = d theta / d s, e = T(y) - E[T]):
the score in the state is e B and the Fisher the exact per-observation
Fisher B^T C B = W^T W, with the rows W = S B for the square root S of
C = cov(T) at the predicted mean built by its ``root()`` (never C, nor
a Cholesky factor of C, which is singular where a canonical mean
saturates).  The tests check it against a Monte Carlo average of score
outer products.

Every step function takes and returns plain arrays: the state s in the
current chart and the factor U there.  The eta and gamma schedules are
plain arrays too: :func:`side` normalises them once and hands each update
its floats eta_t and gamma_t.  As on the filter side, step t reads the
input u_t and the sufficient statistics T(y_t) from the scenario's
``inputs`` and ``stats``, handed to it by :func:`kalgrad.model.run_sides`.
A chart change is checked and LU-factored once per distinct Jacobian
(:func:`chart`): the side keeps the last one, so a linear model's
constant F is checked and factored once per run.  Its
condition number comes from one LAPACK ``dgesdd`` call, the one
``np.linalg.cond`` makes; the blend is one ``dgeqrf`` and the step two
``dtrtrs`` solves.

The continuous flow (:mod:`kalgrad.bucy`) carries the same factor, from
the same prior factor, Fisher rows and triangular solves for J^-1 g.

For static dynamics (f = Id) the chart never moves and the scheme reduces
to the ordinary online natural gradient; the tests keep a chartless dense
implementation of it as the reference for that reduction.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgeqrf, dgesdd, dgetrf, dgetrs, dtrtrs

from . import expfam
from .errors import NonFiniteError, NumericalError, SingularMatrixError, at_step
from .model import DynamicalModel, Linearisation, Scenario, Trace, linearise, run_sides, step_dynamics
# solve_psd is not called here; certbench's tests read this module's copy.
from .numerics import _finite, _prior_factor, schedule, solve_psd  # noqa: F401

# Chart changes with condition numbers beyond this are treated as singular:
# the trajectory chart is no longer well-defined.
_COND_LIMIT = 1e12


class Chart(NamedTuple):
    """A checked chart change: its Jacobian psi (a private copy) and the LU
    factors of psi^T, as LAPACK ``dgetrf`` returns them."""

    jac: np.ndarray
    lu: np.ndarray
    piv: np.ndarray


def chart(psi: np.ndarray) -> Chart:
    """Check the chart change with Jacobian psi and LU-factor psi^T.

    One singular-value decomposition of psi gives its 2-norm condition
    number s_max / s_min (the value ``np.linalg.cond`` returns) for the
    singularity check; one LU factorization of psi^T then serves every
    transport through psi.

    Raises
    ------
    NonFiniteError
        If psi holds an inf or nan.
    SingularMatrixError
        If psi is numerically singular (condition estimate above 1e12).
    """
    psi = np.array(psi, dtype=float)
    if not _finite(psi):
        raise NonFiniteError("chart-change Jacobian has non-finite entries")
    cond = _condition(psi)
    if not cond <= _COND_LIMIT:
        raise SingularMatrixError(
            f"chart-change Jacobian condition estimate {cond:.3e} exceeds {_COND_LIMIT:.0e}"
        )
    lu, piv, info = dgetrf(psi.T)
    if info:
        raise SingularMatrixError("chart-change Jacobian has an exactly singular LU factor")
    return Chart(psi, lu, piv)


def _condition(psi: np.ndarray) -> float:
    """2-norm condition number s_max / s_min of a finite square psi from
    one SVD, LAPACK ``dgesdd`` without singular vectors as
    ``np.linalg.cond`` calls it, and the same number; inf where s_min is 0."""
    s, info = dgesdd(psi, compute_uv=0)[1::2]
    if info:
        raise SingularMatrixError("chart-change Jacobian SVD did not converge")
    return float(s[0]) / float(s[-1]) if s[-1] else math.inf


def pushforward_metric(factor: np.ndarray, change: Chart) -> np.ndarray:
    """Transform the factor U of a (0,2) tensor J = U^T U under a checked
    chart change with Jacobian psi: returns U psi^-1, a factor of
    psi^-T J psi^-1 (not triangular), from one solve psi^T X = U^T on the
    kept LU of psi^T."""
    return dgetrs(change.lu, change.piv, factor.T)[0].T


def chart_transport(
    state: np.ndarray,
    factor: np.ndarray,
    model: DynamicalModel,
    u: np.ndarray,
    t: int,
    kept: Chart | None,
) -> tuple[np.ndarray, np.ndarray, Chart]:
    """Move the state and metric factor from the chart at t-1 to the chart
    at t, at input ``u`` = u_t; returns (f(s, u), U F^-1, the chart of F).

    ``kept`` is the chart of the previous step, or None; it is reused when
    F has its shape and bytes, and otherwise F is checked and factored
    again.  A numerical error raised here names the step.
    """
    value = step_dynamics(model, state, u, t)
    try:
        psi = model.jac_f(state, u, value)
        if kept is None or kept.jac.shape != psi.shape or kept.jac.tobytes() != psi.tobytes():
            kept = chart(psi)
        return value, pushforward_metric(factor, kept), kept
    except NumericalError as exc:
        raise at_step(exc, t)


def fisher_rows(lin: Linearisation) -> np.ndarray:
    """Rows W = S B with W^T W = B^T C B, the per-observation Fisher, for
    the square root S of C that the linearisation carries."""
    return lin.root().dot(lin.jac)


@functools.cache
def _upper(n: int) -> np.ndarray:
    """The 0/1 mask of the upper triangle of an n x n matrix."""
    return np.triu(np.ones((n, n)))


def update(
    state: np.ndarray,
    factor: np.ndarray,
    stats: np.ndarray,
    model: DynamicalModel,
    family: expfam.ObservationFamily,
    u: np.ndarray,
    eta_t: float,
    gamma_t: float,
    t: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend the Fisher term of an observation with sufficient statistics
    ``stats`` = T(y_t) at input ``u`` = u_t into the metric with weight
    gamma_t and take one natural step of rate eta_t; returns the new
    (state, upper-triangular factor).

    Expects ``state`` and ``factor`` already transported to the chart at
    time t.  The blend is the R factor of one QR of the stacked rows, the
    step two triangular solves with it.

    Raises
    ------
    SingularMatrixError
        If the blended factor has an exactly zero diagonal entry.
    NonFiniteError
        If the blended factor or the step holds an inf or nan.
    """
    lin = linearise(model, family, state, u, stats, t)
    score_state = lin.residual.dot(lin.jac)
    n = factor.shape[0]
    rows = np.concatenate(
        (math.sqrt(1.0 - gamma_t) * factor, math.sqrt(gamma_t) * fisher_rows(lin))
    )
    factor = dgeqrf(rows)[0][:n] * _upper(n)
    half, info = dtrtrs(factor, score_state, trans=1)
    if info:
        raise SingularMatrixError(f"blended metric factor is singular at t = {t}")
    step = dtrtrs(factor, half)[0]
    if not (_finite(factor) and _finite(step)):
        raise NonFiniteError(f"natural-gradient update non-finite at t = {t}")
    return state + eta_t * step, factor


def side(scenario: Scenario, eta, gamma, init_state, init_metric) -> tuple:
    """The gradient side of :func:`kalgrad.model.run_sides` from the state
    ``init_state`` and J_0 = ``init_metric``, factored once and refused by
    name, under ``eta`` and ``gamma``, normalised once.  Its step is
    :func:`chart_transport`, keeping the last chart, and :func:`update`,
    both looked up in this module at each call."""
    eta = schedule("eta", eta, scenario.horizon).tolist()
    gamma = schedule("gamma", gamma, scenario.horizon).tolist()
    model, family = scenario.model, scenario.family
    state = np.asarray(init_state, dtype=float)
    factor = _prior_factor(init_metric, "prior metric J_0").T
    kept = None

    def step(t, u, stats):
        nonlocal state, factor, kept
        state, factor, kept = chart_transport(state, factor, model, u, t, kept)
        state, factor = update(state, factor, stats, model, family, u, eta[t - 1], gamma[t - 1], t)
        return state, factor

    return "gradient", state, factor, step


def run(
    scenario: Scenario,
    eta,
    gamma,
    init_state,
    init_metric,
) -> Trace:
    """Run the chart-based online natural gradient over a scenario under
    the rate schedule ``eta`` and the metric-averaging schedule ``gamma``
    (each a scalar, or one entry or one per step; see
    :func:`kalgrad.numerics.schedule`) from the prior metric J_0 =
    ``init_metric``; returns the states and the metric factors U_t
    (J_t = U_t^T U_t) in the chart at each t, row 0 the prior.  Step t
    reads row t-1 of the scenario's ``inputs`` and ``stats``: this is
    :func:`side` alone through :func:`kalgrad.model.run_sides`.
    """
    return run_sides([side(scenario, eta, gamma, init_state, init_metric)], scenario)[0]
