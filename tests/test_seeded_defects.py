"""Seeded defects: is the discrete certificate able to see a wrong algorithm?

Each defect breaks one ingredient of the fading-EKF / natural-gradient
identity and is patched in for the test only.  The criterion-1 sweep grid
(every sweep model under every fading schedule, 3 scenario seeds, T = 50)
runs under each defect, and a cell fails when ``check_discrete`` misses its
1e-8 tolerance or aborts.  Every defect must fail some cell, and every
sweep model must fail under some defect, or that model checks nothing the
others do not.
"""

import math

import numpy as np
import pytest
from scipy.linalg import qr, solve_triangular

from kalgrad import ekf, natgrad
from kalgrad.equivalence import SWEEP_MODELS, check_discrete, sweep_cell, sweep_schedules
from kalgrad.ekf import transition
from kalgrad.errors import NumericalError
from kalgrad.model import linearise

HORIZON = 50
SEEDS = 3


def _pre_blend_update(state, factor, stats, model, family, u, eta_t, gamma_t, t):
    # The natural step reads the transported metric, not the blended one.
    lin = linearise(model, family, state, u, stats, t)
    score_state = lin.residual @ lin.jac
    rows = np.vstack(
        (math.sqrt(1.0 - gamma_t) * factor, math.sqrt(gamma_t) * natgrad.fisher_rows(lin))
    )
    blended = qr(rows, mode="r")[0][: factor.shape[0]]
    half = solve_triangular(factor, score_state, trans="T")
    return state + eta_t * solve_triangular(factor, half), blended


def _squared_inflation(mean, cov, model, u, t, alpha_t):
    # (1 + alpha)^2 F P F^T in place of (1 + alpha) F P F^T.
    return transition(mean, cov, model, u, t, (1.0 + alpha_t) ** 2 - 1.0)


# Each defect with the cells it must fail: the transport defects can fail
# only where F is not I, the inflation defect only where alpha is not 0.
DEFECTS = {
    "pre-blend metric": (natgrad, "update", _pre_blend_update, lambda name, label: True),
    # J -> F J F^T is U -> U F^T.
    "transport F J F^T": (
        natgrad, "pushforward_metric", lambda factor, change: factor @ change.jac.T,
        lambda name, label: name in ("linear2d", "tanhspring"),
    ),
    # J -> F^T J F is U -> U F.
    "transport F^T J F": (
        natgrad, "pushforward_metric", lambda factor, change: factor @ change.jac,
        lambda name, label: name in ("linear2d", "tanhspring"),
    ),
    "(1 + alpha)^2 inflation": (
        ekf, "transition", _squared_inflation, lambda name, label: label != "alpha=0"
    ),
}


def _failed_cells() -> set[tuple[str, str, int]]:
    """The (model, schedule, seed) cells of the grid that miss or abort."""
    failed = set()
    for name in SWEEP_MODELS:
        for seed in range(SEEDS):
            scenario, s0, p0 = sweep_cell(name, HORIZON, seed)
            for label, alpha in sweep_schedules(HORIZON).items():
                try:
                    passed = check_discrete(scenario, s0, p0, alpha).passed
                except NumericalError:
                    passed = False
                if not passed:
                    failed.add((name, label, seed))
    return failed


@pytest.fixture(scope="module")
def failures() -> dict[str | None, set[tuple[str, str, int]]]:
    out = {None: _failed_cells()}
    for defect, (module, attr, broken, _) in DEFECTS.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, attr, broken)
            out[defect] = _failed_cells()
    return out


def test_the_sound_library_passes_every_cell(failures):
    assert failures[None] == set()


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_defect_fails_some_cell(defect, failures):
    assert failures[defect]


@pytest.mark.parametrize(
    "defect, count",
    [("pre-blend metric", 48), ("transport F J F^T", 24), ("transport F^T J F", 24),
     ("(1 + alpha)^2 inflation", 36)],
)
def test_each_defect_fails_exactly_its_cells(defect, count, failures):
    catches = DEFECTS[defect][3]
    expected = {
        (name, label, seed)
        for name in SWEEP_MODELS
        for label in sweep_schedules(HORIZON)
        for seed in range(SEEDS)
        if catches(name, label)
    }
    assert len(expected) == count
    assert failures[defect] == expected


def test_each_sweep_model_fails_under_some_defect(failures):
    caught = {name for defect in DEFECTS for name, _, _ in failures[defect]}
    assert caught == set(SWEEP_MODELS)
