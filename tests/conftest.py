import os

# One thread for every BLAS the suite or its CLI subprocesses load, set
# before numpy is first imported: on 2x2 algebra a helper thread only
# stalls when the other cores are busy.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from kalgrad import expfam, natgrad  # noqa: E402

# Every hypothesis test runs the same examples on every run, with no
# per-example deadline: a test's first example may pay for imports and
# caches, and wall times on a shared host vary.
settings.register_profile("kalgrad", derandomize=True, deadline=None)
settings.load_profile("kalgrad")


def random_spd(rng, dim, scale=1.0):
    """Well-conditioned random SPD matrix."""
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + dim * np.eye(dim))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def observe(update, mean, cov, y, model, family, t):
    """An ekf observation update fed as ekf.run feeds it: the sufficient
    statistics of the raw observation y and the model's input u_t."""
    stats = expfam.sufficient_stats(family, y)
    return update(mean, cov, stats, model, family, model.input_at(t), t)


def upper_factor(metric):
    """The upper-triangular U with U^T U = J of an SPD metric J."""
    return np.linalg.cholesky(metric).T


def gradient_metrics(trace):
    """The metrics J_t = U_t^T U_t of a natural-gradient trace, discrete or
    continuous."""
    return trace.factors.transpose(0, 2, 1) @ trace.factors


def natgrad_update(state, metric, y, model, family, eta_t, gamma_t, t):
    """natgrad.update fed as natgrad.run feeds it (see observe), on the
    factor of the metric J; returns the new state and metric U^T U."""
    stats = expfam.sufficient_stats(family, y)
    u = model.input_at(t)
    state, factor = natgrad.update(
        state, upper_factor(metric), stats, model, family, u, eta_t, gamma_t, t
    )
    return state, factor.T @ factor
