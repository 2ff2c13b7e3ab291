import numpy as np
import pytest

from kalgrad import expfam, natgrad


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


def natgrad_update(state, metric, y, model, family, eta_t, gamma_t, t):
    """natgrad.update fed as natgrad.run feeds it (see observe)."""
    stats = expfam.sufficient_stats(family, y)
    return natgrad.update(state, metric, stats, model, family, model.input_at(t), eta_t, gamma_t, t)
