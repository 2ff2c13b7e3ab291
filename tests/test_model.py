import collections
import dataclasses

import numpy as np
import pytest

from kalgrad import bucy, ekf, expfam, natgrad
from kalgrad.equivalence import check_continuous
from kalgrad.errors import DomainError, OutOfSupportError, UnknownModelError
from kalgrad.model import (
    ContinuousModel,
    DynamicalModel,
    Scenario,
    builtin,
    builtin_names,
    generate_scenario,
    linearise,
    step_dynamics,
)
from kalgrad.numerics import fd_jacobian

from oracles import canonical_variance

DISCRETE = ["static", "linear2d", "tanhspring", "logistic-static"]
CONTINUOUS = ["pendulum-ct", "linear-ct"]


def default_family(model):
    if model.name == "logistic-static":
        return expfam.bernoulli()
    return expfam.gaussian(0.25 * np.eye(model.dim_obs))


class TestBuiltins:
    def test_names_sorted(self):
        names = builtin_names()
        assert names == sorted(names)
        assert set(DISCRETE + CONTINUOUS) == set(names)

    def test_unknown_raises(self):
        with pytest.raises(UnknownModelError):
            builtin("lorenz96")

    def test_static_jacobian_is_identity(self, rng):
        m = builtin("static")
        for _ in range(5):
            s = rng.standard_normal(2)
            np.testing.assert_array_equal(m.jac_f(s, m.input_at(3)), np.eye(2))

    def test_linear2d_determinant(self, rng):
        m = builtin("linear2d")
        for _ in range(5):
            s = rng.standard_normal(2)
            det = np.linalg.det(m.jac_f(s, m.input_at(1)))
            assert abs(det - 0.99**2) < 1e-12

    def test_tanhspring_invertible_along_trajectory(self):
        m = builtin("tanhspring")
        s = np.array([1.0, -1.0])
        for t in range(1, 201):
            assert np.linalg.det(m.jac_f(s, m.input_at(t))) > 0
            s = step_dynamics(m, s, m.input_at(t), t)

    # Every built-in Jacobian that does not depend on the state, with the
    # value each returned as a fresh array before they became shared
    # read-only arrays.
    _ROTATION = 0.99 * np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    CONSTANT_JACOBIANS = {
        ("static", "jac_f"): np.eye(2),
        ("linear2d", "jac_f"): _ROTATION,
        ("linear2d", "jac_h"): np.eye(2),
        ("tanhspring", "jac_h"): np.eye(2),
        ("logistic-static", "jac_f"): np.eye(2),
        ("pendulum-ct", "jac_h"): np.array([[1.0, 0.0]]),
        ("linear-ct", "jac_f"): np.array([[-0.3]]),
        ("linear-ct", "jac_h"): np.array([[1.0]]),
    }

    @pytest.mark.parametrize("name, method", list(CONSTANT_JACOBIANS), ids="-".join)
    def test_constant_jacobian_is_shared_and_read_only(self, rng, name, method):
        m = builtin(name)
        jac = getattr(m, method)
        first = jac(rng.standard_normal(m.dim_state), m.input_at(1))
        assert first.dtype == float
        assert first.tobytes() == self.CONSTANT_JACOBIANS[name, method].tobytes()
        assert first.shape == self.CONSTANT_JACOBIANS[name, method].shape
        # Every call, at any state and input and from any instance of the
        # model, returns the same array, which cannot be written into.
        assert getattr(builtin(name), method)(rng.standard_normal(m.dim_state), m.input_at(7)) is first
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            first += 1.0
        assert first.tobytes() == self.CONSTANT_JACOBIANS[name, method].tobytes()

    def test_chart_keeps_a_private_copy_of_a_shared_jacobian(self):
        m = builtin("linear2d")
        rotation = m.jac_f(np.zeros(2), m.input_at(1))
        change = natgrad.chart(rotation)
        assert not np.shares_memory(change.jac, rotation)
        assert change.jac.flags.writeable
        np.testing.assert_array_equal(change.jac, rotation)

    def test_tanhspring_jacobian_is_a_fresh_array(self):
        # I + gain diag(1 - tanh^2) coupling depends on the state; each
        # call returns a new writeable array.
        m = builtin("tanhspring")
        s, u = np.array([1.0, -1.0]), m.input_at(1)
        jac = m.jac_f(s, u)
        gain = 1.0 - np.tanh(np.array([[0.0, 1.0], [-1.0, -0.5]]) @ s) ** 2
        reference = np.eye(2) + 0.1 * gain[:, None] * np.array([[0.0, 1.0], [-1.0, -0.5]])
        assert jac.tobytes() == reference.tobytes()
        assert jac.flags.writeable and m.jac_f(s, u) is not jac

    @pytest.mark.parametrize("name", DISCRETE + CONTINUOUS)
    def test_types(self, name):
        m = builtin(name)
        expected = ContinuousModel if name.endswith("-ct") else DynamicalModel
        assert isinstance(m, expected)


class TestContinuousFamily:
    # The continuous fields linearise through a gaussian family of the
    # observation's dimension; any other is refused where the model is defined.
    @pytest.mark.parametrize(
        "family",
        [expfam.bernoulli(), expfam.categorical(3), expfam.gaussian(np.eye(2))],
        ids=["bernoulli", "categorical", "gaussian-2"],
    )
    def test_other_family_refused(self, family):
        with pytest.raises(ValueError, match="needs a gaussian family of dimension 1"):
            dataclasses.replace(builtin("pendulum-ct"), family=family)


class TestStepDynamics:
    def test_static_identity(self, rng):
        m = builtin("static")
        s = rng.standard_normal(2)
        for t in (1, 5, 17):
            np.testing.assert_array_equal(step_dynamics(m, s, m.input_at(t), t), s)

    def test_linear2d_origin_fixed(self):
        m = builtin("linear2d")
        np.testing.assert_array_equal(step_dynamics(m, np.zeros(2), m.input_at(1), 1), np.zeros(2))

    def test_tanhspring_matches_direct_formula(self, rng):
        # Oracle: the defining formula evaluated independently here.
        m = builtin("tanhspring")
        coupling = np.array([[0.0, 1.0], [-1.0, -0.5]])
        for _ in range(10):
            s = rng.standard_normal(2)
            expected = s + 0.1 * np.tanh(coupling @ s)
            np.testing.assert_allclose(step_dynamics(m, s, m.input_at(1), 1), expected, rtol=1e-15)


class TestJacobianConsistency:
    @pytest.mark.parametrize("name", DISCRETE)
    def test_fd_matches_analytic_along_trajectory(self, name):
        model = builtin(name)
        scenario = generate_scenario(model, default_family(model), 20, seed=5)
        for t in range(1, 21):
            s = scenario.true_states[t - 1]
            u = model.input_at(t)
            fd_f = fd_jacobian(lambda v: model.f(v, u), s)
            np.testing.assert_allclose(fd_f, model.jac_f(s, u), rtol=1e-6, atol=1e-9)
            s_pred = scenario.true_states[t]
            fd_h = fd_jacobian(lambda v: model.h(v, u), s_pred)
            np.testing.assert_allclose(fd_h, model.jac_h(s_pred, u), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("name", CONTINUOUS)
    def test_fd_matches_analytic_continuous(self, name, rng):
        model = builtin(name)
        for _ in range(10):
            s = rng.standard_normal(model.dim_state)
            u = model.input_at(0.3)
            fd_f = fd_jacobian(lambda v: model.f(v, u), s)
            np.testing.assert_allclose(fd_f, model.jac_f(s, u), rtol=1e-6, atol=1e-9)


class TestFiniteDifferenceBackedModel:
    def test_model_without_analytic_jacobians(self, rng):
        # jac_f / jac_h fall back to central differences when no analytic
        # form is supplied.
        reference = builtin("tanhspring")
        bare = DynamicalModel(
            name="tanhspring-fd",
            dim_state=2,
            dim_input=0,
            dim_obs=2,
            f=reference.f,
            h=reference.h,
            inputs=reference.inputs,
            init_state=reference.init_state,
        )
        for _ in range(5):
            s = rng.standard_normal(2)
            u = np.zeros(0)
            np.testing.assert_allclose(
                bare.jac_f(s, u), reference.jac_f(s, u), rtol=1e-6, atol=1e-9
            )
            np.testing.assert_allclose(bare.jac_h(s, u), np.eye(2), atol=1e-9)

    @staticmethod
    def _bare_pendulum():
        reference = builtin("pendulum-ct")
        return reference, dataclasses.replace(
            reference, name="pendulum-ct-fd", jacobian_f=None, jacobian_h=None
        )

    def test_continuous_traces_match_analytic(self):
        reference, bare = self._bare_pendulum()
        s0 = reference.init_state
        for kind, mat0, fields in (
            (bucy.BUCY, 0.5 * np.eye(2), ("states", "covs")),
            (bucy.CNGD, np.eye(2), ("states", "factors", "etas")),
        ):
            exact = bucy.integrate(kind, s0, mat0, reference, 1e-2, 1.0, 0.2, eta0=0.5)
            approx = bucy.integrate(kind, s0, mat0, bare, 1e-2, 1.0, 0.2, eta0=0.5)
            for name in fields:
                np.testing.assert_allclose(
                    getattr(approx, name), getattr(exact, name), rtol=0, atol=1e-6
                )

    def test_continuous_equivalence_passes(self):
        reference, bare = self._bare_pendulum()
        result = check_continuous(
            bare, reference.init_state, 0.5 * np.eye(2), alpha=0.2,
            dts=[1e-2, 1e-3], horizon=1.0, tol=1e-6,
        )
        assert result.passed


def counting_bare(model, h=None):
    """``model`` with both Jacobians left to central differences, and its
    f and h (or ``h`` in its place) counting their calls."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(s, u):
            calls[name] += 1
            return fn(s, u)

        return wrapped

    bare = dataclasses.replace(
        model, jacobian_f=None, jacobian_h=None,
        f=counted("f", model.f), h=counted("h", h or model.h),
    )
    return bare, calls


class TestFiniteDifferenceFallback:
    """The central-difference fallback starts from the value of the map
    that its caller already holds, so a Jacobian of an n-state map costs 2n
    more calls, not 1 + 2n; the observed mean is tested before any Jacobian
    is taken, so a non-finite h is refused as a mean, with or without an
    analytic Jacobian."""

    def test_each_discrete_step_map_runs_once_plus_its_probes(self):
        model, calls = counting_bare(builtin("linear2d"))
        family, u, s, cov = expfam.gaussian(0.1 * np.eye(2)), np.zeros(0), np.array([0.3, -0.2]), np.eye(2)
        linearise(model, family, s, u, np.array([0.1, 0.4]), 3)
        assert calls == {"h": 1 + 2 * 2}
        calls.clear()
        ekf.transition(s, cov, model, u, 3, 0.1)
        assert calls == {"f": 1 + 2 * 2}
        calls.clear()
        natgrad.chart_transport(s, cov, model, u, 3, None)
        assert calls == {"f": 1 + 2 * 2}

    @pytest.mark.parametrize("kind", [bucy.BUCY, bucy.CNGD])
    def test_each_continuous_field_runs_each_map_once_plus_its_probes(self, kind):
        model, calls = counting_bare(builtin("pendulum-ct"))
        s, factor, u, y = np.array([0.8, 0.1]), np.eye(2), np.zeros(0), np.array([0.5])
        if kind == bucy.BUCY:
            bucy.bucy_deriv(s, factor, model, u, y, 0.2)
        else:
            bucy.cngd_deriv(s, factor, 0.5, 0.0, model, u, y)
        assert calls == {"h": 1 + 2 * 2, "f": 1 + 2 * 2}

    @pytest.mark.parametrize("analytic", [False, True], ids=["fallback", "analytic"])
    def test_a_non_finite_mean_is_refused_before_its_jacobian(self, analytic):
        reference = builtin("linear2d")
        model, calls = counting_bare(reference, h=lambda s, u: np.full(2, np.nan))
        if analytic:
            model = dataclasses.replace(model, jacobian_h=reference.jacobian_h)
        family = expfam.gaussian(0.1 * np.eye(2))
        with pytest.raises(DomainError, match="^gaussian mean must be finite at t = 3$"):
            linearise(model, family, np.array([0.3, -0.2]), np.zeros(0), np.zeros(2), 3)
        assert calls == {"h": 1}


class TestCanonicalLink:
    def test_logistic_h_is_the_mean_of_its_predictor(self, rng):
        model = builtin("logistic-static")
        family = expfam.bernoulli()
        assert model.canonical_link(family)
        for _ in range(10):
            s = rng.standard_normal(2)
            u = model.input_at(int(rng.integers(1, 50)))
            x = model.predictor(s, u)
            np.testing.assert_allclose(model.h(s, u), expfam.canonical_mean(family, x), rtol=1e-15)
            np.testing.assert_allclose(
                model.jac_h(s, u),
                canonical_variance(family, x) @ model.jac_predictor(s, u),
                rtol=1e-12,
            )

    def test_path_needs_the_declared_family(self):
        model = builtin("logistic-static")
        assert not model.canonical_link(expfam.gaussian(np.eye(1)))
        assert not builtin("static").canonical_link(expfam.bernoulli())

    def test_predictor_jacobian_falls_back_to_differences(self, rng):
        reference = builtin("logistic-static")
        bare = DynamicalModel(
            name="logistic-fd",
            dim_state=2,
            dim_input=2,
            dim_obs=1,
            f=reference.f,
            h=reference.h,
            inputs=reference.inputs,
            init_state=reference.init_state,
            link_family=expfam.BERNOULLI,
            predictor=reference.predictor,
        )
        s, u = rng.standard_normal(2), bare.input_at(3)
        np.testing.assert_allclose(bare.jac_predictor(s, u), reference.jac_predictor(s, u), atol=1e-9)


class TestGenerateScenario:
    def test_deterministic_given_seed(self):
        m = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        a = generate_scenario(m, fam, 30, seed=99)
        b = generate_scenario(m, fam, 30, seed=99)
        np.testing.assert_array_equal(a.true_states, b.true_states)
        for ya, yb in zip(a.observations, b.observations):
            np.testing.assert_array_equal(ya, yb)

    def test_different_seeds_differ(self):
        m = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        a = generate_scenario(m, fam, 5, seed=1)
        b = generate_scenario(m, fam, 5, seed=2)
        assert any(
            not np.array_equal(ya, yb) for ya, yb in zip(a.observations, b.observations)
        )

    def test_true_states_noiseless(self):
        m = builtin("tanhspring")
        fam = expfam.gaussian(0.25 * np.eye(2))
        sc = generate_scenario(m, fam, 25, seed=4)
        for t in range(1, 26):
            np.testing.assert_array_equal(
                sc.true_states[t], step_dynamics(m, sc.true_states[t - 1], sc.inputs[t - 1], t)
            )

    def test_vanishing_noise_limit(self):
        m = builtin("linear2d")
        fam = expfam.gaussian(1e-12 * np.eye(2))
        sc = generate_scenario(m, fam, 50, seed=11)
        for t in range(1, 51):
            yhat = m.h(sc.true_states[t], m.input_at(t))
            assert np.abs(sc.obs(t) - yhat).max() < 1e-5

    def test_residual_mean_zero(self):
        # Oracle: law of large numbers on the observation noise.
        m = builtin("static")
        r = 0.09
        fam = expfam.gaussian(np.array([[r]]))
        horizon = 10_000
        sc = generate_scenario(m, fam, horizon, seed=21)
        resid = np.array(
            [
                sc.obs(t)[0] - m.h(sc.true_states[t], m.input_at(t))[0]
                for t in range(1, horizon + 1)
            ]
        )
        assert abs(resid.mean()) < 4.0 * np.sqrt(r / horizon)

    def test_bernoulli_observations_are_labels(self):
        m = builtin("logistic-static")
        sc = generate_scenario(m, expfam.bernoulli(), 20, seed=3)
        assert all(y in (0, 1) for y in sc.observations)

    def test_horizon_zero(self):
        m = builtin("linear2d")
        sc = generate_scenario(m, expfam.gaussian(np.eye(2)), 0, seed=0)
        assert sc.horizon == 0
        assert sc.true_states.shape == (1, 2)

    def test_a_refused_observation_mean_names_its_step(self):
        # |s_t| = 0.99^t drops below 0.9 first at t = 11, where h turns nan.
        m = dataclasses.replace(
            builtin("linear2d"),
            h=lambda s, u: s.copy() if np.linalg.norm(s) >= 0.9 else np.full(2, np.nan),
        )
        with pytest.raises(DomainError, match=r"^gaussian mean must be finite at t = 11$"):
            generate_scenario(m, expfam.gaussian(np.eye(2)), 20, seed=0)


class TestScenarioData:
    """The per-step data a scenario carries: its inputs u_t and the
    sufficient statistics T(y_t), made once when it is built."""

    @pytest.mark.parametrize("name", DISCRETE)
    def test_rows_are_the_inputs_and_statistics(self, name):
        m = builtin(name)
        fam = default_family(m)
        sc = generate_scenario(m, fam, 12, seed=2)
        assert sc.inputs.shape == (12, m.dim_input)
        assert sc.stats.shape == (12, fam.mean_dim)
        for t in range(1, 13):
            np.testing.assert_array_equal(sc.inputs[t - 1], m.input_at(t))
            np.testing.assert_array_equal(sc.stats[t - 1], expfam.sufficient_stats(fam, sc.obs(t)))
        direct = Scenario(m, fam, sc.true_states, sc.observations, sc.seed)
        np.testing.assert_array_equal(direct.inputs, sc.inputs)
        np.testing.assert_array_equal(direct.stats, sc.stats)

    def test_arrays_are_read_only(self):
        sc = generate_scenario(builtin("static"), expfam.gaussian(np.eye(1)), 3, seed=0)
        for arr in (sc.inputs, sc.stats):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_label_outside_support_is_refused_when_built(self):
        labels = [0, 1, 1, 0, 1, 0, 2, 1]
        with pytest.raises(OutOfSupportError, match=r"outside support .* at t = 7$"):
            Scenario(
                model=builtin("logistic-static"),
                family=expfam.bernoulli(),
                true_states=np.zeros((len(labels) + 1, 2)),
                observations=labels,
                seed=0,
            )
