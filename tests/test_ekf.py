import dataclasses

import numpy as np
import pytest

from kalgrad import ekf, expfam
from kalgrad.errors import DomainError, NonFiniteError, SingularMatrixError
from kalgrad.model import DynamicalModel, Scenario, builtin, generate_scenario

from conftest import observe, random_spd
from oracles import observe_gradient, observe_information


def make_linear_model(h_mat, f_scale=1.0, name="test-linear"):
    """Linear observation model with f(s) = f_scale * s."""
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    dim_obs, dim_state = h_mat.shape
    return DynamicalModel(
        name=name,
        dim_state=dim_state,
        dim_input=0,
        dim_obs=dim_obs,
        f=lambda s, u: f_scale * s,
        h=lambda s, u: h_mat @ s,
        jacobian_f=lambda s, u: f_scale * np.eye(dim_state),
        jacobian_h=lambda s, u: h_mat.copy(),
        inputs=lambda t: np.zeros(0),
        init_state=np.zeros(dim_state),
    )


def make_scenario(model, family, observations, horizon=None):
    """Scenario with hand-chosen observations (truth unused by the filter)."""
    horizon = len(observations) if horizon is None else horizon
    states = np.zeros((horizon + 1, model.dim_state))
    s = np.asarray(model.init_state, dtype=float)
    states[0] = s
    for t in range(1, horizon + 1):
        s = np.asarray(model.f(s, model.input_at(t)), dtype=float)
        states[t] = s
    return Scenario(
        model=model,
        family=family,
        true_states=states,
        observations=list(observations),
        seed=0,
    )


class TestTransition:
    def test_static_alpha_zero_unchanged(self):
        model = builtin("static")
        mean, cov = np.array([0.4, -0.1]), np.diag([2.0, 3.0])
        pred_mean, pred_cov = ekf.transition(mean, cov, model, model.input_at(1), 1, 0.0)
        np.testing.assert_array_equal(pred_mean, mean)
        np.testing.assert_array_equal(pred_cov, cov)
        np.testing.assert_array_equal(model.jac_f(mean, model.input_at(1)), np.eye(2))

    def test_overflowing_covariance_fails_at_transition(self):
        # (1 + alpha) F P F^T beyond the float64 range is a failure of the
        # transition step, not of the observation update that follows.
        model = builtin("static")
        with pytest.raises(NonFiniteError, match="covariance at t = 3"):
            ekf.transition(np.zeros(2), 1e10 * np.eye(2), model, model.input_at(3), 3, 1e300)

    def test_scalar_doubling_variance(self):
        model = make_linear_model([[1.0]], f_scale=2.0)
        _, pred_cov = ekf.transition(
            np.array([1.0]), np.array([[1.0]]), model, np.zeros(0), 1, 0.0
        )
        np.testing.assert_allclose(pred_cov, [[4.0]])

    def test_fading_doubles_identity(self):
        model = builtin("static")
        _, pred_cov = ekf.transition(np.zeros(2), np.eye(2), model, model.input_at(1), 1, 1.0)
        np.testing.assert_allclose(pred_cov, 2.0 * np.eye(2))


class TestObserveGain:
    def test_scalar_forced_values(self):
        model = make_linear_model([[1.0]])
        family = expfam.gaussian(np.array([[1.0]]))
        mean, cov = observe(
            ekf.observe_gain,
            np.array([0.3]), np.array([[1.0]]), np.array([1.3]), model, family, 1
        )
        # K = 1/2, P = 1/2, s += (y - yhat)/2
        np.testing.assert_allclose(cov, [[0.5]])
        np.testing.assert_allclose(mean, [0.3 + 0.5])

    def test_zero_innovation_keeps_mean_shrinks_cov(self, rng):
        model = make_linear_model(rng.standard_normal((2, 2)))
        family = expfam.gaussian(random_spd(rng, 2))
        pred_mean, pred_cov = rng.standard_normal(2), random_spd(rng, 2)
        yhat = model.h(pred_mean, np.zeros(0))
        mean, cov = observe(ekf.observe_gain, pred_mean, pred_cov, yhat.copy(), model, family, 1)
        np.testing.assert_allclose(mean, pred_mean, atol=1e-12)
        eigs = np.linalg.eigvalsh(pred_cov - cov)
        assert eigs.min() > 0  # information strictly increases

    def test_batch_posterior_linear2d(self):
        # Oracle: closed-form Gaussian conditioning on all observations at
        # once.  With deterministic linear dynamics the whole trajectory is
        # a linear function of s_0, so the filter must match the batch
        # posterior pushed to time T exactly.
        horizon = 10
        model = builtin("linear2d")
        r = 0.1 * np.eye(2)
        family = expfam.gaussian(r)
        scenario = generate_scenario(model, family, horizon, seed=14)
        s0 = np.array([0.3, -0.6])
        p0 = np.diag([0.8, 1.7])

        trace = ekf.run(scenario, 0.0, s0, p0)

        a_mat = 0.99 * np.array(
            [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
        )
        r_inv = np.linalg.inv(r)
        prec = np.linalg.inv(p0)
        info = prec @ s0
        a_pow = np.eye(2)
        for t in range(1, horizon + 1):
            a_pow = a_mat @ a_pow  # design matrix for y_t as a function of s_0
            prec = prec + a_pow.T @ r_inv @ a_pow
            info = info + a_pow.T @ r_inv @ np.asarray(scenario.obs(t))
        mean0 = np.linalg.solve(prec, info)
        cov0 = np.linalg.inv(prec)
        mean_t = a_pow @ mean0
        cov_t = a_pow @ cov0 @ a_pow.T

        np.testing.assert_allclose(trace.states[-1], mean_t, atol=1e-10)
        np.testing.assert_allclose(trace.covs[-1], cov_t, atol=1e-10)

    def test_singular_gain_solve_names_the_step(self, monkeypatch):
        # I + B P B^T C is singular only in floating point; LAPACK's
        # report of a zero pivot must stop the update.
        def singular_dgesv(a, b, overwrite_a=0):
            return a, np.arange(1, len(a) + 1, dtype=np.int32), b, 1

        monkeypatch.setattr(ekf, "dgesv", singular_dgesv)
        model = make_linear_model([[1.0]])
        family = expfam.gaussian(np.array([[1.0]]))
        with pytest.raises(SingularMatrixError, match="innovation matrix singular at t = 4"):
            observe(
                ekf.observe_gain, np.array([0.0]), np.array([[1.0]]), np.array([1.0]), model, family, 4
            )


class TestFormEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_three_forms_agree(self, dim):
        rng = np.random.default_rng(100 + dim)
        model_cache = {}
        for _ in range(100):
            h_mat = rng.standard_normal((dim, dim))
            key = h_mat.tobytes()
            model = model_cache.setdefault(key, make_linear_model(h_mat))
            family = expfam.gaussian(random_spd(rng, dim))
            pred = (rng.standard_normal(dim), random_spd(rng, dim))
            yhat = model.h(pred[0], np.zeros(0))
            y = yhat + rng.standard_normal(dim)
            a_mean, a_cov = observe(ekf.observe_gain, *pred, y, model, family, 1)
            b_mean, b_cov = observe(observe_information, *pred, y, model, family, 1)
            c_mean, c_cov = observe(observe_gradient, *pred, y, model, family, 1)
            scale = max(1.0, np.abs(a_mean).max())
            assert np.abs(a_mean - b_mean).max() <= 1e-10 * scale
            assert np.abs(a_mean - c_mean).max() <= 1e-10 * scale
            cov_scale = np.linalg.norm(a_cov)
            assert np.linalg.norm(a_cov - b_cov) <= 1e-10 * cov_scale
            assert np.linalg.norm(a_cov - c_cov) <= 1e-10 * cov_scale

    def test_forms_agree_with_bernoulli(self, rng):
        model = builtin("logistic-static")
        family = expfam.bernoulli()
        cases = []
        for _ in range(50):
            pred = (rng.standard_normal(2), random_spd(rng, 2))
            cases.append((pred, int(rng.integers(2))))
        # Saturated inputs: at a linear predictor of 800 the mean rounds to
        # 1 and the bernoulli variance underflows to 0.
        u = model.input_at(1)
        saturated = 800.0 * u / (u @ u)
        assert expfam.canonical_variance(family, model.predictor(saturated, u))[0, 0] == 0.0
        cases += [((saturated, random_spd(rng, 2)), y) for y in (0, 1)]
        for pred, y in cases:
            a_mean, a_cov = observe(ekf.observe_gain, *pred, y, model, family, 1)
            b_mean, b_cov = observe(observe_information, *pred, y, model, family, 1)
            c_mean, _ = observe(observe_gradient, *pred, y, model, family, 1)
            np.testing.assert_allclose(b_mean, a_mean, atol=1e-10)
            np.testing.assert_allclose(c_mean, a_mean, atol=1e-10)
            np.testing.assert_allclose(b_cov, a_cov, atol=1e-10)

    def test_scalar_information_form(self):
        # 1/P = 1/1 + 1 = 2.
        model = make_linear_model([[1.0]])
        family = expfam.gaussian(np.array([[1.0]]))
        mean, cov = observe(
            observe_information,
            np.array([0.0]), np.array([[1.0]]), np.array([2.0]), model, family, 1
        )
        np.testing.assert_allclose(cov, [[0.5]])
        np.testing.assert_allclose(mean, [1.0])

    def test_uninformative_observation(self):
        model = make_linear_model([[0.0, 0.0]])
        family = expfam.gaussian(np.array([[1.0]]))
        pred_mean, pred_cov = np.array([0.2, -0.4]), np.diag([1.5, 2.5])
        mean, cov = observe(
            observe_information, pred_mean, pred_cov, np.array([3.0]), model, family, 1
        )
        np.testing.assert_allclose(mean, pred_mean, atol=1e-12)
        np.testing.assert_allclose(cov, pred_cov, atol=1e-12)

    def test_gradient_form_zero_score_freezes_mean(self, rng):
        model = make_linear_model(rng.standard_normal((2, 2)))
        family = expfam.gaussian(random_spd(rng, 2))
        pred_mean, pred_cov = rng.standard_normal(2), random_spd(rng, 2)
        yhat = model.h(pred_mean, np.zeros(0))
        mean, _ = observe(observe_gradient, pred_mean, pred_cov, yhat.copy(), model, family, 1)
        np.testing.assert_allclose(mean, pred_mean, atol=1e-13)

    def test_gradient_form_scalar(self):
        model = make_linear_model([[1.0]])
        family = expfam.gaussian(np.array([[1.0]]))
        mean, cov = observe(
            observe_gradient,
            np.array([0.1]), np.array([[1.0]]), np.array([0.7]), model, family, 1
        )
        np.testing.assert_allclose(cov, [[0.5]])
        np.testing.assert_allclose(mean, [0.1 + (0.7 - 0.1) / 2])

    def test_singular_innovation_raises(self):
        # R = H = I and predicted covariance -I: I + C B P B^T is exactly 0.
        model = make_linear_model([[1.0]])
        family = expfam.gaussian(np.eye(1))
        with pytest.raises(SingularMatrixError, match="^gain-form innovation matrix singular at t = 1$"):
            observe(
                ekf.observe_gain,
                np.array([0.0]), np.array([[-1.0]]), np.array([1.0]), model, family, 1
            )


class TestCanonicalLink:
    def test_matches_mean_parameter_path_inside_the_domain(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        family = expfam.bernoulli()
        for _ in range(20):
            pred = (rng.standard_normal(2), random_spd(rng, 2))
            y = int(rng.integers(2))
            for update in (ekf.observe_gain, observe_information):
                a_mean, a_cov = observe(update, *pred, y, model, family, 1)
                b_mean, b_cov = observe(update, *pred, y, mean_model, family, 1)
                np.testing.assert_allclose(a_mean, b_mean, rtol=1e-12, atol=1e-14)
                np.testing.assert_allclose(a_cov, b_cov, rtol=1e-12, atol=1e-14)

    def test_saturated_gain_update(self):
        # V = 0: the covariance is unchanged and, for y = 0, the state
        # moves by P G^T (y - p) = -P u.
        model = builtin("logistic-static")
        family = expfam.bernoulli()
        u = model.input_at(1)
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        pred_mean = 800.0 * u / (u @ u)
        mean_model = dataclasses.replace(model, predictor=None)
        with pytest.raises(DomainError):
            observe(ekf.observe_gain, pred_mean, cov, 0, mean_model, family, 1)
        mean, post_cov = observe(ekf.observe_gain, pred_mean, cov, 0, model, family, 1)
        np.testing.assert_array_equal(post_cov, cov)
        np.testing.assert_allclose(mean, pred_mean - cov @ u, rtol=1e-15)

    def test_non_finite_update_raises(self):
        model = builtin("logistic-static")
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
            observe(
                ekf.observe_gain, np.zeros(2), np.full((2, 2), np.inf), 1, model, expfam.bernoulli(), 1
            )


def counting_scenario(horizon):
    """Scalar static scenario whose model records every call to f and h."""
    calls = []
    base = make_linear_model([[1.0]], name="counting")

    def f(s, u):
        calls.append("f")
        return base.f(s, u)

    def h(s, u):
        calls.append("h")
        return base.h(s, u)

    model = dataclasses.replace(base, f=f, h=h)
    scenario = make_scenario(model, expfam.gaussian(np.eye(1)), [np.ones(1)] * horizon)
    calls.clear()
    return scenario, calls


class TestRun:
    @pytest.mark.parametrize("length", [5, 15])
    def test_wrong_length_alpha_fails_before_step_one(self, length):
        scenario, calls = counting_scenario(10)
        with pytest.raises(ValueError, match="alpha schedule"):
            ekf.run(scenario, np.full(length, 0.1), np.zeros(1), np.eye(1))
        assert calls == []

    def test_horizon_zero_prior_only(self):
        model = builtin("linear2d")
        family = expfam.gaussian(np.eye(2))
        scenario = generate_scenario(model, family, 0, seed=0)
        trace = ekf.run(scenario, 0.0, np.zeros(2), np.eye(2))
        assert trace.states.shape == (1, 2)
        assert trace.covs.shape == (1, 2, 2)

    def test_replays_bit_identically(self):
        model = builtin("linear2d")
        family = expfam.gaussian(0.1 * np.eye(2))
        scenario = generate_scenario(model, family, 50, seed=8)
        t1 = ekf.run(scenario, 0.3, np.zeros(2), np.eye(2))
        t2 = ekf.run(scenario, 0.3, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(t1.states, t2.states)
        np.testing.assert_array_equal(t1.covs, t2.covs)

    def test_recursive_average_closed_form(self):
        # Oracle: with f = Id, h = s, P0 = R = 1, alpha = 0, and constant
        # observations c, the posterior mean is the running average, so
        # s_t - c = (s_0 - c) / (t + 1).
        c = 1.8
        model = make_linear_model([[1.0]], name="scalar-static")
        family = expfam.gaussian(np.array([[1.0]]))
        horizon = 40
        scenario = make_scenario(model, family, [np.array([c])] * horizon)
        s0, p0 = np.array([0.2]), np.array([[1.0]])
        trace = ekf.run(scenario, 0.0, s0, p0)
        for t in range(1, horizon + 1):
            expected = c + (s0[0] - c) / (t + 1)
            assert abs(trace.states[t, 0] - expected) < 1e-12
            assert abs(trace.covs[t, 0, 0] - 1.0 / (t + 1)) < 1e-12

    def test_loewner_monotonicity(self):
        # P_post <= P_pred in the Loewner order at every step.
        for name, famfac in [
            ("linear2d", lambda m: expfam.gaussian(0.1 * np.eye(2))),
            ("tanhspring", lambda m: expfam.gaussian(0.25 * np.eye(2))),
            ("logistic-static", lambda m: expfam.bernoulli()),
        ]:
            model = builtin(name)
            scenario = generate_scenario(model, famfac(model), 30, seed=6)
            trace = ekf.run(scenario, 0.2, model.init_state, np.eye(2))
            for t in range(1, scenario.horizon + 1):
                _, pred_cov = ekf.transition(
                    trace.states[t - 1], trace.covs[t - 1], model, scenario.inputs[t - 1], t, 0.2
                )
                gap = np.linalg.eigvalsh(pred_cov - trace.covs[t]).min()
                assert gap >= -1e-10

