import dataclasses

import numpy as np
import pytest

from kalgrad import ekf, expfam, natgrad
from kalgrad.errors import SingularMatrixError
from kalgrad.model import builtin, generate_scenario, linearise, mean_linearisation
from kalgrad.numerics import symmetrize

from conftest import random_spd
from oracles import log_density, mc_fisher, plain_online_natgrad
from test_ekf import counting_scenario, make_linear_model, make_scenario


class TestPushforwardMetric:
    def test_identity_chart(self, rng):
        j = random_spd(rng, 3)
        np.testing.assert_allclose(natgrad.pushforward_metric(j, np.eye(3)), j)

    def test_scaling_chart(self):
        out = natgrad.pushforward_metric(np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(out, 0.25 * np.eye(2))

    def test_round_trip(self, rng):
        # Oracle: transporting through psi then psi^-1 must restore J.
        for _ in range(20):
            j = random_spd(rng, 3)
            psi = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            forth = natgrad.pushforward_metric(j, psi)
            back = natgrad.pushforward_metric(forth, np.linalg.inv(psi))
            np.testing.assert_allclose(back, j, atol=1e-12 * np.linalg.norm(j))

    def test_singular_chart_raises(self):
        with pytest.raises(SingularMatrixError):
            natgrad.pushforward_metric(np.eye(2), np.diag([1.0, 0.0]))

    def test_matches_explicit_inverse(self, rng):
        # Oracle: reference implementation with an explicit matrix inverse.
        for _ in range(20):
            j = random_spd(rng, 2)
            psi = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            psi_inv = np.linalg.inv(psi)
            reference = psi_inv.T @ j @ psi_inv
            out = natgrad.pushforward_metric(j, psi)
            np.testing.assert_allclose(out, symmetrize(reference), atol=1e-12)


class TestChartTransport:
    def test_static_leaves_everything(self, rng):
        model = builtin("static")
        s, j = rng.standard_normal(2), random_spd(rng, 2)
        moved_s, moved_j = natgrad.chart_transport(s, j, model, 1)
        np.testing.assert_array_equal(moved_s, s)
        np.testing.assert_allclose(moved_j, j)
        np.testing.assert_array_equal(model.jac_f(s, model.input_at(1)), np.eye(2))

    def test_scalar_doubling(self):
        model = make_linear_model([[1.0]], f_scale=2.0)
        moved_s, moved_j = natgrad.chart_transport(np.array([1.0]), np.array([[1.0]]), model, 1)
        np.testing.assert_allclose(moved_j, [[0.25]])
        np.testing.assert_allclose(moved_s, [2.0])

    def test_linear2d_vs_explicit_inverse(self, rng):
        model = builtin("linear2d")
        for _ in range(10):
            j = random_spd(rng, 2)
            s = rng.standard_normal(2)
            _, moved_j = natgrad.chart_transport(s, j, model, 1)
            f_inv = np.linalg.inv(model.jac_f(s, model.input_at(1)))
            np.testing.assert_allclose(moved_j, f_inv.T @ j @ f_inv, atol=1e-12)

    def test_transport_residual_identity(self, rng):
        # F^T J' F must reconstruct J to 1e-10 relative after transport.
        for name in ("linear2d", "tanhspring"):
            model = builtin(name)
            for _ in range(10):
                j = random_spd(rng, 2)
                s = rng.standard_normal(2)
                _, moved_j = natgrad.chart_transport(s, j, model, 1)
                f_jac = model.jac_f(s, model.input_at(1))
                resid = np.linalg.norm(f_jac.T @ moved_j @ f_jac - j)
                assert resid <= 1e-10 * np.linalg.norm(j)


class TestFisherTerm:
    def test_scalar_exact(self):
        fam = expfam.gaussian(np.array([[2.0]]))
        out = natgrad.fisher_term(mean_linearisation(fam, np.array([0.0]), np.array([[1.0]])))
        np.testing.assert_allclose(out, [[0.5]])

    def test_zero_jacobian_every_mode(self, rng):
        # The exact Fisher and its Monte Carlo oracle both vanish.
        fam = expfam.gaussian(np.array([[1.0]]))
        h0 = np.zeros((1, 2))
        yhat = np.array([0.3])
        lin = mean_linearisation(fam, yhat, h0)
        for out in (natgrad.fisher_term(lin), mc_fisher(lin, fam, rng, 10)):
            np.testing.assert_array_equal(out, np.zeros((2, 2)))


class TestCanonicalLink:
    def test_fisher_term_matches_mean_parameter_form(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        fam = expfam.bernoulli()
        for _ in range(20):
            s, t = rng.standard_normal(2), int(rng.integers(1, 50))
            np.testing.assert_allclose(
                natgrad.fisher_term(linearise(model, fam, s, t)),
                natgrad.fisher_term(linearise(mean_model, fam, s, t)),
                rtol=1e-12,
                atol=1e-15,
            )

    def test_update_matches_mean_parameter_path(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        fam = expfam.bernoulli()
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4)
        for _ in range(20):
            s, j = rng.standard_normal(2), random_spd(rng, 2)
            y = int(rng.integers(2))
            a_s, a_j = natgrad.update(s, j, y, model, fam, cfg, 1)
            b_s, b_j = natgrad.update(s, j, y, mean_model, fam, cfg, 1)
            np.testing.assert_allclose(a_s, b_s, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(a_j, b_j, rtol=1e-12, atol=1e-14)

    def test_saturated_update_keeps_only_the_transported_metric(self):
        # V = 0: the Fisher term vanishes, J = (1 - gamma) J_pred, and the
        # step is eta J^-1 G^T (y - 1).
        model = builtin("logistic-static")
        fam = expfam.bernoulli()
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4)
        u = model.input_at(1)
        metric = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = 800.0 * u / (u @ u)
        post_s, post_j = natgrad.update(s, metric, 0, model, fam, cfg, 1)
        np.testing.assert_allclose(post_j, 0.6 * metric, rtol=1e-15)
        np.testing.assert_allclose(
            post_s, s - 0.4 * np.linalg.solve(0.6 * metric, u), rtol=1e-12
        )


class TestUpdate:
    def test_zero_innovation_freezes_state(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        cfg = natgrad.NatGradConfig(eta=0.5, gamma=0.5)
        s = rng.standard_normal(2)
        j = random_spd(rng, 2)
        yhat = model.h(s, np.zeros(0))
        post_s, post_j = natgrad.update(s, j, yhat.copy(), model, fam, cfg, 1)
        np.testing.assert_allclose(post_s, s, atol=1e-14)
        assert not np.allclose(post_j, j)

    def test_gamma_one_full_replacement(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        cfg = natgrad.NatGradConfig(eta=0.5, gamma=1.0)
        s = rng.standard_normal(2)
        yhat = model.h(s, np.zeros(0))
        _, metric = natgrad.update(s, random_spd(rng, 2), yhat + 0.1, model, fam, cfg, 1)
        h_jac = model.jac_h(s, np.zeros(0))
        expected = h_jac.T @ np.linalg.inv(fam.obs_cov) @ h_jac
        np.testing.assert_allclose(metric, expected, atol=1e-12)

    def test_scalar_step_matches_kalman(self):
        # Oracle: the scalar fading-memory filter step from the ekf module,
        # with hyperparameters tied by eta = gamma, P = eta / J.
        eta0, alpha1 = 0.5, 0.2
        inv_eta1 = 1.0 / ((1.0 + alpha1) * eta0) + 1.0
        eta1 = 1.0 / inv_eta1
        j0 = 1.0 / eta0  # so P0 = eta0 / j0 = eta0**2
        p0 = eta0 / j0

        model = make_linear_model([[1.0]], name="scalar-static")
        fam = expfam.gaussian(np.array([[1.0]]))
        y = np.array([0.9])
        scenario = make_scenario(model, fam, [y])

        grad_cfg = natgrad.NatGradConfig(eta=np.array([eta1]), gamma=np.array([eta1]))
        gtrace = natgrad.run(scenario, grad_cfg, np.array([0.1]), np.array([[j0]]))

        ftrace = ekf.run(
            scenario,
            ekf.EkfConfig(alpha=np.array([alpha1])),
            np.array([0.1]),
            np.array([[p0]]),
        )
        np.testing.assert_allclose(gtrace.states[1], ftrace.states[1], atol=1e-14)
        np.testing.assert_allclose(
            eta1 / gtrace.metrics[1, 0, 0], ftrace.covs[1, 0, 0], atol=1e-14
        )

    def test_metric_blend_convex_hull(self, rng):
        # min-eig of the blended metric cannot drop below the smaller of
        # the two ingredients' min-eigs.
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        cfg = natgrad.NatGradConfig(eta=0.3, gamma=0.4)
        for _ in range(20):
            s = rng.standard_normal(2)
            j = random_spd(rng, 2)
            yhat = model.h(s, np.zeros(0))
            fisher = natgrad.fisher_term(linearise(model, fam, s, 1))
            _, metric = natgrad.update(s, j, yhat + 0.2, model, fam, cfg, 1)
            floor = min(np.linalg.eigvalsh(j).min(), np.linalg.eigvalsh(fisher).min())
            assert np.linalg.eigvalsh(metric).min() >= floor - 1e-10


class TestRun:
    def test_static_equals_plain(self):
        # Reduction identity: on static dynamics the chart machinery must
        # reproduce the chartless algorithm.
        model = builtin("static")
        fam = expfam.gaussian(np.array([[0.5]]))
        horizon = 100
        scenario = generate_scenario(model, fam, horizon, seed=23)
        cfg = natgrad.NatGradConfig(eta=0.2, gamma=0.2)
        s0 = np.array([0.0, 0.0])
        j0 = np.eye(2)

        chart = natgrad.run(scenario, cfg, s0, j0)
        plain = plain_online_natgrad(
            [model.input_at(t) for t in range(1, horizon + 1)],
            scenario.observations,
            model.h,
            fam,
            cfg,
            s0,
            j0,
            jacobian_h=model.jacobian_h,
        )
        np.testing.assert_allclose(chart.states, plain.states, atol=1e-12)
        np.testing.assert_allclose(chart.metrics, plain.metrics, atol=1e-12)

    def test_horizon_zero(self):
        model = builtin("static")
        scenario = generate_scenario(model, expfam.gaussian(np.eye(1)), 0, seed=0)
        trace = natgrad.run(
            scenario, natgrad.NatGradConfig(eta=0.5, gamma=0.5), np.zeros(2), np.eye(2)
        )
        assert trace.states.shape == (1, 2)
        assert trace.metrics.shape == (1, 2, 2)

    def test_tanhspring_metric_stays_spd(self):
        model = builtin("tanhspring")
        fam = expfam.gaussian(0.25 * np.eye(2))
        scenario = generate_scenario(model, fam, 50, seed=12)
        cfg = natgrad.NatGradConfig(eta=0.3, gamma=0.3)
        trace = natgrad.run(scenario, cfg, model.init_state, np.eye(2))
        for metric in trace.metrics[1:]:
            assert np.linalg.eigvalsh(metric).min() > 0

    def test_deterministic_replay(self):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        scenario = generate_scenario(model, fam, 30, seed=3)
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4)
        a = natgrad.run(scenario, cfg, np.zeros(2), np.eye(2))
        b = natgrad.run(scenario, cfg, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(a.states, b.states)

class TestPlainOnlineNatgrad:
    def test_zero_learning_rate_freezes_parameter(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        inputs = [rng.standard_normal(2) for _ in range(10)]
        obs = [np.array([float(rng.standard_normal())]) for _ in range(10)]
        cfg = natgrad.NatGradConfig(eta=0.0, gamma=0.5)
        trace = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, cfg,
            np.array([0.3, -0.4]), np.eye(2),
        )
        for state in trace.states[1:]:
            np.testing.assert_array_equal(state, [0.3, -0.4])
        assert not np.allclose(trace.metrics[-1], np.eye(2))

    def test_logistic_separable_loglik_improves(self):
        # Soft sanity check: on separable data the training log-likelihood
        # should be non-decreasing for at least 95 percent of the steps.
        rng = np.random.default_rng(77)
        fam = expfam.bernoulli()
        theta_true = np.array([2.0, -1.5])
        # Bounded inputs keep theta^T u away from sigmoid saturation while
        # the parameter norm grows (it diverges on separable data).
        inputs, labels = [], []
        for _ in range(25):
            u = rng.standard_normal(2)
            u = 0.6 * u / np.linalg.norm(u)
            inputs.append(u)
            labels.append(1 if theta_true @ u > 0 else 0)

        from scipy.special import expit

        def h(theta, u):
            return np.array([expit(theta @ u)])

        def total_loglik(theta):
            return sum(
                log_density(fam, y, h(theta, u))
                for u, y in zip(inputs, labels)
            )

        cfg = natgrad.NatGradConfig(eta=0.1, gamma=0.1)
        theta = np.zeros(2)
        metric = np.eye(2)
        improvements = []
        for _ in range(3):  # epochs over the same data
            trace = plain_online_natgrad(
                inputs, labels, h, fam, cfg, theta, metric
            )
            # f = Id: each step moves from row t-1 to row t.
            for before, after in zip(trace.states[:-1], trace.states[1:]):
                improvements.append(total_loglik(after) - total_loglik(before))
            theta = trace.states[-1]
            metric = trace.metrics[-1]
        frac = np.mean([d >= -1e-12 for d in improvements])
        assert frac >= 0.95

    def test_fd_jacobian_fallback(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        inputs = [rng.standard_normal(2) for _ in range(5)]
        obs = [np.array([float(rng.standard_normal())]) for _ in range(5)]
        cfg = natgrad.NatGradConfig(eta=0.2, gamma=0.2)
        with_jac = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, cfg,
            np.zeros(2), np.eye(2), jacobian_h=lambda th, u: u[None, :],
        )
        without = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, cfg,
            np.zeros(2), np.eye(2),
        )
        np.testing.assert_allclose(without.states, with_jac.states, atol=1e-9)


class TestScheduleLength:
    @pytest.mark.parametrize("length", [5, 15])
    @pytest.mark.parametrize("which", ["eta", "gamma"])
    def test_run_fails_before_step_one(self, length, which):
        scenario, calls = counting_scenario(10)
        cfg = natgrad.NatGradConfig(**{"eta": 0.3, "gamma": 0.3, which: np.full(length, 0.3)})
        with pytest.raises(ValueError, match=f"{which} schedule"):
            natgrad.run(scenario, cfg, np.zeros(1), np.eye(1))
        assert calls == []

    @pytest.mark.parametrize("length", [5, 15])
    @pytest.mark.parametrize("which", ["eta", "gamma"])
    def test_plain_online_natgrad_fails_before_step_one(self, length, which):
        scenario, calls = counting_scenario(10)
        cfg = natgrad.NatGradConfig(**{"eta": 0.3, "gamma": 0.3, which: np.full(length, 0.3)})
        with pytest.raises(ValueError, match=f"{which} schedule"):
            plain_online_natgrad(
                [np.zeros(0)] * 10, scenario.observations, scenario.model.h,
                scenario.family, cfg, np.zeros(1), np.eye(1),
            )
        assert calls == []


class TestNatGradConfig:
    def test_eta_above_one_rejected(self):
        with pytest.raises(ValueError):
            natgrad.NatGradConfig(eta=1.5, gamma=0.5)

    def test_gamma_zero_rejected(self):
        with pytest.raises(ValueError):
            natgrad.NatGradConfig(eta=0.5, gamma=0.0)

