import dataclasses

import numpy as np
import pytest

from kalgrad import ekf, expfam, natgrad
from kalgrad.equivalence import map_alpha_to_eta
from kalgrad.errors import SingularMatrixError
from kalgrad.model import builtin, generate_scenario
from kalgrad.numerics import symmetrize

from conftest import random_spd
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
        state = natgrad.NatGradState(rng.standard_normal(2), random_spd(rng, 2))
        moved, f_jac = natgrad.chart_transport(state, model, 1)
        np.testing.assert_array_equal(moved.state, state.state)
        np.testing.assert_allclose(moved.metric, state.metric)
        np.testing.assert_array_equal(f_jac, np.eye(2))

    def test_scalar_doubling(self):
        model = make_linear_model([[1.0]], f_scale=2.0)
        state = natgrad.NatGradState(np.array([1.0]), np.array([[1.0]]))
        moved, _ = natgrad.chart_transport(state, model, 1)
        np.testing.assert_allclose(moved.metric, [[0.25]])
        np.testing.assert_allclose(moved.state, [2.0])

    def test_linear2d_vs_explicit_inverse(self, rng):
        model = builtin("linear2d")
        for _ in range(10):
            j = random_spd(rng, 2)
            s = rng.standard_normal(2)
            moved, f_jac = natgrad.chart_transport(natgrad.NatGradState(s, j), model, 1)
            f_inv = np.linalg.inv(f_jac)
            np.testing.assert_allclose(moved.metric, f_inv.T @ j @ f_inv, atol=1e-12)

    def test_transport_residual_identity(self, rng):
        # F^T J' F must reconstruct J to 1e-10 relative after transport.
        for name in ("linear2d", "tanhspring"):
            model = builtin(name)
            for _ in range(10):
                j = random_spd(rng, 2)
                s = rng.standard_normal(2)
                moved, f_jac = natgrad.chart_transport(
                    natgrad.NatGradState(s, j), model, 1
                )
                resid = np.linalg.norm(f_jac.T @ moved.metric @ f_jac - j)
                assert resid <= 1e-10 * np.linalg.norm(j)


class TestFisherTerm:
    def test_scalar_exact(self):
        fam = expfam.gaussian(np.array([[2.0]]))
        out = natgrad.fisher_term(np.array([0.0]), np.array([[1.0]]), fam)
        np.testing.assert_allclose(out, [[0.5]])

    def test_zero_jacobian_every_mode(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        h0 = np.zeros((1, 2))
        yhat = np.array([0.3])
        for mode, kwargs in [
            (natgrad.EXACT, {}),
            (natgrad.OUTER, {"y": np.array([1.0])}),
            (natgrad.MONTE_CARLO, {"rng": rng, "mc_samples": 10}),
        ]:
            out = natgrad.fisher_term(yhat, h0, fam, mode=mode, **kwargs)
            np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_monte_carlo_matches_exact(self):
        # Oracle: for the scalar-observation gaussian the score outer
        # product is H_i H_j z^2 / R^2 with z ~ N(0, R), whose entrywise
        # standard error is sqrt(2) |H_i H_j| / (R sqrt(n)).
        rng = np.random.default_rng(55)
        r = 0.8
        fam = expfam.gaussian(np.array([[r]]))
        h_jac = np.array([[0.7, -1.2]])
        yhat = np.array([0.4])
        n = 100_000
        exact = natgrad.fisher_term(yhat, h_jac, fam, mode=natgrad.EXACT)
        mc = natgrad.fisher_term(
            yhat, h_jac, fam, mode=natgrad.MONTE_CARLO, rng=rng, mc_samples=n
        )
        se = np.sqrt(2.0) * np.abs(h_jac.T @ h_jac) / (r * np.sqrt(n))
        assert np.all(np.abs(mc - exact) <= 3.0 * se)

    def test_outer_product_uses_observed_score(self):
        fam = expfam.gaussian(np.array([[1.0]]))
        h_jac = np.array([[1.0, 0.0]])
        yhat = np.array([0.0])
        out = natgrad.fisher_term(yhat, h_jac, fam, mode=natgrad.OUTER, y=np.array([2.0]))
        np.testing.assert_allclose(out, [[4.0, 0.0], [0.0, 0.0]])


class TestCanonicalLink:
    def test_fisher_term_matches_mean_parameter_form(self, rng):
        model = builtin("logistic-static")
        fam = expfam.bernoulli()
        for _ in range(20):
            s, u = rng.standard_normal(2), model.input_at(int(rng.integers(1, 50)))
            yhat = model.h(s, u)
            y = int(rng.integers(2))
            for mode in (natgrad.EXACT, natgrad.OUTER, natgrad.MONTE_CARLO):
                seed = int(rng.integers(2**31))  # the same mc draws on both paths

                def fisher(jac, **predictor):
                    return natgrad.fisher_term(
                        yhat, jac, fam, mode=mode, y=y,
                        rng=np.random.default_rng(seed), mc_samples=5, **predictor,
                    )

                np.testing.assert_allclose(
                    fisher(model.jac_predictor(s, u), predictor=model.predictor(s, u)),
                    fisher(model.jac_h(s, u)),
                    rtol=1e-12, atol=1e-15,
                )

    def test_update_matches_mean_parameter_path(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        fam = expfam.bernoulli()
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4)
        for _ in range(20):
            state = natgrad.NatGradState(rng.standard_normal(2), random_spd(rng, 2))
            yhat = model.h(state.state, model.input_at(1))
            y = int(rng.integers(2))
            a = natgrad.update(state, y, yhat, model, fam, cfg, 1)
            b = natgrad.update(state, y, yhat, mean_model, fam, cfg, 1)
            np.testing.assert_allclose(a.state, b.state, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(a.metric, b.metric, rtol=1e-12, atol=1e-14)

    def test_monte_carlo_fisher_runs_through_saturated_means(self):
        # alpha = 1 drives the predicted mean of seed 0 to exactly 1.0;
        # drawing there is well defined, so mc runs all steps like exact.
        model = builtin("logistic-static")
        scenario = generate_scenario(model, expfam.bernoulli(), 50, seed=0)
        hyper = map_alpha_to_eta(1.0, 0.5, 50)
        cfg = natgrad.NatGradConfig(
            eta=hyper.eta[1:], gamma=hyper.eta[1:], fisher_mode=natgrad.MONTE_CARLO, mc_samples=4
        )
        trace = natgrad.run(scenario, cfg, 0.5 * model.init_state, 0.5 * np.eye(2))
        assert len(trace.states) == 51
        # f = Id, so the predicted mean at t is h at row t-1.
        yhats = [model.h(trace.states[t - 1], model.input_at(t)) for t in range(1, 51)]
        assert any(yhat[0] in (0.0, 1.0) for yhat in yhats)

    def test_saturated_update_keeps_only_the_transported_metric(self):
        # V = 0: the Fisher term vanishes, J = (1 - gamma) J_pred, and the
        # step is eta J^-1 G^T (y - 1).
        model = builtin("logistic-static")
        fam = expfam.bernoulli()
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4)
        u = model.input_at(1)
        metric = np.array([[2.0, 0.5], [0.5, 1.0]])
        state = natgrad.NatGradState(800.0 * u / (u @ u), metric)
        yhat = model.h(state.state, u)
        post = natgrad.update(state, 0, yhat, model, fam, cfg, 1)
        np.testing.assert_allclose(post.metric, 0.6 * metric, rtol=1e-15)
        np.testing.assert_allclose(
            post.state, state.state - 0.4 * np.linalg.solve(0.6 * metric, u), rtol=1e-12
        )


class TestUpdate:
    def test_zero_innovation_freezes_state(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        cfg = natgrad.NatGradConfig(eta=0.5, gamma=0.5)
        s = rng.standard_normal(2)
        j = random_spd(rng, 2)
        yhat = model.h(s, np.zeros(0))
        state = natgrad.update(
            natgrad.NatGradState(s, j), yhat.copy(), yhat, model, fam, cfg, 1
        )
        np.testing.assert_allclose(state.state, s, atol=1e-14)
        assert not np.allclose(state.metric, j)

    def test_gamma_one_full_replacement(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        cfg = natgrad.NatGradConfig(eta=0.5, gamma=1.0)
        s = rng.standard_normal(2)
        yhat = model.h(s, np.zeros(0))
        state = natgrad.update(
            natgrad.NatGradState(s, random_spd(rng, 2)),
            yhat + 0.1,
            yhat,
            model,
            fam,
            cfg,
            1,
        )
        h_jac = model.jac_h(s, np.zeros(0))
        expected = h_jac.T @ expfam.fisher_wrt_mean(fam, yhat) @ h_jac
        np.testing.assert_allclose(state.metric, expected, atol=1e-12)

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
            h_jac = model.jac_h(s, np.zeros(0))
            fisher = natgrad.fisher_term(yhat, h_jac, fam)
            state = natgrad.update(
                natgrad.NatGradState(s, j), yhat + 0.2, yhat, model, fam, cfg, 1
            )
            floor = min(np.linalg.eigvalsh(j).min(), np.linalg.eigvalsh(fisher).min())
            assert np.linalg.eigvalsh(state.metric).min() >= floor - 1e-10


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
        plain = natgrad.plain_online_natgrad(
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

    def test_monte_carlo_mode_deterministic_given_seed(self):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        scenario = generate_scenario(model, fam, 10, seed=3)
        cfg = natgrad.NatGradConfig(eta=0.4, gamma=0.4, fisher_mode=natgrad.MONTE_CARLO, mc_samples=8)
        a = natgrad.run(scenario, cfg, np.zeros(2), np.eye(2))
        b = natgrad.run(scenario, cfg, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(a.states, b.states)


class TestPlainOnlineNatgrad:
    def test_zero_learning_rate_freezes_parameter(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        inputs = [rng.standard_normal(2) for _ in range(10)]
        obs = [np.array([float(rng.standard_normal())]) for _ in range(10)]
        cfg = natgrad.NatGradConfig(eta=0.0, gamma=0.5)
        trace = natgrad.plain_online_natgrad(
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
                expfam.log_density(fam, y, h(theta, u))
                for u, y in zip(inputs, labels)
            )

        cfg = natgrad.NatGradConfig(eta=0.1, gamma=0.1)
        theta = np.zeros(2)
        metric = np.eye(2)
        improvements = []
        for _ in range(3):  # epochs over the same data
            trace = natgrad.plain_online_natgrad(
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
        with_jac = natgrad.plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, cfg,
            np.zeros(2), np.eye(2), jacobian_h=lambda th, u: u[None, :],
        )
        without = natgrad.plain_online_natgrad(
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
            natgrad.plain_online_natgrad(
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

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            natgrad.NatGradConfig(eta=0.5, gamma=0.5, fisher_mode="kfac")
