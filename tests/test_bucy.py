import numpy as np
import pytest
import scipy.linalg

from kalgrad import bucy, expfam, natgrad
from kalgrad.errors import PositivityLostError
from kalgrad.model import ContinuousModel, builtin
from kalgrad.numerics import rk4_step

from conftest import random_spd


def make_ct(dim_state, dim_obs, f, h, jac_f, jac_h, r=None, y_path=None, name="ct-test"):
    r = np.eye(dim_obs) if r is None else np.atleast_2d(r)
    y_path = y_path or (lambda t: np.zeros(dim_obs))
    return ContinuousModel(
        name=name,
        dim_state=dim_state,
        dim_input=0,
        dim_obs=dim_obs,
        f=f,
        h=h,
        jacobian_f=jac_f,
        jacobian_h=jac_h,
        input_fn=lambda t: np.zeros(0),
        obs_cov=lambda t: r,
        obs_path=y_path,
        init_state=np.zeros(dim_state),
    )


def scalar_integrator_model():
    """f = 0, h = s, R = 1: the covariance obeys dP/dt = -P^2 + alpha P."""
    return make_ct(
        1, 1,
        f=lambda s, u: np.zeros(1),
        h=lambda s, u: s.copy(),
        jac_f=lambda s, u: np.zeros((1, 1)),
        jac_h=lambda s, u: np.eye(1),
        name="scalar-integrator",
    )


class TestInstLoglik:
    def test_zero_prediction(self):
        h = lambda s, u: np.zeros(1)
        assert bucy.inst_loglik([3.0], np.zeros(1), np.zeros(0), np.eye(1), h) == 0.0

    def test_scalar_forced(self):
        h = lambda s, u: np.ones(1)
        out = bucy.inst_loglik([1.0], np.zeros(1), np.zeros(0), np.eye(1), h)
        assert abs(out - 0.5) < 1e-15

    def test_maximized_at_observation(self):
        # Derivative in the predicted value changes sign at h = y.
        y = np.array([0.7])
        r = np.array([[2.0]])

        def loglik_of_h(val):
            return bucy.inst_loglik(y, np.zeros(1), np.zeros(0), r, lambda s, u: np.array([val]))

        eps = 1e-6
        grad_at_y = (loglik_of_h(0.7 + eps) - loglik_of_h(0.7 - eps)) / (2 * eps)
        assert abs(grad_at_y) < 1e-8
        assert loglik_of_h(0.7) > loglik_of_h(0.0)
        assert loglik_of_h(0.7) > loglik_of_h(1.4)


class TestInstLoglikGrad:
    def test_zero_error(self, rng):
        model = builtin("pendulum-ct")
        s = rng.standard_normal(2)
        u = np.zeros(0)
        y = model.h(s, u)
        grad = bucy.inst_loglik_grad(y, s, u, np.eye(1), model.jac_h(s, u), model.h)
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-15)

    def test_zero_jacobian(self):
        h = lambda s, u: np.array([s[0] * 0.0])
        grad = bucy.inst_loglik_grad([1.0], np.zeros(2), np.zeros(0), np.eye(1), np.zeros((1, 2)), h)
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_matches_finite_differences(self, rng):
        # Oracle: central differences of inst_loglik in the state.
        model = builtin("pendulum-ct")
        u = np.zeros(0)
        for _ in range(100):
            s = rng.standard_normal(2)
            y = rng.standard_normal(1)
            r = np.array([[rng.uniform(0.5, 2.0)]])
            grad = bucy.inst_loglik_grad(y, s, u, r, model.jac_h(s, u), model.h)
            fd = np.zeros(2)
            eps = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[j] = (
                    bucy.inst_loglik(y, s + e, u, r, model.h)
                    - bucy.inst_loglik(y, s - e, u, r, model.h)
                ) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestInstFisher:
    def test_identity(self):
        np.testing.assert_allclose(bucy.inst_fisher(np.eye(2), np.eye(2)), np.eye(2))

    def test_scalar_forced(self):
        np.testing.assert_allclose(
            bucy.inst_fisher(np.array([[2.0]]), np.array([[4.0]])), [[1.0]]
        )

    def test_matches_discrete_fisher_term(self, rng):
        # Cross-module identity: same H and R must give the same matrix as
        # the discrete exact-mode Fisher term for a gaussian family.
        for _ in range(10):
            h_jac = rng.standard_normal((2, 3))
            r = random_spd(rng, 2)
            cont = bucy.inst_fisher(h_jac, r)
            fam = expfam.gaussian(r)
            disc = natgrad.fisher_term(np.zeros(2), h_jac, fam, mode=natgrad.EXACT)
            np.testing.assert_allclose(cont, disc, atol=1e-12)


class TestBucyDeriv:
    def test_equilibrium(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.zeros(1),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.zeros((1, 2)),
        )
        state = bucy.BucyState(np.array([0.4, -0.2]), np.eye(2), 0.0)
        ds, dcov = bucy.bucy_deriv(state, lambda t: np.zeros(1), model, alpha=0.0)
        np.testing.assert_array_equal(ds, np.zeros(2))
        np.testing.assert_array_equal(dcov, np.zeros((2, 2)))

    def test_scalar_riccati_field(self):
        model = scalar_integrator_model()
        state = bucy.BucyState(np.zeros(1), np.array([[1.5]]), 0.0)
        _, dcov = bucy.bucy_deriv(state, lambda t: np.zeros(1), model, alpha=0.0)
        np.testing.assert_allclose(dcov, [[-(1.5**2)]])

    def test_alpha_adds_linearly(self, rng):
        model = builtin("pendulum-ct")
        cov = random_spd(rng, 2)
        state = bucy.BucyState(rng.standard_normal(2), cov, 0.3)
        _, d0 = bucy.bucy_deriv(state, model.obs_path, model, alpha=0.0)
        _, d1 = bucy.bucy_deriv(state, model.obs_path, model, alpha=0.7)
        np.testing.assert_allclose(d1 - d0, 0.7 * cov, atol=1e-12)


class TestCngdDeriv:
    def test_frozen_metric(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.array([s[0]]),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.array([[1.0, 0.0]]),
        )
        state = bucy.CngdState(np.zeros(2), np.eye(2), eta=0.5, t=0.0)
        _, dmetric = bucy.cngd_deriv(state, lambda t: np.ones(1), model, gamma=0.0)
        np.testing.assert_array_equal(dmetric, np.zeros((2, 2)))

    def test_zero_innovation_follows_dynamics(self, rng):
        model = builtin("pendulum-ct")
        s = rng.standard_normal(2)
        state = bucy.CngdState(s, random_spd(rng, 2), eta=0.4, t=0.2)
        y_path = lambda t: model.h(s, np.zeros(0))
        ds, _ = bucy.cngd_deriv(state, y_path, model, gamma=0.4)
        np.testing.assert_allclose(ds, model.f(s, np.zeros(0)), atol=1e-14)

    def test_pointwise_identity_with_bucy(self, rng):
        # At any state with P = eta * J^-1 and deta/dt = alpha eta - eta^2,
        # the covariance produced by the metric/learning-rate flow matches
        # the filter's covariance flow, and the state flows coincide.
        model = builtin("pendulum-ct")
        for _ in range(25):
            s = rng.standard_normal(2)
            metric = random_spd(rng, 2)
            eta = rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.0, 1.0)
            t = rng.uniform(0.0, 1.0)
            cov = eta * np.linalg.inv(metric)

            ds_b, dcov_b = bucy.bucy_deriv(
                bucy.BucyState(s, cov, t), model.obs_path, model, alpha
            )
            ds_c, dmetric = bucy.cngd_deriv(
                bucy.CngdState(s, metric, eta, t), model.obs_path, model, gamma=eta
            )
            deta = bucy.eta_ode(eta, alpha)
            metric_inv = np.linalg.inv(metric)
            dcov_induced = deta * metric_inv - eta * metric_inv @ dmetric @ metric_inv

            scale = max(1.0, np.linalg.norm(dcov_b))
            assert np.linalg.norm(dcov_b - dcov_induced) <= 1e-10 * scale
            assert np.abs(ds_b - ds_c).max() <= 1e-10 * max(1.0, np.abs(ds_b).max())


class TestEtaOde:
    def test_fixed_point(self):
        assert bucy.eta_ode(0.3, 0.3) == 0.0

    def test_alpha_zero_closed_form(self):
        # Oracle: deta/dt = -eta^2 integrates to 1 / (t + 1/eta_0).
        eta = 1.0
        dt = 1e-3
        for i in range(1000):
            eta = rk4_step(
                lambda t, v: np.array([bucy.eta_ode(v[0], 0.0)]),
                np.array([eta]), i * dt, dt,
            )[0]
        assert abs(eta - 0.5) < 1e-10

    def test_logistic_closed_form(self):
        # Oracle: for constant alpha the flow is logistic,
        # eta(t) = alpha / (1 + (alpha/eta0 - 1) exp(-alpha t)).
        alpha, eta0, horizon = 0.5, 0.1, 10.0
        dt = 1e-3
        eta = eta0
        n = int(round(horizon / dt))
        for i in range(n):
            eta = rk4_step(
                lambda t, v: np.array([bucy.eta_ode(v[0], alpha)]),
                np.array([eta]), i * dt, dt,
            )[0]
        exact = alpha / (1.0 + (alpha / eta0 - 1.0) * np.exp(-alpha * horizon))
        assert abs(eta - exact) < 1e-8


class TestIntegrate:
    def test_constant_state_zero_field(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.zeros(1),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.zeros((1, 2)),
        )
        cfg = bucy.IntegratorConfig(dt=0.01, horizon=1.0, alpha=0.0)
        init = bucy.BucyState(np.array([0.3, -0.8]), np.eye(2))
        trace = bucy.integrate(bucy.BUCY, init, model, cfg)
        np.testing.assert_allclose(trace.states[-1], [0.3, -0.8], atol=1e-14)
        np.testing.assert_allclose(trace.covs[-1], np.eye(2), atol=1e-14)

    def test_scalar_riccati_closed_form(self):
        # Oracle: P(t) = P0 / (1 + P0 t) for dP/dt = -P^2.
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.0)
        p0 = 2.0
        trace = bucy.integrate(
            bucy.BUCY, bucy.BucyState(np.zeros(1), np.array([[p0]])), model, cfg
        )
        assert abs(trace.covs[-1, 0, 0] - p0 / (1.0 + p0)) < 1e-8

    def test_pendulum_self_convergence(self):
        # Halving dt must shrink the deviation from a finer reference by
        # at least 8x (order 3 or better for this fourth-order scheme).
        model = builtin("pendulum-ct")
        init = bucy.BucyState(model.init_state, 0.5 * np.eye(2))

        def states_at(dt):
            cfg = bucy.IntegratorConfig(dt=dt, horizon=1.0, alpha=0.2)
            return bucy.integrate(bucy.BUCY, init, model, cfg).states

        ref = states_at(0.0025)
        coarse = states_at(0.02)
        fine = states_at(0.01)
        dev_coarse = np.abs(coarse - ref[::8]).max()
        dev_fine = np.abs(fine - ref[::4]).max()
        assert dev_coarse / dev_fine >= 8.0

    def test_frozen_tensor_under_linear_flow(self):
        # With H = 0 and alpha = 0 the metric feels the chart motion and the
        # decay at gamma = eta: dJ/dt = -F^T J - J F - eta J, with
        # eta(t) = eta0 / (1 + eta0 t), whose closed form is
        # J(t) = expm(-F^T t) J0 expm(-F t) / (1 + eta0 t).
        f_mat = np.array([[0.1, 0.6], [-0.4, -0.2]])
        model = make_ct(
            2, 1,
            f=lambda s, u: f_mat @ s,
            h=lambda s, u: np.zeros(1),
            jac_f=lambda s, u: f_mat.copy(),
            jac_h=lambda s, u: np.zeros((1, 2)),
        )
        j0 = np.array([[2.0, 0.3], [0.3, 1.0]])
        cfg = bucy.IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.0)
        trace = bucy.integrate(
            bucy.CNGD, bucy.CngdState(np.array([0.5, -0.5]), j0, eta=0.5), model, cfg
        )
        expm = scipy.linalg.expm
        exact = expm(-f_mat.T) @ j0 @ expm(-f_mat) / (1.0 + 0.5)
        assert np.linalg.norm(trace.metrics[-1] - exact) < 1e-8

    def test_eta_co_integration_logistic(self):
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.5)
        trace = bucy.integrate(
            bucy.CNGD, bucy.CngdState(np.zeros(1), np.eye(1), eta=0.1), model, cfg
        )
        exact = 0.5 / (1.0 + (0.5 / 0.1 - 1.0) * np.exp(-0.5))
        assert abs(trace.etas[-1] - exact) < 1e-10

    def test_positivity_loss_raises(self):
        # A wildly large step sends the Riccati flow negative.
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=3.0, horizon=3.0, alpha=0.0)
        with pytest.raises(PositivityLostError):
            bucy.integrate(
                bucy.BUCY, bucy.BucyState(np.zeros(1), np.array([[1.0]])), model, cfg
            )

    def test_bad_config(self):
        with pytest.raises(ValueError):
            bucy.IntegratorConfig(dt=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            bucy.IntegratorConfig(dt=2.0, horizon=1.0)
