import dataclasses

import numpy as np
import pytest
import scipy.linalg

from kalgrad import bucy, expfam, natgrad
from kalgrad.errors import PositivityLostError
from kalgrad.model import ContinuousModel, builtin, mean_linearisation
from kalgrad.numerics import rk4_step

from conftest import random_spd
from oracles import inst_loglik


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


def linearised(model, s, y, r=None):
    """(B, C, e) of the continuous linearisation at t = 0 for the
    observation y, with covariance r in place of the model's."""
    if r is not None:
        model = dataclasses.replace(model, obs_cov=lambda t: np.atleast_2d(r))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    model = dataclasses.replace(model, obs_path=lambda t: y)
    return bucy.gaussian_linearisation(model, np.asarray(s, dtype=float), np.zeros(0), 0.0)


def score(model, s, y, r=None):
    """Row gradient of the instantaneous log-likelihood in the state: e B."""
    obs_jac, _, resid = linearised(model, s, y, r)
    return resid @ obs_jac


def fisher(model, r=None):
    """Instantaneous Fisher matrix in the current-state chart: B^T C B."""
    obs_jac, obs_cov, _ = linearised(model, np.zeros(model.dim_state), np.zeros(model.dim_obs), r)
    return obs_jac.T @ obs_cov @ obs_jac


def linear_ct(h_mat, r):
    """Static continuous model observed through y = H s with covariance r."""
    h_mat = np.atleast_2d(h_mat)
    dim_obs, dim_state = h_mat.shape
    return make_ct(
        dim_state, dim_obs,
        f=lambda s, u: np.zeros(dim_state),
        h=lambda s, u: h_mat @ s,
        jac_f=lambda s, u: np.zeros((dim_state, dim_state)),
        jac_h=lambda s, u: h_mat.copy(),
        r=r,
    )


class TestInstLoglik:
    def test_zero_prediction(self):
        h = lambda s, u: np.zeros(1)
        assert inst_loglik([3.0], np.zeros(1), np.zeros(0), np.eye(1), h) == 0.0

    def test_scalar_forced(self):
        h = lambda s, u: np.ones(1)
        out = inst_loglik([1.0], np.zeros(1), np.zeros(0), np.eye(1), h)
        assert abs(out - 0.5) < 1e-15

    def test_maximized_at_observation(self):
        # Derivative in the predicted value changes sign at h = y.
        y = np.array([0.7])
        r = np.array([[2.0]])

        def loglik_of_h(val):
            return inst_loglik(y, np.zeros(1), np.zeros(0), r, lambda s, u: np.array([val]))

        eps = 1e-6
        grad_at_y = (loglik_of_h(0.7 + eps) - loglik_of_h(0.7 - eps)) / (2 * eps)
        assert abs(grad_at_y) < 1e-8
        assert loglik_of_h(0.7) > loglik_of_h(0.0)
        assert loglik_of_h(0.7) > loglik_of_h(1.4)


class TestInstLoglikGrad:
    def test_zero_error(self, rng):
        model = builtin("pendulum-ct")
        s = rng.standard_normal(2)
        grad = score(model, s, model.h(s, np.zeros(0)))
        np.testing.assert_allclose(grad, np.zeros(2), atol=1e-15)

    def test_zero_jacobian(self):
        grad = score(linear_ct(np.zeros((1, 2)), np.eye(1)), np.zeros(2), [1.0])
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_matches_finite_differences(self, rng):
        # Oracle: central differences of inst_loglik in the state.
        model = builtin("pendulum-ct")
        u = np.zeros(0)
        for _ in range(100):
            s = rng.standard_normal(2)
            y = rng.standard_normal(1)
            r = np.array([[rng.uniform(0.5, 2.0)]])
            grad = score(model, s, y, r)
            fd = np.zeros(2)
            eps = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                fd[j] = (
                    inst_loglik(y, s + e, u, r, model.h)
                    - inst_loglik(y, s - e, u, r, model.h)
                ) / (2 * eps)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestInstFisher:
    def test_identity(self):
        np.testing.assert_allclose(fisher(linear_ct(np.eye(2), np.eye(2))), np.eye(2))

    def test_scalar_forced(self):
        np.testing.assert_allclose(fisher(linear_ct([[2.0]], [[4.0]])), [[1.0]])

    def test_matches_discrete_fisher_term(self, rng):
        # Cross-module identity: same H and R must give H^T R^-1 H, and the
        # same matrix as the discrete Fisher term for a gaussian family.
        for _ in range(10):
            h_jac = rng.standard_normal((2, 3))
            r = random_spd(rng, 2)
            cont = fisher(linear_ct(h_jac, r))
            fam = expfam.gaussian(r)
            disc = natgrad.fisher_term(mean_linearisation(fam, np.zeros(2), h_jac))
            np.testing.assert_allclose(cont, disc, atol=1e-12)
            np.testing.assert_allclose(cont, h_jac.T @ np.linalg.inv(r) @ h_jac, atol=1e-12)


class TestBucyDeriv:
    def test_equilibrium(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.zeros(1),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.zeros((1, 2)),
        )
        ds, dcov = bucy.bucy_deriv(np.array([0.4, -0.2]), np.eye(2), 0.0, model, alpha=0.0)
        np.testing.assert_array_equal(ds, np.zeros(2))
        np.testing.assert_array_equal(dcov, np.zeros((2, 2)))

    def test_scalar_riccati_field(self):
        model = scalar_integrator_model()
        _, dcov = bucy.bucy_deriv(np.zeros(1), np.array([[1.5]]), 0.0, model, alpha=0.0)
        np.testing.assert_allclose(dcov, [[-(1.5**2)]])

    def test_alpha_adds_linearly(self, rng):
        model = builtin("pendulum-ct")
        cov = random_spd(rng, 2)
        s = rng.standard_normal(2)
        _, d0 = bucy.bucy_deriv(s, cov, 0.3, model, alpha=0.0)
        _, d1 = bucy.bucy_deriv(s, cov, 0.3, model, alpha=0.7)
        np.testing.assert_allclose(d1 - d0, 0.7 * cov, atol=1e-12)


class TestCngdDeriv:
    def test_frozen_metric(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.array([s[0]]),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.array([[1.0, 0.0]]),
            y_path=lambda t: np.ones(1),
        )
        # gamma = eta = 0 and F = 0: nothing moves the metric.
        _, dmetric = bucy.cngd_deriv(np.zeros(2), np.eye(2), 0.0, 0.0, model)
        np.testing.assert_array_equal(dmetric, np.zeros((2, 2)))

    def test_zero_innovation_follows_dynamics(self, rng):
        base = builtin("pendulum-ct")
        s = rng.standard_normal(2)
        model = dataclasses.replace(base, obs_path=lambda t: base.h(s, np.zeros(0)))
        ds, _ = bucy.cngd_deriv(s, random_spd(rng, 2), 0.4, 0.2, model)
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

            ds_b, dcov_b = bucy.bucy_deriv(s, cov, t, model, alpha)
            ds_c, dmetric = bucy.cngd_deriv(s, metric, eta, t, model)
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
        trace = bucy.integrate(bucy.BUCY, np.array([0.3, -0.8]), np.eye(2), model, cfg)
        np.testing.assert_allclose(trace.states[-1], [0.3, -0.8], atol=1e-14)
        np.testing.assert_allclose(trace.covs[-1], np.eye(2), atol=1e-14)

    def test_scalar_riccati_closed_form(self):
        # Oracle: P(t) = P0 / (1 + P0 t) for dP/dt = -P^2.
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.0)
        p0 = 2.0
        trace = bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[p0]]), model, cfg)
        assert abs(trace.covs[-1, 0, 0] - p0 / (1.0 + p0)) < 1e-8

    def test_pendulum_self_convergence(self):
        # Halving dt must shrink the deviation from a finer reference by
        # at least 8x (order 3 or better for this fourth-order scheme).
        model = builtin("pendulum-ct")

        def states_at(dt):
            cfg = bucy.IntegratorConfig(dt=dt, horizon=1.0, alpha=0.2)
            return bucy.integrate(bucy.BUCY, model.init_state, 0.5 * np.eye(2), model, cfg).states

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
        trace = bucy.integrate(bucy.CNGD, np.array([0.5, -0.5]), j0, model, cfg, eta0=0.5)
        expm = scipy.linalg.expm
        exact = expm(-f_mat.T) @ j0 @ expm(-f_mat) / (1.0 + 0.5)
        assert np.linalg.norm(trace.metrics[-1] - exact) < 1e-8

    def test_eta_co_integration_logistic(self):
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=1e-3, horizon=1.0, alpha=0.5)
        trace = bucy.integrate(bucy.CNGD, np.zeros(1), np.eye(1), model, cfg, eta0=0.1)
        exact = 0.5 / (1.0 + (0.5 / 0.1 - 1.0) * np.exp(-0.5))
        assert abs(trace.etas[-1] - exact) < 1e-10

    def test_positivity_loss_raises(self):
        # A wildly large step sends the Riccati flow negative.
        model = scalar_integrator_model()
        cfg = bucy.IntegratorConfig(dt=3.0, horizon=3.0, alpha=0.0)
        with pytest.raises(PositivityLostError):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[1.0]]), model, cfg)

    def test_bad_config(self):
        with pytest.raises(ValueError):
            bucy.IntegratorConfig(dt=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            bucy.IntegratorConfig(dt=2.0, horizon=1.0)

    def test_negative_fading_weight_rejected(self):
        # As for ekf.EkfConfig: a constant when the config is built, a
        # callable when it is evaluated.
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            bucy.IntegratorConfig(dt=0.1, horizon=1.0, alpha=-0.5)
        cfg = bucy.IntegratorConfig(dt=0.1, horizon=1.0, alpha=lambda t: 0.5 - t)
        assert cfg.alpha_at(0.5) == 0.0
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            cfg.alpha_at(0.6)
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), scalar_integrator_model(), cfg)
