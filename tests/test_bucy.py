import dataclasses

import numpy as np
import pytest
import scipy.linalg

from kalgrad import bucy, expfam, natgrad
from kalgrad.errors import NonFiniteError, PositivityLostError
from kalgrad.model import ContinuousModel, builtin, mean_linearisation
from kalgrad.numerics import rk4_step, symmetrize

from conftest import random_spd
from oracles import continuous_rk4, inst_loglik


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
        family=expfam.gaussian(r),
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
    """(B, C, e) of the continuous fields' linearisation at state s for the
    observation y, with covariance r in place of the model's."""
    family = model.family if r is None else expfam.gaussian(r)
    s, u = np.asarray(s, dtype=float), np.zeros(0)
    lin = mean_linearisation(family, model.h(s, u), model.jac_h(s, u))
    return lin.jac, lin.cov, lin.residual(np.atleast_1d(np.asarray(y, dtype=float)))


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
        # the state fields coincide and d/dt (eta J^-1) = eta' J^-1 -
        # eta J^-1 dJ J^-1 is the Riccati field, with no step size.  Each
        # deviation is taken relative to the size of the terms that cancel
        # in its field: |f| and |P B^T e| for the state, and ||F P|| twice,
        # ||P B^T C B P|| and (alpha + 2 eta) ||P|| for the covariance.
        # Over 4000 points per model (J of 2-norm condition 1 to 1e6 at
        # scales 1e-2 to 1e2), both deviations were at most 1.84 cond(J)
        # eps; the bound is 8 cond(J) eps.
        eps = np.finfo(float).eps
        for name in ("pendulum-ct", "linear-ct"):
            model = builtin(name)
            n = model.dim_state
            for _ in range(200):
                s = 2.0 * rng.standard_normal(n)
                basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
                eigs = np.logspace(0.0, -rng.uniform(0.0, 6.0), n) * 10.0 ** rng.uniform(-2, 2)
                metric = symmetrize((basis * eigs) @ basis.T)
                eta, alpha, t = rng.uniform(0.01, 1.0), rng.uniform(0.0, 2.0), rng.uniform(0.0, 5.0)
                metric_inv = np.linalg.inv(metric)
                cov = eta * metric_inv

                ds_b, dcov_b = bucy.bucy_deriv(s, cov, t, model, alpha)
                ds_c, dmetric = bucy.cngd_deriv(s, metric, eta, t, model)
                deta = bucy.eta_ode(eta, alpha)
                dcov_induced = deta * metric_inv - eta * metric_inv @ dmetric @ metric_inv

                u = model.input_at(t)
                drift = model.f(s, u)
                f_cov = model.jac_f(s, u) @ cov
                state_scale = np.abs(drift).max() + np.abs(ds_b - drift).max()
                cov_scale = (
                    2.0 * np.linalg.norm(f_cov) + np.linalg.norm(cov @ fisher(model) @ cov)
                    + (alpha + 2.0 * eta) * np.linalg.norm(cov)
                )
                bound = 8.0 * np.linalg.cond(metric) * eps
                assert np.abs(ds_b - ds_c).max() <= bound * state_scale
                assert np.linalg.norm(dcov_b - dcov_induced) <= bound * cov_scale


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


class TestCheckPositive:
    # Pins the verdict of the per-step positivity check to the smallest
    # eigenvalue against the floor 1e-13 ||M||_F, with that eigenvalue at
    # `ratio` times the floor and the rest of the spectrum in [0.5, 2].  A
    # 1x1 matrix cannot hold an eigenvalue at a multiple of its own floor, so
    # there the ratio is the entry itself, and only its sign matters (the
    # zero matrix has a test of its own).
    @pytest.mark.parametrize(
        "dim, ratio",
        [(dim, ratio) for dim in (1, 2, 3, 8) for ratio in (-1.0, 0.0, 0.5, 0.9, 1.1, 2.0)
         if dim > 1 or ratio != 0.0],
    )
    def test_verdict_is_smallest_eigenvalue_against_floor(self, dim, ratio, rng):
        if dim == 1:
            mat = np.array([[ratio]])
        else:
            rest = rng.uniform(0.5, 2.0, dim - 1)
            spectrum = np.concatenate([[ratio * 1e-13 * np.linalg.norm(rest)], rest])
            basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            mat = basis @ np.diag(spectrum) @ basis.T
            mat = 0.5 * (mat + mat.T)
        lost = np.linalg.eigvalsh(mat).min() < 1e-13 * np.linalg.norm(mat)
        assert lost == (ratio < 1.0 if dim > 1 else ratio < 0.0)
        if lost:
            with pytest.raises(PositivityLostError, match="at t = 0.25"):
                bucy._check_positive(mat, "covariance", 0.25)
        else:
            bucy._check_positive(mat, "covariance", 0.25)

    # Every eigenvalue of the zero matrix sits on its floor of 0, so it has
    # no Cholesky factor and counts as lost, as diag(1, 0) does.
    @pytest.mark.parametrize("dim", [1, 2])
    def test_zero_matrix_has_lost_positivity(self, dim):
        with pytest.raises(PositivityLostError):
            bucy._check_positive(np.zeros((dim, dim)), "metric", 0.0)

    # A matrix with an inf or nan entry has no finite floor; it must fail,
    # without a numpy warning on the way.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 1), (0, 1)])
    def test_non_finite_matrix_has_lost_positivity(self, bad, entry):
        mat = np.eye(2)
        mat[entry] = mat[entry[::-1]] = bad
        with pytest.raises(PositivityLostError, match="at t = 0.5"):
            bucy._check_positive(mat, "covariance", 0.5)


class TestGridSteps:
    # Every (dt, T) the library, the tests, the example configs and the
    # benchmark integrate on, dt = T, and T = 0.3, where 3 steps of 0.1 end
    # one ulp past T.
    @pytest.mark.parametrize(
        "dt, horizon, steps",
        [(0.1, 1.0, 10), (1e-2, 1.0, 100), (1e-3, 1.0, 1000), (1e-4, 1.0, 10000),
         (1e-2, 0.1, 10), (1e-3, 0.1, 100), (0.0025, 1.0, 400), (0.02, 1.0, 50),
         (0.1, 0.5, 5), (1.0, 1.0, 1), (3.0, 3.0, 1), (0.1, 0.3, 3)],
    )
    def test_accepts_a_step_that_divides_the_horizon(self, dt, horizon, steps):
        assert bucy.grid_steps(dt, horizon) == steps

    # round(1 / 0.4) = 2 and round(1 / 0.3) = 3 would end the grid at 0.8
    # and 0.9; round(1 / 0.7) = 1 at 0.7.
    @pytest.mark.parametrize("dt", [0.3, 0.4, 0.7])
    def test_refuses_a_grid_that_misses_the_horizon(self, dt):
        message = f"need a dt that divides T = 1, got {dt:g}"
        with pytest.raises(ValueError, match=message):
            bucy.grid_steps(dt, 1.0)
        with pytest.raises(ValueError, match=message):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), scalar_integrator_model(), dt, 1.0)


class TestIntegrate:
    def test_constant_state_zero_field(self):
        model = make_ct(
            2, 1,
            f=lambda s, u: np.zeros(2),
            h=lambda s, u: np.zeros(1),
            jac_f=lambda s, u: np.zeros((2, 2)),
            jac_h=lambda s, u: np.zeros((1, 2)),
        )
        trace = bucy.integrate(bucy.BUCY, np.array([0.3, -0.8]), np.eye(2), model, 0.01, 1.0)
        np.testing.assert_allclose(trace.states[-1], [0.3, -0.8], atol=1e-14)
        np.testing.assert_allclose(trace.covs[-1], np.eye(2), atol=1e-14)

    def test_scalar_riccati_closed_form(self):
        # Oracle: P(t) = P0 / (1 + P0 t) for dP/dt = -P^2.
        model = scalar_integrator_model()
        p0 = 2.0
        trace = bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[p0]]), model, 1e-3, 1.0)
        assert abs(trace.covs[-1, 0, 0] - p0 / (1.0 + p0)) < 1e-8

    def test_pendulum_self_convergence(self):
        # Halving dt must shrink the deviation from a finer reference by
        # at least 8x (order 3 or better for this fourth-order scheme).
        model = builtin("pendulum-ct")

        def states_at(dt):
            return bucy.integrate(
                bucy.BUCY, model.init_state, 0.5 * np.eye(2), model, dt, 1.0, alpha=0.2
            ).states

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
        trace = bucy.integrate(bucy.CNGD, np.array([0.5, -0.5]), j0, model, 1e-3, 1.0, eta0=0.5)
        expm = scipy.linalg.expm
        exact = expm(-f_mat.T) @ j0 @ expm(-f_mat) / (1.0 + 0.5)
        assert np.linalg.norm(trace.metrics[-1] - exact) < 1e-8

    def test_eta_co_integration_logistic(self):
        model = scalar_integrator_model()
        trace = bucy.integrate(bucy.CNGD, np.zeros(1), np.eye(1), model, 1e-3, 1.0, 0.5, eta0=0.1)
        exact = 0.5 / (1.0 + (0.5 / 0.1 - 1.0) * np.exp(-0.5))
        assert abs(trace.etas[-1] - exact) < 1e-10

    def test_positivity_loss_raises(self):
        # A wildly large step sends the Riccati flow negative.
        model = scalar_integrator_model()
        with pytest.raises(PositivityLostError):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[1.0]]), model, 3.0, 3.0)

    # The library against the textbook fields under plain RK4; P and J must
    # stay exactly symmetric, since the fields form P F^T as (F P)^T and
    # F^T J as (J F)^T.
    @pytest.mark.parametrize("name", ["pendulum-ct", "linear-ct"])
    def test_matches_textbook_reference(self, name):
        model = builtin(name)
        n = model.dim_state
        p0, eta0, alpha = 0.5 * np.eye(n), 0.5, 0.2
        j0 = eta0 * np.linalg.inv(p0)
        tb = bucy.integrate(bucy.BUCY, model.init_state, p0, model, 0.01, 1.0, alpha)
        tc = bucy.integrate(bucy.CNGD, model.init_state, j0, model, 0.01, 1.0, alpha, eta0)
        ref_b = continuous_rk4("bucy", model, model.init_state, p0, 0.01, 1.0, alpha)
        ref_c = continuous_rk4("cngd", model, model.init_state, j0, 0.01, 1.0, alpha, eta0)
        pairs = [(tb.states, ref_b[0]), (tb.covs, ref_b[1]),
                 (tc.states, ref_c[0]), (tc.metrics, ref_c[1]), (tc.etas, ref_c[2])]
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        for mats in (tb.covs, tc.metrics):
            np.testing.assert_array_equal(mats, mats.transpose(0, 2, 1))

    # y(t) is inf from t = 0.5, the last stage of the step from t = 0.4.
    @pytest.mark.parametrize("kind", [bucy.BUCY, bucy.CNGD])
    def test_error_in_a_step_names_side_and_time(self, kind):
        model = dataclasses.replace(
            scalar_integrator_model(), obs_path=lambda t: np.array([np.inf if t >= 0.5 else 0.0])
        )
        with pytest.raises(NonFiniteError) as info:
            bucy.integrate(kind, np.zeros(1), np.eye(1), model, 0.1, 1.0, eta0=0.5)
        cause = {
            bucy.BUCY: "derivative non-finite at t = 0.5",
            bucy.CNGD: "SPD solve right-hand side has non-finite entries",
        }[kind]
        assert str(info.value) == f"{kind} step from t = 0.4: {cause}"

    def test_bad_config(self):
        model = scalar_integrator_model()
        for dt, horizon in ((0.0, 1.0), (2.0, 1.0), (float("nan"), 1.0)):
            with pytest.raises(ValueError):
                bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), model, dt, horizon)

    def test_nan_fading_weight_rejected(self):
        # A constant on entry, a callable when it is evaluated.
        model = scalar_integrator_model()
        for alpha in (float("nan"), lambda t: float("nan")):
            with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
                bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), model, 0.1, 1.0, alpha)

    def test_negative_fading_weight_rejected(self):
        # As for a discrete alpha schedule: a constant on entry, a callable
        # when it is evaluated.
        model = scalar_integrator_model()
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), model, 0.1, 1.0, -0.5)
        ramp = lambda t: 0.5 - t
        # alpha(0.5) = 0 is accepted, and the step from 0.5 evaluates alpha(0.55) < 0.
        trace = bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), model, 0.1, 0.5, ramp)
        assert trace.times[-1] == 0.5
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.eye(1), model, 0.1, 1.0, ramp)

    # eta0 follows numerics.check_eta0, the rule of initial_metric and the
    # CLI: one that is not finite and > 0 is an invalid argument, refused
    # before the first step could fail on it.
    @pytest.mark.parametrize("eta0", [np.inf, np.nan, 0.0, -1.0])
    def test_undefined_eta0_rejected(self, eta0):
        model = scalar_integrator_model()
        with pytest.raises(ValueError, match=f"^must be positive and finite, got {eta0:g}$"):
            bucy.integrate(bucy.CNGD, np.zeros(1), np.eye(1), model, 0.1, 1.0, eta0=eta0)
        with pytest.raises(ValueError, match="^cngd needs the initial rate eta0$"):
            bucy.integrate(bucy.CNGD, np.zeros(1), np.eye(1), model, 0.1, 1.0)
