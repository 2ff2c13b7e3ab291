import dataclasses

import numpy as np
import pytest
import scipy.linalg

from kalgrad import bucy, equivalence, expfam, natgrad
from kalgrad.errors import NonFiniteError, PositivityLostError, SingularMatrixError
from kalgrad.model import ContinuousModel, builtin, mean_linearisation
from kalgrad.numerics import rk4_step, symmetrize

from conftest import gradient_metrics, random_spd, upper_factor
from oracles import continuous_rk4, hidden_ct, inst_loglik


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


def linearised(model, s, r=None):
    """The continuous fields' linearisation at state s, with covariance r
    in place of the model's."""
    family = model.family if r is None else expfam.gaussian(r)
    s, u = np.asarray(s, dtype=float), np.zeros(0)
    return mean_linearisation(family, model.h(s, u), model.jac_h(s, u))


def covariance_rate(factor, dfactor):
    """dP/dt = dS S^T + S dS^T of a covariance P = S S^T moving at dS/dt."""
    return dfactor @ factor.T + factor @ dfactor.T


def read_at(model, t):
    """(u_t, y(t)), as the integrator reads them once per stage at time t
    and passes them to both fields."""
    return model.input_at(t), np.atleast_1d(model.obs_path(t))


def score(model, s, y, r=None):
    """Row gradient of the instantaneous log-likelihood in the state: e B."""
    lin = linearised(model, s, r)
    return lin.residual(np.atleast_1d(np.asarray(y, dtype=float))) @ lin.jac


def fisher(model, r=None):
    """Instantaneous Fisher matrix in the current-state chart, B^T C B, as
    W^T W for the Fisher rows W the factor flow reads."""
    rows = natgrad.fisher_rows(linearised(model, np.zeros(model.dim_state), r))
    return rows.T @ rows


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
            rows = natgrad.fisher_rows(mean_linearisation(fam, np.zeros(2), h_jac))
            disc = rows.T @ rows
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
        s = np.array([0.4, -0.2])
        ds, dcov = bucy.bucy_deriv(s, np.eye(2), model, *read_at(model, 0.0), alpha=0.0)
        np.testing.assert_array_equal(ds, np.zeros(2))
        np.testing.assert_array_equal(dcov, np.zeros((2, 2)))

    # The factor field read as the covariance it moves: dP/dt = -P^2.
    def test_scalar_riccati_field(self):
        model = scalar_integrator_model()
        factor = np.sqrt([[1.5]])
        _, dfactor = bucy.bucy_deriv(np.zeros(1), factor, model, *read_at(model, 0.0), alpha=0.0)
        np.testing.assert_allclose(covariance_rate(factor, dfactor), [[-(1.5**2)]])

    def test_alpha_adds_linearly(self, rng):
        model = builtin("pendulum-ct")
        cov = random_spd(rng, 2)
        factor = np.linalg.cholesky(cov)
        s = rng.standard_normal(2)
        _, d0 = bucy.bucy_deriv(s, factor, model, *read_at(model, 0.3), alpha=0.0)
        _, d1 = bucy.bucy_deriv(s, factor, model, *read_at(model, 0.3), alpha=0.7)
        assert not np.triu(d1, 1).any()
        rates = [covariance_rate(factor, d) for d in (d0, d1)]
        np.testing.assert_allclose(rates[1] - rates[0], 0.7 * cov, atol=1e-12)

    # A factor with a zero pivot has no M = S^-1 F S.
    def test_singular_factor_raises(self):
        model = builtin("pendulum-ct")
        factor = np.array([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(SingularMatrixError, match="^covariance factor is singular$"):
            bucy.bucy_deriv(np.zeros(2), factor, model, *read_at(model, 0.0), alpha=0.0)


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
        # gamma = eta = 0 and F = 0: nothing moves the metric's factor.
        _, dfactor = bucy.cngd_deriv(np.zeros(2), np.eye(2), 0.0, 0.0, model, *read_at(model, 0.0))
        np.testing.assert_array_equal(dfactor, np.zeros((2, 2)))

    def test_zero_innovation_follows_dynamics(self, rng):
        base = builtin("pendulum-ct")
        s = rng.standard_normal(2)
        model = dataclasses.replace(base, obs_path=lambda t: base.h(s, np.zeros(0)))
        factor = upper_factor(random_spd(rng, 2))
        ds, _ = bucy.cngd_deriv(s, factor, 0.4, 0.2, model, *read_at(model, 0.2))
        np.testing.assert_allclose(ds, model.f(s, np.zeros(0)), atol=1e-14)

    def test_pointwise_identity_with_bucy(self, rng):
        # At any state with P = eta * J^-1 = S S^T, J = U^T U, and deta/dt
        # = alpha eta - eta^2, the state fields coincide and d/dt (eta J^-1)
        # = eta' J^-1 - eta J^-1 dJ J^-1, with dJ = dU^T U + U^T dU, is
        # the Riccati field dS S^T + S dS^T, with no step size.  Each
        # deviation is taken relative to the size of the terms that cancel
        # in its field: |f| and |P B^T e| for the state, and ||F P||
        # twice, ||P B^T C B P|| and (alpha + 2 eta) ||P|| for the
        # covariance.  Over 4000 points
        # per model (J of 2-norm condition 1 to 1e6 at scales 1e-2 to
        # 1e2, default_rng(12345), S = chol(eta J^-1)), both deviations
        # were at most 1.56 cond(J) eps on pendulum-ct and 3.47 on
        # linear-ct; the bound is 8 cond(J) eps.
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

                cov_factor = np.linalg.cholesky(cov)
                ds_b, dcov_factor = bucy.bucy_deriv(s, cov_factor, model, *read_at(model, t), alpha)
                assert not np.triu(dcov_factor, 1).any()
                dcov_b = covariance_rate(cov_factor, dcov_factor)
                factor = upper_factor(metric)
                ds_c, dfactor = bucy.cngd_deriv(s, factor, eta, t, model, *read_at(model, t))
                assert not np.tril(dfactor, -1).any()
                dmetric = dfactor.T @ factor + factor.T @ dfactor
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
    # A triangular factor F has F F^T and F^T F positive definite exactly
    # when it is finite with a positive diagonal, whatever its scale: the
    # metric's upper U, and its transpose as the covariance's lower S.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "diag, upper, lost",
        [((1.0, 2.0), 0.5, False), ((1e-300, 1.0), 1e300, False), ((1.0, 0.0), 0.5, True),
         ((-1.0, 1.0), 0.5, True), ((1.0, np.nan), 0.5, True), ((1.0, 1.0), np.inf, True)],
    )
    def test_factor_check_reads_finiteness_and_the_diagonal(self, diag, upper, lost):
        factor = np.diag(diag)
        factor[0, 1] = upper
        sides = [(bucy.CNGD, factor, [0.5], "metric"), (bucy.BUCY, factor.T, [], "covariance")]
        for kind, side_factor, tail, label in sides:
            check = bucy._factor_check([kind], [0], 2)
            z = np.concatenate([np.zeros(2), side_factor.ravel(), tail])
            if lost:
                with pytest.raises(PositivityLostError, match=f"^{label} lost positive definiteness at t = 0.5$"):
                    check(z, 0.5)
            else:
                check(z, 0.5)


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
        assert np.linalg.norm(gradient_metrics(trace)[-1] - exact) < 1e-8

    def test_eta_co_integration_logistic(self):
        model = scalar_integrator_model()
        trace = bucy.integrate(bucy.CNGD, np.zeros(1), np.eye(1), model, 1e-3, 1.0, 0.5, eta0=0.1)
        exact = 0.5 / (1.0 + (0.5 / 0.1 - 1.0) * np.exp(-0.5))
        assert abs(trace.etas[-1] - exact) < 1e-10

    # A wildly large step: at dt = T = 3 the scalar factor flow
    # dS/dt = -S^3 / 2 stays positive, while at dt = T = 4 the second RK4
    # stage reaches S = 1 - 2 * 0.5 = 0 exactly, P = 0, which the field
    # cannot read.
    def test_positivity_loss_raises(self):
        model = scalar_integrator_model()
        trace = bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[1.0]]), model, 3.0, 3.0)
        assert 0.0 < trace.covs[-1, 0, 0] < 1.0
        with pytest.raises(SingularMatrixError, match="^bucy step from t = 0: covariance factor is singular$"):
            bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[1.0]]), model, 4.0, 4.0)

    # After a step whose stages are all finite, the stack's positivity
    # test names the first side whose factor fails it, at the step's end.
    @pytest.mark.parametrize("bad, label", [((1,), "covariance"), ((3,), "metric"), ((1, 3), "covariance")])
    def test_a_step_that_leaves_a_non_positive_factor_names_its_side(self, bad, label, monkeypatch):
        step = bucy.rk4_step

        def flipping(field, z, t, dt):
            z = step(field, z, t, dt)
            if t > 0.25:
                z[list(bad)] *= -1.0
            return z

        monkeypatch.setattr(bucy, "rk4_step", flipping)
        model = scalar_integrator_model()
        with pytest.raises(PositivityLostError, match=f"^{label} lost positive definiteness at t = 0.4$"):
            bucy.run(pair_sides(model, np.zeros(1), np.eye(1)), model, 0.1, 1.0)

    # The library against the fields written plainly under plain RK4; S
    # must stay exactly lower triangular and U exactly upper triangular,
    # since dS is S Phi_L(...) and dU is Phi(...) U, and the trace's
    # P = S S^T is one product per row.
    @pytest.mark.parametrize("name", ["pendulum-ct", "linear-ct"])
    def test_matches_textbook_reference(self, name):
        model = builtin(name)
        n = model.dim_state
        p0, eta0, alpha = 0.5 * np.eye(n), 0.5, 0.2
        j0 = eta0 * np.linalg.inv(p0)
        tb = bucy.integrate(bucy.BUCY, model.init_state, p0, model, 0.01, 1.0, alpha)
        tc = bucy.integrate(bucy.CNGD, model.init_state, j0, model, 0.01, 1.0, alpha, eta0)
        ref_b = continuous_rk4("bucy", model, model.init_state, np.linalg.cholesky(p0), 0.01, 1.0,
                               alpha)
        ref_c = continuous_rk4("cngd", model, model.init_state, upper_factor(j0), 0.01, 1.0,
                               alpha, eta0)
        assert not np.triu(ref_b[1], 1).any()
        pairs = [(tb.states, ref_b[0]), (tb.covs, ref_b[1] @ ref_b[1].transpose(0, 2, 1)),
                 (tc.states, ref_c[0]), (tc.factors, ref_c[1]), (tc.etas, ref_c[2])]
        for got, ref in pairs:
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        np.testing.assert_array_equal(tb.covs, tb.covs.transpose(0, 2, 1))
        assert not np.tril(tc.factors, -1).any()

    # The textbook dense-J flow referees the factor flow: the two are RK4
    # runs of one ODE in two coordinates, so U^T U and the states tend to
    # the dense run as dt shrinks, at the scheme's order.  Measured on
    # pendulum-ct over T = 1: J 1.04e-6, 6.40e-8, 3.95e-9 relative at
    # dt = 0.1, 0.05, 0.025 (16.3x and 16.2x per halving).
    def test_factor_flow_tends_to_the_dense_flow(self):
        model = builtin("pendulum-ct")
        j0, devs = np.eye(2), []
        for dt in (0.1, 0.05, 0.025):
            tc = bucy.integrate(bucy.CNGD, model.init_state, j0, model, dt, 1.0, 0.2, 0.5)
            ref = continuous_rk4("dense-cngd", model, model.init_state, j0, dt, 1.0, 0.2, 0.5)
            devs.append([
                np.abs(gradient_metrics(tc) - ref[1]).max() / np.abs(ref[1]).max(),
                np.abs(tc.states - ref[0]).max(),
            ])
        devs = np.array(devs)
        assert (devs[:-1] / devs[1:]).min() >= 8.0, devs
        assert devs[-1].max() <= 1e-8, devs

    # The same for the filter: the dense Riccati flow referees S S^T.
    # Measured on pendulum-ct over T = 1: P 1.36e-6, 8.39e-8, 5.20e-9
    # relative at dt = 0.1, 0.05, 0.025 (16.2x and 16.1x per halving), and
    # the states 15.1x and 15.7x.
    def test_covariance_factor_flow_tends_to_the_dense_flow(self):
        model = builtin("pendulum-ct")
        p0, devs = 0.5 * np.eye(2), []
        for dt in (0.1, 0.05, 0.025):
            tb = bucy.integrate(bucy.BUCY, model.init_state, p0, model, dt, 1.0, 0.2)
            ref = continuous_rk4("dense-bucy", model, model.init_state, p0, dt, 1.0, 0.2)
            devs.append([
                np.abs(tb.covs - ref[1]).max() / np.abs(ref[1]).max(),
                np.abs(tb.states - ref[0]).max(),
            ])
        devs = np.array(devs)
        assert (devs[:-1] / devs[1:]).min() >= 8.0, devs
        assert devs[-1].max() <= 1e-8, devs

    # y(t) is inf from t = 0.5, the last stage of the step from t = 0.4.
    @pytest.mark.parametrize("kind", [bucy.BUCY, bucy.CNGD])
    def test_error_in_a_step_names_side_and_time(self, kind):
        model = dataclasses.replace(
            scalar_integrator_model(), obs_path=lambda t: np.array([np.inf if t >= 0.5 else 0.0])
        )
        with pytest.raises(NonFiniteError) as info:
            bucy.integrate(kind, np.zeros(1), np.eye(1), model, 0.1, 1.0, eta0=0.5)
        assert str(info.value) == f"{kind} step from t = 0.4: derivative non-finite at t = 0.5"

    # y(t) is nan past t = 0.27, so the step from 0.2 fails at its last
    # stage, t = 0.2 + 0.1 = 0.30000000000000004, named as every other
    # continuous time is.
    @pytest.mark.parametrize("kind", [bucy.BUCY, bucy.CNGD])
    def test_error_names_an_inexact_stage_time_rounded(self, kind):
        base = builtin("pendulum-ct")
        model = dataclasses.replace(
            base, obs_path=lambda t: np.array([np.nan]) if t > 0.27 else base.obs_path(t)
        )
        with pytest.raises(NonFiniteError) as info:
            bucy.integrate(kind, model.init_state, np.eye(2), model, 0.1, 1.0, 0.2, eta0=0.5)
        assert str(info.value) == f"{kind} step from t = 0.2: derivative non-finite at t = 0.3"

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


def pair_sides(model, s0, p0, eta0=0.5):
    """The two sides that check_continuous starts from P_0 = p0."""
    return [
        bucy.start(bucy.BUCY, s0, p0),
        bucy.start(bucy.CNGD, s0, equivalence.initial_metric(p0, eta0), eta0),
    ]


class TestPair:
    """bucy.run steps both sides of check_continuous together, one RK4 step
    of the pair per grid step; integrate is the same loop with one side."""

    # Every side's numbers depend only on its own slice of the packed
    # state and on u_t, y(t) and alpha(t), so the pair is bit for bit the
    # two sides run alone.
    @pytest.mark.parametrize("dt", [0.1, 0.01])
    @pytest.mark.parametrize(
        "system, alpha",
        [("pendulum-ct", 0.2), ("pendulum-ct", "ramp"), ("linear-ct", 0.2), ("hidden-ct", 0.2)],
    )
    def test_one_side_is_a_batch_of_one(self, system, alpha, dt):
        if system == "hidden-ct":
            model, s0, p0 = hidden_ct(1, 1.0)
        else:
            model = builtin(system)
            s0, p0 = model.init_state, 0.5 * np.eye(model.dim_state)
        if alpha == "ramp":
            alpha = lambda t: 0.1 + 0.4 * t
        metric0 = equivalence.initial_metric(p0, 0.5)
        pair = bucy.run(pair_sides(model, s0, p0), model, dt, 1.0, alpha)
        alone = [
            bucy.integrate(bucy.BUCY, s0, p0, model, dt, 1.0, alpha),
            bucy.integrate(bucy.CNGD, s0, metric0, model, dt, 1.0, alpha, 0.5),
        ]
        for got, ref in zip(pair, alone):
            for name in ("states", "covs", "factors", "etas", "times"):
                a, b = getattr(got, name), getattr(ref, name)
                assert (a is None) == (b is None), name
                if a is not None:
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    # Counted through a model whose input and observation paths count
    # their calls, and through the module's fields: one step of the pair
    # reads u_t and y(t) once per stage and evaluates each field once per
    # stage.
    def test_a_pair_step_reads_each_input_once_per_stage(self, monkeypatch):
        base = builtin("pendulum-ct")
        calls = {"input": 0, "obs": 0, bucy.BUCY: 0, bucy.CNGD: 0}

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        model = dataclasses.replace(
            base, input_fn=counting("input", base.input_fn), obs_path=counting("obs", base.obs_path)
        )
        monkeypatch.setattr(bucy, "bucy_deriv", counting(bucy.BUCY, bucy.bucy_deriv))
        monkeypatch.setattr(bucy, "cngd_deriv", counting(bucy.CNGD, bucy.cngd_deriv))
        sides = pair_sides(model, model.init_state, 0.5 * np.eye(2))
        bucy.run(sides, model, 0.1, 0.1, 0.2)
        assert calls == {"input": 4, "obs": 4, bucy.BUCY: 4, bucy.CNGD: 4}

    def test_check_continuous_factors_the_prior_metric_once(self, monkeypatch):
        factored = []
        prior_factor = bucy._prior_factor

        def counting(metric):
            factored.append(1)
            return prior_factor(metric)

        monkeypatch.setattr(bucy, "_prior_factor", counting)
        model = builtin("pendulum-ct")
        report = equivalence.check_continuous(
            model, model.init_state, 0.5 * np.eye(2), 0.2, [0.1, 0.05, 0.01], 1.0
        )
        assert report.passed and len(factored) == 1


class TestPairFailure:
    """A numerical error of the pair names the side whose field fails
    first in evaluation order: stage by stage and, within a stage, bucy
    before cngd.  The pair takes no step past it and no step twice."""

    def recording(self, inf_from):
        """The scalar integrator with y(t) = inf from t = inf_from, and
        the list of every time y was read at."""
        seen = []

        def path(t):
            seen.append(t)
            return np.array([np.inf if t >= inf_from else 0.0])

        return dataclasses.replace(scalar_integrator_model(), obs_path=path), seen

    # y(t) = inf from t = 0.5 sends both fields non-finite in the last
    # stage of the step from t = 0.4.
    @pytest.mark.filterwarnings("error")
    def test_both_sides_failing_in_one_stage_name_bucy(self):
        model, seen = self.recording(0.5)
        with pytest.raises(NonFiniteError) as info:
            bucy.run(pair_sides(model, np.zeros(1), np.eye(1)), model, 0.1, 1.0)
        assert str(info.value) == "bucy step from t = 0.4: derivative non-finite at t = 0.5"
        assert max(seen) == 0.5

    # eta_0 = 1e200 overflows the rate flow in the first stage: cngd fails
    # there, in the first step, while bucy would fail in the fifth.  No
    # step is taken again, so y is read at t = 0 only.
    @pytest.mark.filterwarnings("error")
    def test_the_earliest_failing_step_decides(self):
        model, seen = self.recording(0.5)
        sides = [bucy.start(bucy.BUCY, np.zeros(1), np.eye(1)),
                 bucy.start(bucy.CNGD, np.zeros(1), np.eye(1), 1e200)]
        with pytest.raises(NonFiniteError) as info:
            bucy.run(sides, model, 0.1, 1.0)
        assert str(info.value) == "cngd step from t = 0: derivative non-finite at t = 0"
        assert max(seen) == 0.0

    # Within one step, cngd fails in the first stage and bucy would in the
    # last; the first stage's failure is named, and the step ends there.
    @pytest.mark.filterwarnings("error")
    def test_the_earliest_failing_stage_decides_within_a_step(self):
        model, seen = self.recording(0.1)
        sides = [bucy.start(bucy.BUCY, np.zeros(1), np.eye(1)),
                 bucy.start(bucy.CNGD, np.zeros(1), np.eye(1), 1e200)]
        with pytest.raises(NonFiniteError) as info:
            bucy.run(sides, model, 0.1, 1.0)
        assert str(info.value) == "cngd step from t = 0: derivative non-finite at t = 0"
        assert max(seen) == 0.0

    # The filter's start factors P_0 once and names it when it cannot,
    # as equivalence.initial_metric does.
    @pytest.mark.parametrize(
        "p0, error, message",
        [([[1.0, 2.0], [2.0, 1.0]], SingularMatrixError, "matrix is not positive definite"),
         ([[1.0, 0.0], [0.0, np.nan]], NonFiniteError, "SPD solve matrix has non-finite entries")],
    )
    def test_a_bad_prior_covariance_is_refused_by_name(self, p0, error, message):
        with pytest.raises(error, match=f"^prior covariance P_0: {message}$"):
            bucy.start(bucy.BUCY, np.zeros(2), p0)

    @pytest.mark.parametrize("kind", [bucy.BUCY, bucy.CNGD])
    def test_a_matrix_that_does_not_fit_the_state_is_refused(self, kind):
        with pytest.raises(ValueError, match=rf"^{kind} start needs a matrix of shape \(2, 2\)$"):
            bucy.start(kind, np.zeros(2), np.eye(1), eta0=0.5)

    def test_a_start_that_does_not_fit_the_model_is_refused(self):
        model = builtin("pendulum-ct")
        side = bucy.start(bucy.BUCY, np.zeros(1), np.eye(1))
        with pytest.raises(ValueError, match="^bucy start does not match a state of dimension 2$"):
            bucy.run([side], model, 0.1, 1.0)
