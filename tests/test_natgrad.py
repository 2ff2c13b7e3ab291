import dataclasses
import functools

import numpy as np
import pytest

from kalgrad import ekf, expfam, natgrad
from kalgrad.errors import NonFiniteError, SingularMatrixError
from kalgrad.model import _identity, builtin, generate_scenario, linearise
from kalgrad.numerics import symmetrize

from conftest import gradient_metrics, natgrad_update, random_spd, upper_factor
from oracles import log_density, mc_fisher, mean_linearisation, plain_online_natgrad
from test_ekf import counting_scenario, make_linear_model, make_scenario


def transported(metric, psi):
    """natgrad's transport of a metric J through the chart change psi, fed
    the factor of J: the metric of U psi^-1."""
    moved = natgrad.pushforward_metric(upper_factor(metric), natgrad.chart(psi))
    return moved.T @ moved


def transported_pair(state, metric, model, u, t):
    """natgrad.chart_transport fed the factor of J, with no kept chart;
    returns the moved state and metric."""
    moved_s, moved_u, _ = natgrad.chart_transport(state, upper_factor(metric), model, u, t, None)
    return moved_s, moved_u.T @ moved_u


class TestPushforwardMetric:
    def test_identity_chart(self, rng):
        j = random_spd(rng, 3)
        np.testing.assert_allclose(transported(j, np.eye(3)), j)

    def test_scaling_chart(self):
        out = transported(np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(out, 0.25 * np.eye(2))

    def test_round_trip(self, rng):
        # Oracle: transporting through psi then psi^-1 must restore J.
        for _ in range(20):
            j = random_spd(rng, 3)
            psi = rng.standard_normal((3, 3)) + 3 * np.eye(3)
            forth = natgrad.pushforward_metric(upper_factor(j), natgrad.chart(psi))
            back = natgrad.pushforward_metric(forth, natgrad.chart(np.linalg.inv(psi)))
            np.testing.assert_allclose(back.T @ back, j, atol=1e-12 * np.linalg.norm(j))

    def test_singular_chart_raises(self):
        with pytest.raises(SingularMatrixError):
            natgrad.chart(np.diag([1.0, 0.0]))

    def test_singular_chart_message(self):
        with pytest.raises(SingularMatrixError) as info:
            natgrad.chart(np.zeros((2, 2)))
        assert str(info.value) == "chart-change Jacobian condition estimate inf exceeds 1e+12"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_non_finite_chart_raises_non_finite_error(self, bad, index):
        psi = np.eye(2)
        psi[index] = bad
        with pytest.raises(NonFiniteError, match="chart-change Jacobian has non-finite entries"):
            natgrad.chart(psi)

    # The check reads s_max / s_min from one LAPACK SVD; it must be the
    # number np.linalg.cond gives, including inf for an exactly singular psi.
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 20])
    def test_condition_is_numpy_cond_bit_for_bit(self, n, rng):
        cases = [rng.standard_normal((n, n)) for _ in range(5)]
        for scale in (1e-6, 1e-12, 1e-15):
            rank_one = np.outer(rng.standard_normal(n), rng.standard_normal(n))
            cases.append(rank_one + scale * rng.standard_normal((n, n)))
        zero_row = rng.standard_normal((n, n))
        zero_row[-1] = 0.0
        cases += [zero_row, np.zeros((n, n)), np.diag(np.arange(n, dtype=float))]
        for psi in cases:
            assert natgrad._condition(psi) == np.linalg.cond(psi)

    def test_unconverged_svd_raises(self, monkeypatch):
        # LAPACK's report that the SVD did not converge stops the transport.
        monkeypatch.setattr(natgrad, "dgesdd", lambda a, compute_uv: (None, np.ones(2), None, 1))
        with pytest.raises(SingularMatrixError, match="SVD did not converge"):
            natgrad.chart(np.eye(2))

    def test_singular_lu_factor_raises(self, monkeypatch):
        # A psi that passes the condition check but whose LU factor has a
        # zero pivot must not reach the solves.
        monkeypatch.setattr(
            natgrad, "dgetrf", lambda a: (a, np.arange(1, len(a) + 1, dtype=np.int32), 2)
        )
        with pytest.raises(SingularMatrixError, match="exactly singular LU factor"):
            natgrad.chart(np.eye(2))

    def test_matches_explicit_inverse(self, rng):
        # Oracle: reference implementation with an explicit matrix inverse.
        for _ in range(20):
            j = random_spd(rng, 2)
            psi = rng.standard_normal((2, 2)) + 2 * np.eye(2)
            psi_inv = np.linalg.inv(psi)
            reference = psi_inv.T @ j @ psi_inv
            out = transported(j, psi)
            np.testing.assert_allclose(out, symmetrize(reference), atol=1e-12)

    def test_chart_keeps_a_copy_of_psi(self):
        psi = np.array([[2.0, 1.0], [0.0, 1.0]])
        change = natgrad.chart(psi)
        psi[0, 0] = 5.0
        np.testing.assert_array_equal(change.jac, [[2.0, 1.0], [0.0, 1.0]])


class TestChartTransport:
    def test_static_leaves_everything(self, rng):
        model = builtin("static")
        s, j = rng.standard_normal(2), random_spd(rng, 2)
        moved_s, moved_j = transported_pair(s, j, model, model.input_at(1), 1)
        np.testing.assert_array_equal(moved_s, s)
        np.testing.assert_allclose(moved_j, j)
        np.testing.assert_array_equal(model.jac_f(s, model.input_at(1)), np.eye(2))

    def test_scalar_doubling(self):
        model = make_linear_model([[1.0]], f_scale=2.0)
        moved_s, moved_j = transported_pair(
            np.array([1.0]), np.array([[1.0]]), model, np.zeros(0), 1
        )
        np.testing.assert_allclose(moved_j, [[0.25]])
        np.testing.assert_allclose(moved_s, [2.0])

    def test_linear2d_vs_explicit_inverse(self, rng):
        model = builtin("linear2d")
        for _ in range(10):
            j = random_spd(rng, 2)
            s = rng.standard_normal(2)
            _, moved_j = transported_pair(s, j, model, model.input_at(1), 1)
            f_inv = np.linalg.inv(model.jac_f(s, model.input_at(1)))
            np.testing.assert_allclose(moved_j, f_inv.T @ j @ f_inv, atol=1e-12)

    def test_transport_residual_identity(self, rng):
        # F^T J' F must reconstruct J to 1e-10 relative after transport.
        for name in ("linear2d", "tanhspring"):
            model = builtin(name)
            for _ in range(10):
                j = random_spd(rng, 2)
                s = rng.standard_normal(2)
                _, moved_j = transported_pair(s, j, model, model.input_at(1), 1)
                f_jac = model.jac_f(s, model.input_at(1))
                resid = np.linalg.norm(f_jac.T @ moved_j @ f_jac - j)
                assert resid <= 1e-10 * np.linalg.norm(j)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_names_the_step(self, bad):
        psi = np.array([[1.0, 0.0], [0.0, bad]])
        model = dataclasses.replace(builtin("linear2d"), jacobian_f=lambda s, u: psi.copy())
        with pytest.raises(NonFiniteError) as info:
            transported_pair(np.ones(2), np.eye(2), model, model.input_at(3), 3)
        assert str(info.value) == "chart-change Jacobian has non-finite entries at t = 3"

    def test_kept_chart_is_reused_for_the_same_jacobian_only(self):
        model = builtin("tanhspring")
        u, factor = model.input_at(1), np.eye(2)
        _, _, first = natgrad.chart_transport(np.ones(2), factor, model, u, 1, None)
        _, _, again = natgrad.chart_transport(np.ones(2), factor, model, u, 2, first)
        _, _, moved = natgrad.chart_transport(np.zeros(2), factor, model, u, 3, again)
        assert again is first
        assert moved is not first
        np.testing.assert_array_equal(moved.jac, model.jac_f(np.zeros(2), u))

    @pytest.mark.parametrize("name, factored", [("linear2d", 1), ("tanhspring", 50)])
    def test_run_factors_each_distinct_chart_once(self, name, factored, monkeypatch):
        # linear2d's F is constant: one check and one LU serve the run.
        # tanhspring's F moves with the state at every step.
        calls = []
        inner = natgrad.dgetrf
        monkeypatch.setattr(natgrad, "dgetrf", lambda a: calls.append(a) or inner(a))
        model = builtin(name)
        scenario = generate_scenario(model, expfam.gaussian(0.25 * np.eye(2)), 50, seed=1)
        natgrad.run(scenario, 0.3, 0.3, model.init_state, np.eye(2))
        assert len(calls) == factored


class TestFisherTerm:
    def test_scalar_exact(self):
        fam = expfam.gaussian(np.array([[2.0]]))
        rows = natgrad.fisher_rows(mean_linearisation(fam, np.array([0.0]), np.array([[1.0]]), np.zeros(1)))
        np.testing.assert_allclose(rows.T @ rows, [[0.5]])

    def test_zero_jacobian_every_mode(self, rng):
        # The exact Fisher and its Monte Carlo oracle both vanish.
        fam = expfam.gaussian(np.array([[1.0]]))
        h0 = np.zeros((1, 2))
        yhat = np.array([0.3])
        lin_of = functools.partial(mean_linearisation, fam, yhat, h0)
        rows = natgrad.fisher_rows(lin_of(yhat))
        for out in (rows.T @ rows, mc_fisher(lin_of, fam, yhat, rng, 10)):
            np.testing.assert_array_equal(out, np.zeros((2, 2)))


class TestFisherRows:
    """The rows W of the blend: W^T W = B^T C B to roundoff on every kind
    of linearisation, with no Cholesky factor of C."""

    @staticmethod
    def assert_rows_match(lin):
        rows = natgrad.fisher_rows(lin)
        fisher = lin.jac.T @ lin.cov() @ lin.jac
        assert rows.shape == (lin.cov().shape[0], lin.jac.shape[1])
        scale = np.abs(fisher).max()
        assert np.abs(rows.T @ rows - fisher).max() <= 8 * np.finfo(float).eps * scale
        return rows

    def test_gaussian_non_diagonal_covariance(self, rng):
        fam = expfam.gaussian(np.array([[0.5, 0.2, 0.0], [0.2, 0.3, -0.1], [0.0, -0.1, 0.4]]))
        for _ in range(10):
            model = make_linear_model(rng.standard_normal((3, 2)))
            lin = linearise(model, fam, rng.standard_normal(2), np.zeros(0), np.zeros(3), 1)
            self.assert_rows_match(lin)

    def test_gaussian_rows_read_the_kept_factor(self, rng):
        # Whitened, the rows are B = L^-1 H itself, from the kept L^-1.
        fam = expfam.gaussian(np.array([[0.5, 0.2], [0.2, 0.3]]))
        h = rng.standard_normal((2, 3))
        lin = linearise(make_linear_model(h), fam, np.zeros(3), np.zeros(0), np.zeros(2), 1)
        np.testing.assert_array_equal(natgrad.fisher_rows(lin), fam.obs_whitener @ h)
        # S is the shared identity, read and never multiplied by.
        assert lin.root() is _identity(2)
        assert natgrad.fisher_rows(lin) is lin.jac

    def test_mean_parameter_bernoulli(self, rng):
        model = dataclasses.replace(builtin("logistic-static"), predictor=None)
        for t in range(1, 11):
            s = rng.standard_normal(2)
            self.assert_rows_match(linearise(model, expfam.bernoulli(), s, model.input_at(t), np.zeros(1), t))

    def test_canonical_bernoulli_saturated_to_zero_variance(self):
        model = builtin("logistic-static")
        u = model.input_at(1)
        lin = linearise(model, expfam.bernoulli(), 800.0 * u / (u @ u), u, np.zeros(1), 1)
        assert lin.cov()[0, 0] == 0.0
        np.testing.assert_array_equal(natgrad.fisher_rows(lin), np.zeros((1, 2)))

    @pytest.mark.parametrize("scale", [1.0, 30.0, 800.0])
    def test_canonical_categorical_with_a_saturated_class(self, scale):
        from test_equivalence import softmax_model

        model, fam = softmax_model(), expfam.categorical(3)
        u = model.input_at(1)
        # s @ u = scale and s @ u[::-1] = 0: class 0 takes (nearly) all the mass.
        s = scale * np.linalg.solve(np.stack([u, u[::-1]]), [1.0, 0.0])
        lin = linearise(model, fam, s, u, np.zeros(2), 1)
        assert lin.cov()[0, 0] < 1e-12 or scale == 1.0
        self.assert_rows_match(lin)


class TestUpdateRefusals:
    def test_singular_blend_names_the_step(self):
        # gamma = 1 keeps only the rank-one Fisher of one scalar observation.
        model = builtin("static")
        scenario = generate_scenario(model, expfam.gaussian(np.eye(1)), 3, seed=0)
        message = "^blended metric factor is singular at t = 1$"
        with pytest.raises(SingularMatrixError, match=message):
            natgrad.run(scenario, 0.5, 1.0, np.zeros(2), np.eye(2))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_names_the_step(self):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        y = np.array([1e308, 1e308])
        with pytest.raises(NonFiniteError, match="^natural-gradient update non-finite at t = 4$"):
            natgrad_update(np.zeros(2), np.eye(2), y, model, fam, 0.5, 0.5, 4)

    @pytest.mark.parametrize(
        "metric, error, message",
        [
            (np.diag([1.0, 0.0]), SingularMatrixError,
             "prior metric J_0: matrix is not positive definite"),
            (np.diag([1.0, np.nan]), NonFiniteError, "prior metric J_0 has non-finite entries"),
            # The factorization reads the lower triangle only.
            (np.array([[1.0, np.inf], [0.0, 1.0]]), NonFiniteError,
             "prior metric J_0 has non-finite entries"),
        ],
    )
    def test_prior_metric_is_refused_by_name(self, metric, error, message):
        scenario = generate_scenario(builtin("linear2d"), expfam.gaussian(np.eye(2)), 3, seed=0)
        with pytest.raises(error, match=f"^{message}$"):
            natgrad.run(scenario, 0.5, 0.5, np.zeros(2), metric)

    def test_run_calls_no_spd_solve(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("natgrad called solve_psd")

        monkeypatch.setattr(natgrad, "solve_psd", refuse)
        model = builtin("tanhspring")
        scenario = generate_scenario(model, expfam.gaussian(0.25 * np.eye(2)), 30, seed=2)
        natgrad.run(scenario, 0.3, 0.3, model.init_state, np.eye(2))


class TestCanonicalLink:
    def test_fisher_term_matches_mean_parameter_form(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        fam = expfam.bernoulli()
        for _ in range(20):
            s, t = rng.standard_normal(2), int(rng.integers(1, 50))
            stats = np.zeros(1)
            canonical = natgrad.fisher_rows(linearise(model, fam, s, model.input_at(t), stats, t))
            mean = natgrad.fisher_rows(linearise(mean_model, fam, s, mean_model.input_at(t), stats, t))
            np.testing.assert_allclose(
                canonical.T @ canonical,
                mean.T @ mean,
                rtol=1e-12,
                atol=1e-15,
            )

    def test_update_matches_mean_parameter_path(self, rng):
        model = builtin("logistic-static")
        mean_model = dataclasses.replace(model, predictor=None)
        fam = expfam.bernoulli()
        eta = gamma = 0.4
        for _ in range(20):
            s, j = rng.standard_normal(2), random_spd(rng, 2)
            y = int(rng.integers(2))
            a_s, a_j = natgrad_update(s, j, y, model, fam, eta, gamma, 1)
            b_s, b_j = natgrad_update(s, j, y, mean_model, fam, eta, gamma, 1)
            np.testing.assert_allclose(a_s, b_s, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(a_j, b_j, rtol=1e-12, atol=1e-14)

    def test_saturated_update_keeps_only_the_transported_metric(self):
        # V = 0: the Fisher term vanishes, J = (1 - gamma) J_pred, and the
        # step is eta J^-1 G^T (y - 1).
        model = builtin("logistic-static")
        fam = expfam.bernoulli()
        eta = gamma = 0.4
        u = model.input_at(1)
        metric = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = 800.0 * u / (u @ u)
        post_s, post_j = natgrad_update(s, metric, 0, model, fam, eta, gamma, 1)
        np.testing.assert_allclose(post_j, 0.6 * metric, rtol=1e-15)
        np.testing.assert_allclose(
            post_s, s - 0.4 * np.linalg.solve(0.6 * metric, u), rtol=1e-12
        )


class TestUpdate:
    def test_zero_innovation_freezes_state(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        eta = gamma = 0.5
        s = rng.standard_normal(2)
        j = random_spd(rng, 2)
        yhat = model.h(s, np.zeros(0))
        post_s, post_j = natgrad_update(s, j, yhat.copy(), model, fam, eta, gamma, 1)
        np.testing.assert_allclose(post_s, s, atol=1e-14)
        assert not np.allclose(post_j, j)

    def test_gamma_one_full_replacement(self, rng):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        eta, gamma = 0.5, 1.0
        s = rng.standard_normal(2)
        yhat = model.h(s, np.zeros(0))
        _, metric = natgrad_update(s, random_spd(rng, 2), yhat + 0.1, model, fam, eta, gamma, 1)
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

        gtrace = natgrad.run(
            scenario, np.array([eta1]), np.array([eta1]), np.array([0.1]), np.array([[j0]])
        )
        ftrace = ekf.run(scenario, np.array([alpha1]), np.array([0.1]), np.array([[p0]]))
        np.testing.assert_allclose(gtrace.states[1], ftrace.states[1], atol=1e-14)
        np.testing.assert_allclose(
            eta1 / gtrace.factors[1, 0, 0] ** 2, ftrace.covs[1, 0, 0], atol=1e-14
        )

    def test_metric_blend_convex_hull(self, rng):
        # min-eig of the blended metric cannot drop below the smaller of
        # the two ingredients' min-eigs.
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        eta, gamma = 0.3, 0.4
        for _ in range(20):
            s = rng.standard_normal(2)
            j = random_spd(rng, 2)
            yhat = model.h(s, np.zeros(0))
            rows = natgrad.fisher_rows(linearise(model, fam, s, model.input_at(1), np.zeros(2), 1))
            fisher = rows.T @ rows
            _, metric = natgrad_update(s, j, yhat + 0.2, model, fam, eta, gamma, 1)
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
        eta = gamma = 0.2
        s0 = np.array([0.0, 0.0])
        j0 = np.eye(2)

        chart = natgrad.run(scenario, eta, gamma, s0, j0)
        plain_states, plain_metrics = plain_online_natgrad(
            [model.input_at(t) for t in range(1, horizon + 1)],
            scenario.observations,
            model.h,
            fam,
            eta, gamma,
            s0,
            j0,
            jacobian_h=model.jacobian_h,
        )
        np.testing.assert_allclose(chart.states, plain_states, atol=1e-12)
        np.testing.assert_allclose(gradient_metrics(chart), plain_metrics, atol=1e-12)

    def test_horizon_zero(self):
        model = builtin("static")
        scenario = generate_scenario(model, expfam.gaussian(np.eye(1)), 0, seed=0)
        trace = natgrad.run(scenario, 0.5, 0.5, np.zeros(2), np.eye(2))
        assert trace.states.shape == (1, 2)
        assert trace.factors.shape == (1, 2, 2)

    def test_tanhspring_metric_stays_spd(self):
        model = builtin("tanhspring")
        fam = expfam.gaussian(0.25 * np.eye(2))
        scenario = generate_scenario(model, fam, 50, seed=12)
        eta = gamma = 0.3
        trace = natgrad.run(scenario, eta, gamma, model.init_state, np.eye(2))
        for metric in gradient_metrics(trace)[1:]:
            assert np.linalg.eigvalsh(metric).min() > 0

    def test_deterministic_replay(self):
        model = builtin("linear2d")
        fam = expfam.gaussian(0.1 * np.eye(2))
        scenario = generate_scenario(model, fam, 30, seed=3)
        eta = gamma = 0.4
        a = natgrad.run(scenario, eta, gamma, np.zeros(2), np.eye(2))
        b = natgrad.run(scenario, eta, gamma, np.zeros(2), np.eye(2))
        np.testing.assert_array_equal(a.states, b.states)

class TestPlainOnlineNatgrad:
    def test_zero_learning_rate_freezes_parameter(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        inputs = [rng.standard_normal(2) for _ in range(10)]
        obs = [np.array([float(rng.standard_normal())]) for _ in range(10)]
        eta, gamma = 0.0, 0.5
        states, metrics = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, eta, gamma,
            np.array([0.3, -0.4]), np.eye(2),
        )
        for state in states[1:]:
            np.testing.assert_array_equal(state, [0.3, -0.4])
        assert not np.allclose(metrics[-1], np.eye(2))

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

        eta = gamma = 0.1
        theta = np.zeros(2)
        metric = np.eye(2)
        improvements = []
        for _ in range(3):  # epochs over the same data
            states, metrics = plain_online_natgrad(
                inputs, labels, h, fam, eta, gamma, theta, metric
            )
            # f = Id: each step moves from row t-1 to row t.
            for before, after in zip(states[:-1], states[1:]):
                improvements.append(total_loglik(after) - total_loglik(before))
            theta = states[-1]
            metric = metrics[-1]
        frac = np.mean([d >= -1e-12 for d in improvements])
        assert frac >= 0.95

    def test_fd_jacobian_fallback(self, rng):
        fam = expfam.gaussian(np.array([[1.0]]))
        inputs = [rng.standard_normal(2) for _ in range(5)]
        obs = [np.array([float(rng.standard_normal())]) for _ in range(5)]
        eta = gamma = 0.2
        with_jac = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, eta, gamma,
            np.zeros(2), np.eye(2), jacobian_h=lambda th, u: u[None, :],
        )
        without = plain_online_natgrad(
            inputs, obs, lambda th, u: np.array([th @ u]), fam, eta, gamma,
            np.zeros(2), np.eye(2),
        )
        np.testing.assert_allclose(without[0], with_jac[0], atol=1e-9)


class TestScheduleLength:
    @pytest.mark.parametrize("length", [5, 15])
    @pytest.mark.parametrize("which", ["eta", "gamma"])
    def test_run_fails_before_step_one(self, length, which):
        scenario, calls = counting_scenario(10)
        schedules = {"eta": 0.3, "gamma": 0.3, which: np.full(length, 0.3)}
        with pytest.raises(ValueError, match=f"{which} schedule"):
            natgrad.run(scenario, init_state=np.zeros(1), init_metric=np.eye(1), **schedules)
        assert calls == []

    @pytest.mark.parametrize("length", [5, 15])
    @pytest.mark.parametrize("which", ["eta", "gamma"])
    def test_plain_online_natgrad_fails_before_step_one(self, length, which):
        scenario, calls = counting_scenario(10)
        schedules = {"eta": 0.3, "gamma": 0.3, which: np.full(length, 0.3)}
        with pytest.raises(ValueError, match=f"{which} schedule"):
            plain_online_natgrad(
                [np.zeros(0)] * 10, scenario.observations, scenario.model.h,
                scenario.family, init_param=np.zeros(1), init_metric=np.eye(1), **schedules,
            )
        assert calls == []

