import ast
import collections
import dataclasses
import inspect
import re
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from kalgrad import bucy, ekf, equivalence, expfam, natgrad, numerics
from kalgrad import model as model_mod
from kalgrad.equivalence import (
    check_continuous,
    check_discrete,
    map_alpha_to_eta,
    map_eta_to_alpha,
)
from kalgrad.errors import DomainError, NonFiniteError, SingularMatrixError
from kalgrad.model import DynamicalModel, builtin, generate_scenario
from kalgrad.numerics import fd_jacobian

from conftest import gradient_metrics
from oracles import (
    bernoulli_draw, draw, euler_scenario, hidden, hidden_ct, ill_r_draw, softmax_track, tanh20,
)


def scenario_for(name, horizon, seed):
    return equivalence.sweep_cell(name, horizon, seed)[0]


def unlinked(scenario):
    """The scenario with its model's canonical link undeclared, so that its
    observations are read through the mean parameter."""
    return dataclasses.replace(scenario, model=dataclasses.replace(scenario.model, predictor=None))


def softmax_model():
    """Static model observed through 3 classes, declaring its two logits
    x = (s.u, s.u[::-1]) as the canonical-link predictor."""
    family = expfam.categorical(3)

    def inputs(t):
        return np.array([np.cos(0.8 * t + 0.2), np.sin(0.7 * t - 0.4)])

    def predictor(theta, u):
        return np.array([theta @ u, theta @ u[::-1]])

    def jacobian_predictor(theta, u):
        return np.stack([u, u[::-1]])

    return DynamicalModel(
        name="softmax-static",
        dim_state=2,
        dim_input=2,
        dim_obs=2,
        f=lambda s, u: s,
        h=lambda s, u: expfam.canonical_mean(family, predictor(s, u)),
        jacobian_f=lambda s, u: np.eye(2),
        jacobian_h=lambda s, u: (
            expfam.canonical_variance(family, predictor(s, u)) @ jacobian_predictor(s, u)
        ),
        inputs=inputs,
        init_state=np.array([0.6, -0.4]),
        link_family=expfam.CATEGORICAL,
        predictor=predictor,
        jacobian_predictor=jacobian_predictor,
    )


class TestMapAlphaToEta:
    def test_alpha_zero_harmonic(self):
        eta = map_alpha_to_eta(0.0, eta0=1.0, horizon=10)
        for t in range(11):
            assert eta[t] == 1.0 / (t + 1)

    def test_alpha_one_fixed_point(self):
        for eta0 in (0.1, 0.5, 1.0):
            eta = map_alpha_to_eta(1.0, eta0=eta0, horizon=100)
            assert abs(eta[-1] - 0.5) < 1e-9

    def test_constant_alpha_converges(self):
        # Oracle: iterate the recursion; the fixed point is a/(1+a).
        eta = map_alpha_to_eta(0.1, eta0=0.5, horizon=200)
        assert abs(eta[200] - 0.1 / 1.1) <= 1e-6

    def test_time_varying_schedule(self):
        alpha = np.linspace(0.0, 0.5, 7)
        eta = map_alpha_to_eta(alpha, eta0=0.8, horizon=7)
        inv = 1.0 / 0.8
        for t in range(1, 8):
            inv = inv / (1.0 + alpha[t - 1]) + 1.0
            assert abs(eta[t] - 1.0 / inv) < 1e-15

    def test_eta_stays_in_unit_interval(self):
        rng = np.random.default_rng(5)
        alpha = rng.uniform(0.0, 5.0, 50)
        eta = map_alpha_to_eta(alpha, eta0=1.0, horizon=50)
        assert np.all(eta[1:] > 0.0)
        assert np.all(eta[1:] < 1.0)

    def test_bad_eta0(self):
        with pytest.raises(ValueError):
            map_alpha_to_eta(0.1, eta0=1.5, horizon=5)
        with pytest.raises(ValueError):
            map_alpha_to_eta(0.1, eta0=0.0, horizon=5)

    def test_rejects_negative_alpha(self):
        # nan included: it is no weight >= 0 either.
        for bad in (-0.1, np.nan):
            with pytest.raises(ValueError, match="alpha schedule must be >= 0"):
                map_alpha_to_eta(np.array([0.1, bad]), eta0=0.5, horizon=2)

    def test_wrong_length_schedule_rejected(self):
        with pytest.raises(ValueError, match="alpha schedule has 5 entries; need 1 or 10"):
            map_alpha_to_eta(np.full(5, 0.1), eta0=0.5, horizon=10)


class TestMapEtaToAlpha:
    def test_harmonic_gives_zero(self):
        eta = np.array([1.0 / (t + 1) for t in range(11)])
        np.testing.assert_allclose(map_eta_to_alpha(eta), np.zeros(10), atol=1e-12)

    def test_constant_half_gives_one(self):
        np.testing.assert_allclose(map_eta_to_alpha([0.5, 0.5, 0.5]), [1.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        alpha = rng.uniform(0.0, 2.0, 30)
        eta = map_alpha_to_eta(alpha, eta0=0.7, horizon=30)
        recovered = map_eta_to_alpha(eta)
        np.testing.assert_allclose(recovered, alpha, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30)
    def test_round_trip_property(self, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 40))
        alpha = rng.uniform(0.0, 3.0, horizon)
        eta0 = rng.uniform(0.05, 1.0)
        eta = map_alpha_to_eta(alpha, eta0, horizon)
        np.testing.assert_allclose(map_eta_to_alpha(eta), alpha, atol=1e-11)

    def test_eta_one_raises(self):
        with pytest.raises(DomainError):
            map_eta_to_alpha([0.5, 1.0])

    # A nan rate has no fading weight, wherever it sits.
    @pytest.mark.parametrize("eta", [[0.5, np.nan, 0.4], [np.nan, 0.5, 0.4]], ids=["eta_1", "eta_0"])
    def test_nan_raises(self, eta):
        with pytest.raises(DomainError, match="eta schedule must be positive, and not nan"):
            map_eta_to_alpha(eta)


class TestInitialMetric:
    # The Cholesky factor of I_n is I_n, and dpotrs on it is exact.
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_identity_prior_is_exact(self, n):
        np.testing.assert_array_equal(equivalence.initial_metric(np.eye(n), 0.5), 0.5 * np.eye(n))

    # An inf or nan pivot can pass the Cholesky factorization, and -inf
    # fails it; each is refused by name, never turned into a J_0.
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_prior_is_refused_by_name(self, bad):
        p0 = np.eye(2)
        p0[0, 0] = bad
        with pytest.raises(NonFiniteError, match="^prior covariance P_0 has non-finite entries$"):
            equivalence.initial_metric(p0, 0.5)


class TestCheckDiscrete:
    def test_linear2d_passes(self):
        scenario = scenario_for("linear2d", 50, seed=0)
        report = check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.1, tol=1e-8)
        assert report.passed
        assert report.max_state_dev <= 1e-8
        assert report.max_metric_dev <= 1e-8

    def test_tanhspring_passes(self):
        scenario = scenario_for("tanhspring", 50, seed=0)
        report = check_discrete(
            scenario, np.array([0.5, -0.5]), np.eye(2), alpha=0.0, tol=1e-8
        )
        assert report.passed

    # P_0 = diag(1, 0) has no J_0 = eta_0 P_0^-1, so the pair is refused by
    # name before either side takes a step, on every model: it is neither
    # certified nor aborted later from a J_0 that a shifted P_0 would give.
    @pytest.mark.parametrize("name", ["static", "linear2d", "tanhspring"])
    def test_singular_prior_covariance_is_refused_by_name(self, name, monkeypatch):
        scenario, s0, _ = equivalence.sweep_cell(name, 50, 0)
        runs = []
        monkeypatch.setattr(ekf, "transition", lambda *args: runs.append(args))
        monkeypatch.setattr(natgrad, "chart_transport", lambda *args: runs.append(args))
        message = "^prior covariance P_0: matrix is not positive definite$"
        with pytest.raises(SingularMatrixError, match=message):
            check_discrete(scenario, s0, np.diag([1.0, 0.0]), alpha=0.1)
        assert runs == []

    # An ill-conditioned P_0 = Q diag(1, k) Q^T still factors, so
    # J_0 = eta_0 L^-T L^-1 is read from its factor with no residual bound,
    # and the pair certifies (measured: 2.1e-12 / 1.06e-10 state / metric
    # at k = 1e-8, 1.8e-10 / 9.3e-9 at 1e-9).  An inverse held to the
    # residual bound of solve_psd refused both priors.
    @pytest.mark.parametrize("k", [1e-8, 1e-9])
    def test_ill_conditioned_prior_covariance_certifies(self, k):
        scenario, s0, _ = equivalence.sweep_cell("linear2d", 50, 0)
        q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
        assert check_discrete(scenario, s0, q @ np.diag([1.0, k]) @ q.T, alpha=0.1).passed

    @staticmethod
    def dropping_chart(inputs):
        """The fully observed model with F = diag(1, u_t) on the input path
        ``inputs``."""
        return DynamicalModel(
            name="dropping-chart",
            dim_state=2,
            dim_input=1,
            dim_obs=2,
            f=lambda s, u: np.array([s[0], u[0] * s[1]]),
            h=lambda s, u: s.copy(),
            jacobian_f=lambda s, u: np.diag([1.0, u[0]]),
            jacobian_h=lambda s, u: np.eye(2),
            inputs=inputs,
            init_state=np.array([1.0, 1.0]),
        )

    def test_singular_chart_names_step_and_side(self):
        # F = diag(1, u_t) drops to diag(1, 1e-13) at t = 3 only: the filter
        # side runs through, the gradient side refuses the chart there.
        model = self.dropping_chart(lambda t: np.array([1e-13 if t == 3 else 1.0]))
        scenario = generate_scenario(model, expfam.gaussian(0.25 * np.eye(2)), 10, seed=0)
        message = (
            "gradient side: chart-change Jacobian condition estimate 1.000e+13"
            " exceeds 1e+12 at t = 3"
        )
        with pytest.raises(SingularMatrixError, match=f"^{re.escape(message)}$"):
            check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.1)

    @staticmethod
    def failing_jacobian_scenario():
        """tanhspring, which ignores its input, with u_t = t, and whose
        Jacobian of f at step 3 is central differences of a map that is
        nan at the expansion point."""
        model = builtin("tanhspring")
        analytic = model.jacobian_f

        def jacobian_f(s, u):
            if u[0] == 3:
                return fd_jacobian(lambda v: np.full(2, np.nan), s)
            return analytic(s, u)

        model = dataclasses.replace(
            model, dim_input=1, inputs=lambda t: np.array([t]), jacobian_f=jacobian_f
        )
        return generate_scenario(model, expfam.gaussian(0.25 * np.eye(2)), 10, seed=0)

    @pytest.mark.parametrize(
        "run, prefix",
        [
            (lambda sc: ekf.run(sc, 0.1, np.zeros(2), np.eye(2)), ""),
            (lambda sc: natgrad.run(sc, 0.5, 0.5, np.zeros(2), np.eye(2)), ""),
            (lambda sc: check_discrete(sc, np.zeros(2), np.eye(2), alpha=0.1), "filter side: "),
        ],
        ids=["filter", "gradient", "certificate"],
    )
    def test_a_failing_transition_jacobian_names_its_step(self, run, prefix):
        message = f"{prefix}map is non-finite at the expansion point at t = 3"
        with pytest.raises(NonFiniteError, match=f"^{re.escape(message)}$"):
            run(self.failing_jacobian_scenario())

    # The sides step in lockstep, so the earliest failing step decides, and
    # within a step the filter.  F = diag(1, u_t) nearly singular at t = 2
    # is refused by the gradient side only; u_3 = nan sends both sides'
    # states non-finite at t = 3.
    @pytest.mark.parametrize(
        "inputs, error, message",
        [({2: 1e-13, 3: np.nan}, SingularMatrixError,
          "gradient side: chart-change Jacobian condition estimate 1.000e+13 exceeds 1e+12 at t = 2"),
         ({3: np.nan}, NonFiniteError, "filter side: transition produced non-finite state at t = 3")],
        ids=["gradient-earlier", "same-step"],
    )
    def test_the_earliest_failing_step_names_the_side(self, inputs, error, message):
        healthy = self.dropping_chart(lambda t: np.ones(1))
        scenario = generate_scenario(healthy, expfam.gaussian(0.25 * np.eye(2)), 10, seed=0)
        failing = self.dropping_chart(lambda t: np.array([inputs.get(t, 1.0)]))
        scenario = dataclasses.replace(scenario, model=failing)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.1)
        with pytest.raises(NonFiniteError, match="^transition produced non-finite state at t = 3$"):
            ekf.run(scenario, 0.1, np.zeros(2), np.eye(2))

    # One pass over the scenario's rows: at each t the filter's step, then
    # the gradient side's, each through its module's current functions.
    def test_the_sides_step_in_lockstep(self, monkeypatch):
        calls = []
        steps = ((ekf, "transition"), (ekf, "observe_gain"), (natgrad, "chart_transport"), (natgrad, "update"))
        for module, name in steps:
            def recording(*args, step=getattr(module, name), name=name):
                calls.append(name)
                return step(*args)

            monkeypatch.setattr(module, name, recording)
        scenario = scenario_for("linear2d", 5, seed=0)
        assert check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.1).passed
        assert calls == [name for _, name in steps] * scenario.horizon

    @pytest.mark.parametrize("seed, t", [(0, 21), (1, 16), (2, 14)])
    def test_saturated_mean_parameter_names_step_and_side(self, seed, t):
        # Without its canonical link, logistic-static's filter side needs
        # the mean inside (0, 1); under alpha = 1 its prediction saturates.
        mean_model = dataclasses.replace(builtin("logistic-static"), predictor=None)
        scenario = generate_scenario(mean_model, expfam.bernoulli(), 50, seed)
        s0 = 0.5 * mean_model.init_state
        message = f"filter side: bernoulli mean must lie strictly inside (0, 1) at t = {t}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_discrete(scenario, s0, np.eye(2), alpha=1.0)

    def test_several_eta0_values(self):
        scenario = scenario_for("linear2d", 30, seed=2)
        for eta0 in (0.2, 0.5, 1.0):
            report = check_discrete(
                scenario, np.zeros(2), np.eye(2), alpha=0.3, tol=1e-8, eta0=eta0
            )
            assert report.passed

    def test_metric_identification_per_step(self):
        scenario = scenario_for("linear2d", 50, seed=4)
        report = check_discrete(scenario, np.zeros(2), 2.0 * np.eye(2), alpha=0.2)
        assert report.metric_devs.shape == (51,)
        assert np.all(report.metric_devs <= 1e-8)

    def test_sabotage_eta_perturbation_fails(self, monkeypatch):
        # Mutation check guarding against a vacuous comparison: nudging a
        # single learning rate must break the identification.
        def nudged(alpha, eta0, horizon):
            eta = map_alpha_to_eta(alpha, eta0, horizon)
            eta[25] += 1e-3
            return eta

        monkeypatch.setattr(equivalence, "map_alpha_to_eta", nudged)
        scenario = scenario_for("linear2d", 50, seed=0)
        report = check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.1, tol=1e-8)
        assert not report.passed
        assert report.max_state_dev > 1e-8

    @pytest.mark.parametrize("mutation", equivalence.MUTATIONS)
    def test_mutations_fail(self, mutation):
        scenario = scenario_for("linear2d", 50, seed=0)
        report = check_discrete(
            scenario, np.zeros(2), np.eye(2), alpha=0.1, tol=1e-8, mutate=mutation
        )
        assert not report.passed
        assert report.max_state_dev > 1e-3

    def test_transport_control_steps_on_the_shared_identity(self, monkeypatch):
        # The gradient side of skip_metric_transport runs a model whose F is
        # the cached read-only identity, at every state.
        seen = []
        side = natgrad.side

        def recording(scenario, *args):
            seen.append(scenario.model)
            return side(scenario, *args)

        monkeypatch.setattr(equivalence.ngd_mod, "side", recording)
        scenario = scenario_for("linear2d", 5, seed=0)
        check_discrete(scenario, np.zeros(2), np.eye(2), 0.1, mutate="skip_metric_transport")
        (identity,) = seen
        for s in (np.zeros(2), np.array([3.0, -1.0])):
            assert identity.jac_f(s, scenario.inputs[0]) is model_mod._identity(2)

    @pytest.mark.parametrize("name", ["static", "logistic-static"])
    def test_transport_control_rejected_where_f_is_identity(self, name):
        # F = I already, so skip_metric_transport would change nothing.
        scenario, s0, p0 = equivalence.sweep_cell(name, 50, 0)
        with pytest.raises(ValueError, match=f"'skip_metric_transport'.*'{name}'"):
            check_discrete(scenario, s0, p0, alpha=0.1, mutate="skip_metric_transport")

    @pytest.mark.filterwarnings("error")
    def test_negative_alpha_rejected_before_the_recursion(self):
        # alpha = -1 would divide by 1 + alpha = 0 in the rate recursion;
        # the schedule is refused first, with no numpy warning.
        scenario = scenario_for("linear2d", 5, seed=0)
        with pytest.raises(ValueError, match="alpha schedule must be >= 0"):
            check_discrete(scenario, np.zeros(2), np.eye(2), alpha=-1.0)

    def test_unknown_mutation_rejected(self):
        scenario = scenario_for("linear2d", 5, seed=0)
        with pytest.raises(ValueError):
            check_discrete(scenario, np.zeros(2), np.eye(2), 0.1, mutate="flip_sign")

    def test_horizon_zero(self):
        scenario = scenario_for("linear2d", 0, seed=0)
        report = check_discrete(scenario, np.zeros(2), np.eye(2), alpha=np.zeros(0))
        assert report.passed
        assert report.state_devs.shape == (1,)

    def test_categorical_family_with_fd_jacobians(self):
        # Three-class observations through a softmax link, with both
        # Jacobians left to central differences: the identification is
        # algebraic in whatever H the model reports, so it must still hold.
        from kalgrad.model import DynamicalModel, generate_scenario

        def inputs(t):
            return np.array([np.cos(0.8 * t + 0.2), np.sin(0.7 * t - 0.4)])

        def h(theta, u):
            logits = np.array([theta @ u, theta @ u[::-1], 0.0])
            z = np.exp(logits - logits.max())
            probs = z / z.sum()
            return probs[:2]

        model = DynamicalModel(
            name="softmax-static",
            dim_state=2,
            dim_input=2,
            dim_obs=2,
            f=lambda s, u: s,
            h=h,
            inputs=inputs,
            init_state=np.array([0.6, -0.4]),
        )
        scenario = generate_scenario(model, expfam.categorical(3), 30, seed=5)
        report = check_discrete(
            scenario, np.zeros(2), np.eye(2), alpha=0.2, tol=1e-8
        )
        assert report.passed
        assert report.max_state_dev <= 1e-10


class TestSharedStepData:
    """Both sides read u_t and T(y_t) from the scenario; the metric check
    reads stacked factors, in both time domains."""

    @staticmethod
    def count_calls(monkeypatch):
        """Record each input_at call as "u" and each sufficient_stats call
        as "T" from here on."""
        calls = []
        input_at = DynamicalModel.input_at
        stats = expfam.sufficient_stats
        monkeypatch.setattr(
            DynamicalModel, "input_at", lambda m, t: calls.append("u") or input_at(m, t)
        )
        monkeypatch.setattr(
            expfam, "sufficient_stats", lambda f, y: calls.append("T") or stats(f, y)
        )
        return calls

    def test_certificate_recomputes_no_input_or_statistic(self, monkeypatch):
        scenarios = [scenario_for(name, 20, 1) for name in equivalence.SWEEP_MODELS]
        calls = self.count_calls(monkeypatch)
        for scenario in scenarios:
            model = scenario.model
            assert check_discrete(scenario, 0.5 * model.init_state, np.eye(2), alpha=0.1).passed
        assert calls == []

    @pytest.mark.parametrize("mutate", equivalence.MUTATIONS)
    def test_negative_control_recomputes_no_statistic(self, monkeypatch, mutate):
        # skip_metric_transport reads u_1 once, to refuse a model whose
        # Jacobian is already the identity; its F = I model steps on the
        # scenario's own rows.
        scenario = scenario_for("linear2d", 20, 1)
        calls = self.count_calls(monkeypatch)
        s0 = 0.5 * scenario.model.init_state
        assert not check_discrete(scenario, s0, np.eye(2), alpha=0.1, mutate=mutate).passed
        assert calls == (["u"] if mutate == "skip_metric_transport" else [])

    def test_metric_devs_match_per_row_solves(self):
        # The stacked inverses of the factors move no deviation by more
        # than 1e-15 from a triangular solve per row, over the criterion-1
        # grid.
        worst = 0.0
        for name in equivalence.SWEEP_MODELS:
            for seed in range(equivalence.SWEEP_SEEDS):
                scenario, s0, p0 = equivalence.sweep_cell(name, equivalence.SWEEP_HORIZON, seed)
                for alpha in equivalence.sweep_schedules(equivalence.SWEEP_HORIZON).values():
                    etas = map_alpha_to_eta(alpha, 0.5, scenario.horizon)
                    filt = ekf.run(scenario, alpha, s0, p0)
                    metric0 = equivalence.initial_metric(p0, 0.5)
                    grad = natgrad.run(scenario, etas[1:], etas[1:], s0, metric0)
                    devs = equivalence._factor_devs(filt.covs, grad.factors, etas)
                    for t, (cov, factor, eta) in enumerate(zip(filt.covs, grad.factors, etas)):
                        inv = solve_triangular(factor, np.eye(2))
                        ref = np.linalg.norm(cov - eta * inv @ inv.T)
                        ref /= np.linalg.norm(cov)
                        worst = max(worst, abs(devs[t] - ref))
        assert worst <= 1e-15

    # The continuous flow carries its factors too; a triangular solve per
    # row moves no deviation by more than 1e-15 on either continuous
    # built-in.
    @pytest.mark.parametrize("name", ["pendulum-ct", "linear-ct"])
    def test_continuous_metric_devs_match_per_row_solves(self, name):
        model = builtin(name)
        eye = np.eye(model.dim_state)
        p0, grid = 0.5 * eye, (model, 1e-2, 2.0, 0.2)
        filt = bucy.integrate(bucy.BUCY, model.init_state, p0, *grid)
        metric0 = equivalence.initial_metric(p0, 0.5)
        grad = bucy.integrate(bucy.CNGD, model.init_state, metric0, *grid, 0.5)
        devs = equivalence._compare(filt, grad, grad.etas, 1e-6).metric_devs
        assert len(devs) == 201
        worst = 0.0
        for t, (cov, factor, eta) in enumerate(zip(filt.covs, grad.factors, grad.etas)):
            inv = solve_triangular(factor, eye)
            ref = np.linalg.norm(cov - eta * inv @ inv.T) / np.linalg.norm(cov)
            worst = max(worst, abs(devs[t] - ref))
        assert worst <= 1e-15


class TestCollapsingCovariance:
    """Under fading memory P_t collapses along every direction that the
    dynamics contract faster than 1 / sqrt(1 + alpha), observed or not, and
    cond(P_t) grows geometrically; the gradient side's factor keeps the
    Fisher information that a dense J would round away, so the pair still
    certifies at the unchanged 1e-8 (alpha = 0.1, eta_0 = 0.5)."""

    def test_hidden3_at_t_120(self):
        assert check_discrete(*hidden(1, 0.8, 0.3, 120), alpha=0.1).passed

    def test_hidden_family_at_t_200(self):
        failed = []
        for q in range(4):
            for c in (0.5, 0.8, 0.9):
                for a in (0.1, 0.3, 0.6):
                    if not check_discrete(*hidden(q, c, a, 200), alpha=0.1).passed:
                        failed.append((q, c, a))
        assert failed == []

    def test_tanh20_at_t_2000(self):
        assert check_discrete(*tanh20(2000), alpha=0.1).passed

    def test_random_stable_systems(self):
        # The north star's rule on small random stable systems: every draw
        # at lo = 0.3, T = 50 certifies.
        failed = [
            seed for seed in range(200)
            if not check_discrete(*draw(seed, 0.3, 50), alpha=0.1).passed
        ]
        assert failed == []

    # The same rule as a property over draw's whole range: contraction
    # floor lo in [0.3, 0.95], T in [5, 200], and fading 0.1, a ramp from 0
    # to 0.5, or 0.1 with a spike of 10 at one step.  A scan of 600 such
    # draws certified 600/600.
    @given(st.data())
    @settings(max_examples=100)
    def test_random_stable_systems_property(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        lo = data.draw(st.floats(0.3, 0.95), label="lo")
        horizon = data.draw(st.integers(5, 200), label="T")
        kind = data.draw(st.sampled_from(["constant", "ramp", "spike"]), label="alpha")
        if kind == "constant":
            alpha = 0.1
        elif kind == "ramp":
            alpha = np.linspace(0.0, 0.5, horizon)
        else:
            alpha = np.full(horizon, 0.1)
            alpha[data.draw(st.integers(0, horizon - 1), label="spike at")] = 10.0
        assert check_discrete(*draw(seed, lo, horizon), alpha=alpha).passed

    def test_random_systems_under_ill_conditioned_r(self):
        # Whitened observations leave cond(R) out of the certificate: every
        # draw with k >= 2 at lo = 0.9, T = 50 (145 of seeds 0-199) still
        # certifies under an R of condition 1e6.
        cells = {seed: cell for seed in range(200) if (cell := ill_r_draw(seed)) is not None}
        assert len(cells) == 145
        failed = [seed for seed, cell in cells.items() if not check_discrete(*cell, alpha=0.1).passed]
        assert failed == []

    def test_random_bernoulli_systems(self):
        # The same rule under Bernoulli observations through the canonical
        # link: every bernoulli_draw at lo = 0.3, T = 50 certifies (worst
        # deviation 1.5e-12 over seeds 0-99).
        failed = [
            seed for seed in range(100)
            if not check_discrete(*bernoulli_draw(seed, 0.3, 50), alpha=0.1).passed
        ]
        assert failed == []


class TestContinuousCollapse:
    """hidden_ct: the continuous pair where P_t collapses like
    exp((alpha - 2c) t) in the unobserved direction (alpha = 0.2,
    dts 0.01 and 0.001).  Both flows carry triangular factors, S of P and
    U of J, so the pair certifies at the unchanged 1e-6 with no floor of
    its own: at c = 3, T = 10, where P reaches cond ~1e13, as at the
    shorter horizons (measured 2.0e-13 / 6.1e-13 at (3, 10) and
    4.9e-13 / 4.4e-12 at (5, 5), order 4.0)."""

    @pytest.mark.parametrize("c, horizon", [(3.0, 5.0), (5.0, 2.0), (3.0, 10.0), (5.0, 5.0)])
    def test_collapsing_pair_certifies(self, c, horizon):
        result = check_continuous(*hidden_ct(1, c), alpha=0.2, dts=[0.01, 0.001], horizon=horizon)
        assert result.passed
        assert result.order_state >= 3.5


class TestGaussianObservationFactor:
    """Structure guard: a gaussian family's fixed R is factored once, and
    its observations are read whitened through the kept L^-1, so no
    certificate solves with R."""

    def test_r_is_factored_once_per_family(self, monkeypatch):
        horizon = 50
        scenario, s0, p0 = equivalence.sweep_cell("linear2d", horizon, 0)
        r = scenario.family.obs_cov
        factored = []  # one entry per dpotrf call: was it R?
        dpotrf = numerics.dpotrf

        def counting_dpotrf(a, *args, **kwargs):
            factored.append(np.array_equal(a, r))
            return dpotrf(a, *args, **kwargs)

        monkeypatch.setattr(numerics, "dpotrf", counting_dpotrf)
        expfam.gaussian(r)
        assert factored == [True]  # when the family is built
        factored.clear()
        assert check_discrete(scenario, s0, p0, alpha=0.1).passed
        assert not any(factored)  # not on first use, nor per linearisation
        # The rest: the prior covariance, factored into J_0, and J_0,
        # factored once by the gradient side.  Its steps and the metric
        # check read triangular factors and factor nothing.
        assert len(factored) == 2

    def test_no_certificate_solves_with_r(self, monkeypatch):
        calls = []
        original, dpotrs = numerics.solve_psd, numerics.dpotrs

        def counting_solve(*args):
            calls.append("solve_psd")
            return original(*args)

        def counting_dpotrs(*args, **kwargs):
            calls.append("dpotrs")
            return dpotrs(*args, **kwargs)

        for module in (numerics, bucy, ekf, equivalence, expfam, natgrad):
            if getattr(module, "solve_psd", None) is original:
                monkeypatch.setattr(module, "solve_psd", counting_solve)
        monkeypatch.setattr(numerics, "dpotrs", counting_dpotrs)
        for name in ("linear2d", "static"):
            assert check_discrete(*equivalence.sweep_cell(name, 50, 0), alpha=0.1).passed
        model = builtin("pendulum-ct")
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2, dts=[0.1, 0.01], horizon=1.0,
        )
        assert result.passed
        assert calls == []

    # R = Q diag(1, k) Q^T, cond(R) = 1/k: the family accepts it, and read
    # whitened it meets no solve's residual bound, so the pair certifies
    # (1.9e-13 / 2.2e-11 at k = 1e-6, 4.1e-13 / 4.1e-9 at k = 1e-8).
    def test_ill_conditioned_r_certifies(self):
        c, s = np.cos(0.3), np.sin(0.3)
        q = np.array([[c, -s], [s, c]])
        model = builtin("linear2d")
        for k in (1e-6, 1e-8):
            family = expfam.gaussian(q @ np.diag([1.0, k]) @ q.T)
            scenario = generate_scenario(model, family, 200, seed=0)
            report = check_discrete(
                scenario, 0.5 * model.init_state, np.eye(2), alpha=0.1, tol=1e-8
            )
            assert report.passed, k


class TestNoSpdSolve:
    """Structure guard: every observation is read through its canonical
    link or whitened by a closed-form S^-T, so no library path reaches
    the residual-capped SPD solve."""

    def test_no_certificate_reaches_solve_psd(self, monkeypatch):
        original = numerics.solve_psd

        def refuse(*args):
            raise AssertionError("a library path called solve_psd")

        for module in (numerics, bucy, ekf, equivalence, expfam, natgrad):
            if getattr(module, "solve_psd", None) is original:
                monkeypatch.setattr(module, "solve_psd", refuse)
        logistic = equivalence.sweep_cell("logistic-static", 50, 0)
        track = softmax_track(0)
        cells = [
            equivalence.sweep_cell("linear2d", 50, 0),
            logistic,
            (unlinked(logistic[0]),) + logistic[1:],
            (unlinked(track[0]),) + track[1:],
        ]
        for cell in cells:
            assert check_discrete(*cell, alpha=0.1).passed
        model = builtin("pendulum-ct")
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2, dts=[0.1, 0.01], horizon=1.0,
        )
        assert result.passed


def count_finiteness_checks(monkeypatch):
    """Count each call of numerics._finite by the name of the function that
    makes it, and record each direct np.isfinite call the same way."""
    sites, direct = collections.Counter(), []
    original, isfinite = numerics._finite, np.isfinite

    def counting(a):
        sites[sys._getframe(1).f_code.co_name] += 1
        return original(a)

    def direct_call(*args, **kwargs):
        direct.append(sys._getframe(1).f_code.co_name)
        return isfinite(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("kalgrad") and getattr(module, "_finite", None) is original:
            monkeypatch.setattr(module, "_finite", counting)
    monkeypatch.setattr(np, "isfinite", direct_call)
    return sites, direct


class TestPerStepChecks:
    """Structure guard: every per-step check of a certificate is one call
    of numerics._finite, in both time domains, and none calls np.isfinite
    itself; each observed value and each RK4 stage is tested once; a
    canonical-link linearisation evaluates the probabilities at its
    predictor once, and each side builds only the matrix it reads."""

    @pytest.mark.parametrize("name", equivalence.SWEEP_MODELS)
    def test_sweep_cell_checks_each_step_through_finite(self, monkeypatch, name):
        scenario, s0, p0 = equivalence.sweep_cell(name, 50, 0)
        sites, direct = count_finiteness_checks(monkeypatch)
        assert check_discrete(scenario, s0, p0, alpha=0.1).passed
        steps = scenario.horizon
        # Nine per pair step: each side's transition and its observed
        # value (the mean h or the natural parameter, tested once where it
        # is read), the filter's predicted covariance and posterior, the
        # gradient's factor and step.  Per cell: the prior P_0 and J_0
        # once each, and the chart of a constant F once.
        canonical = name == "logistic-static"
        expected = {
            "step_dynamics": 2 * steps,
            "transition": steps,
            "_as_natural" if canonical else "check_mean": 2 * steps,
            "observe_gain": 2 * steps,
            "update": 2 * steps,
            "chart": steps if name == "tanhspring" else 1,
            "_check_finite": 2,
        }
        assert sites == expected
        assert direct == []

    def test_continuous_pair_checks_each_stage_through_finite(self, monkeypatch):
        model = builtin("pendulum-ct")
        sites, direct = count_finiteness_checks(monkeypatch)
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2, dts=[0.1, 0.05], horizon=1.0,
        )
        assert result.passed
        steps = 10 + 20
        # Per RK4 step: four stages, each the derivative of two sides,
        # tested once by the field and never by rk4_step, and the mean of
        # each side's observation, then one positivity check of both
        # factors.  Per certificate: P_0 twice and J_0 once, and the start
        # of each side.
        assert sites == {
            "deriv": 8 * steps,
            "check_mean": 8 * steps,
            "check": steps + 2,
            "_check_finite": 3,
        }
        assert direct == []

    # A failing positivity check tests the stacked factors, then each side
    # in order until one fails, all through _finite.
    @pytest.mark.parametrize("bad, label, calls", [(3, "covariance", 2), (9, "metric", 3)])
    def test_a_failing_positivity_check_names_its_side_through_finite(self, monkeypatch, bad, label, calls):
        check = bucy._factor_check([bucy.BUCY, bucy.CNGD], [0, 6], 2)
        z = np.concatenate([np.zeros(2), np.eye(2).ravel(), np.zeros(2), np.eye(2).ravel(), [0.5]])
        z[bad] = np.nan
        sites, direct = count_finiteness_checks(monkeypatch)
        with pytest.raises(bucy.PositivityLostError, match=f"^{label} lost positive definiteness at t = 0.5$"):
            check(z, 0.5)
        assert sites == {"check": calls}
        assert direct == []

    @pytest.mark.parametrize("track", [False, True], ids=["logistic-static", "softmax-track"])
    def test_canonical_probabilities_once_per_linearisation(self, monkeypatch, track):
        scenario, s0, p0 = softmax_track(0) if track else equivalence.sweep_cell("logistic-static", 50, 0)
        calls = collections.Counter()

        def counting(fn):
            def counted(family, x, *stats):
                calls[fn.__name__, sys._getframe(1).f_code.co_name] += 1
                return fn(family, x, *stats)

            return counted

        for name in ("_canonical_probs", "canonical_parts"):
            monkeypatch.setattr(expfam, name, counting(getattr(expfam, name)))
        assert check_discrete(scenario, s0, p0, alpha=0.1).passed
        per_side_step = 2 * scenario.horizon
        assert calls == {
            ("canonical_parts", "linearise"): per_side_step,
            ("_canonical_probs", "canonical_parts"): per_side_step,
        }
        # The same observations read through the mean parameter evaluate
        # none in a linearisation (softmax-track's h is the softmax), and
        # still certify at the default tolerance.
        calls.clear()
        assert check_discrete(unlinked(scenario), s0, p0, alpha=0.1).passed
        assert ("canonical_parts", "linearise") not in calls

    @pytest.mark.parametrize("track", [False, True], ids=["logistic-static", "softmax-track"])
    def test_each_side_builds_only_the_matrix_it_reads(self, monkeypatch, track):
        # Per step the filter builds C = V(x) once and never its root; the
        # gradient side builds the root once and never C.
        scenario, s0, p0 = softmax_track(0) if track else equivalence.sweep_cell("logistic-static", 50, 0)
        side, built = [None], collections.Counter()

        def during(name, step):
            def wrapped(*args):
                side[0] = name
                try:
                    return step(*args)
                finally:
                    side[0] = None

            return wrapped

        def counting(builder):
            def counted(*args):
                built[side[0], builder.__name__] += 1
                return builder(*args)

            return counted

        monkeypatch.setattr(ekf, "observe_gain", during("filter", ekf.observe_gain))
        monkeypatch.setattr(natgrad, "update", during("gradient", natgrad.update))
        for name in ("_variance", "_simplex_root"):
            monkeypatch.setattr(expfam, name, counting(getattr(expfam, name)))
        assert check_discrete(scenario, s0, p0, alpha=0.1).passed
        steps = scenario.horizon
        assert built == {("filter", "_variance"): steps, ("gradient", "_simplex_root"): steps}


# The step functions and the built-in maps of the step paths, whose
# products of two single arrays go straight to BLAS through ndarray.dot.
STEP_PRODUCTS = [
    ekf.transition,
    ekf.observe_gain,
    natgrad.fisher_rows,
    natgrad.update,
    model_mod._whitened,
    model_mod._make_static,
    model_mod._make_linear2d,
    model_mod._make_tanhspring,
    model_mod._tanhspring_f,
    model_mod._tanhspring_jac,
    model_mod._make_logistic_static,
    model_mod._logistic_predictor,
    model_mod._logistic_h,
    model_mod._logistic_jac_h,
    bucy.bucy_deriv,
    bucy.cngd_deriv,
    expfam._canonical_probs,
    expfam.sample,
]


class TestStepProducts:
    """Structure guard: no product of two single arrays on a step path is
    written with @, whose dispatch costs more than twice that of
    ndarray.dot for the same BLAS call on a 2x2 array."""

    @pytest.mark.parametrize(
        "fn", STEP_PRODUCTS, ids=lambda fn: f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
    )
    def test_no_step_product_uses_matmul(self, fn):
        tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
        assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


class TestCanonicalLinkEquivalence:
    def test_saturated_bernoulli_completes_on_the_canonical_path(self):
        # Seed 0 at alpha = 1 drives the predicted bernoulli mean to 1.0 in
        # float64 at t = 21.  The mean-parameter path needs cov(T)^-1 there
        # and aborts; with the declared linear predictor the covariance
        # cancels and both algorithms run all 50 steps, still in agreement.
        canonical = scenario_for("logistic-static", 50, seed=0)
        model = canonical.model
        s0, p0 = 0.5 * model.init_state, np.eye(2)
        mean_path = unlinked(canonical)

        def first(scenario, steps):
            return dataclasses.replace(
                scenario,
                observations=scenario.observations[:steps],
                true_states=scenario.true_states[: steps + 1],
            )

        assert check_discrete(first(mean_path, 20), s0, p0, alpha=1.0, tol=1e-8).passed
        with pytest.raises(DomainError):
            check_discrete(first(mean_path, 21), s0, p0, alpha=1.0, tol=1e-8)

        report = check_discrete(canonical, s0, p0, alpha=1.0, tol=1e-8)
        assert report.passed
        assert report.filter_states.shape == (51, 2)

    # Categorical observations under dynamics (f = 0.99 Q, n = 4): every
    # seed certifies through the logits and through the mean parameter,
    # where the closed-form S^-T meets a moving state (worst deviations
    # 3.5e-15 and 6.2e-15 over seeds 0-14).
    @pytest.mark.parametrize("canonical", [True, False], ids=["canonical", "mean"])
    def test_softmax_track_certifies(self, canonical):
        failed = []
        for seed in range(15):
            scenario, s0, p0 = softmax_track(seed)
            if not canonical:
                scenario = unlinked(scenario)
            if not check_discrete(scenario, s0, p0, alpha=0.1).passed:
                failed.append(seed)
        assert failed == []

    def test_categorical_softmax_link(self):
        # A softmax model declaring its logits agrees with the same model
        # through the mean parameter, and both sides agree with each other.
        model = softmax_model()
        family = expfam.categorical(3)
        scenario = generate_scenario(model, family, 30, seed=5)
        report = check_discrete(scenario, np.zeros(2), np.eye(2), alpha=0.2, tol=1e-8)
        assert report.passed
        assert report.max_state_dev <= 1e-12
        mean_path = unlinked(scenario)
        reference = check_discrete(mean_path, np.zeros(2), np.eye(2), alpha=0.2, tol=1e-8)
        np.testing.assert_allclose(
            report.filter_states, reference.filter_states, rtol=1e-12, atol=1e-14
        )


class TestCheckContinuous:
    # Structure guard: the continuous pair is one representation.  The
    # gradient side carries U and solves with it, so one certificate on
    # pendulum-ct makes no SPD solve and no dense Cholesky.
    def test_one_certificate_calls_no_spd_solve_or_dense_cholesky(self, monkeypatch):
        calls = []
        original, cholesky_fn = numerics.solve_psd, np.linalg.cholesky

        def counting_solve(*args):
            calls.append("solve_psd")
            return original(*args)

        def counting_cholesky(*args, **kwargs):
            calls.append("cholesky")
            return cholesky_fn(*args, **kwargs)

        for module in (numerics, bucy, ekf, equivalence, expfam, natgrad):
            if getattr(module, "solve_psd", None) is original:
                monkeypatch.setattr(module, "solve_psd", counting_solve)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        model = builtin("pendulum-ct")
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2, dts=[0.1, 0.01], horizon=1.0,
        )
        assert result.passed
        assert calls == []

    # Structure guard: the continuous pair factors each prior once per
    # certificate, whatever the number of grid steps: P_0 in
    # initial_metric, P_0 in the filter's start and J_0 in the gradient
    # side's.  Its steps and the metric check read triangular factors and
    # factor nothing.
    def test_one_certificate_factors_each_prior_once(self, monkeypatch):
        model = builtin("pendulum-ct")  # its family factors R when built
        factored = []
        original = numerics.dpotrf

        def counting_dpotrf(*args, **kwargs):
            factored.append(1)
            return original(*args, **kwargs)

        for module in (numerics, bucy, ekf, equivalence, expfam, natgrad):
            if getattr(module, "dpotrf", None) is original:
                monkeypatch.setattr(module, "dpotrf", counting_dpotrf)
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2, dts=[0.1, 0.01, 0.001], horizon=1.0,
        )
        assert result.passed
        assert len(factored) == 3

    # On scalar linear-ct the two factor flows agree to rounding from
    # dt = 1e-3 on (8.9e-16 at 1e-3 and at 1e-4), so the study reads the
    # truncation between 1e-2 and 1e-3 (7.5e-12 to 8.9e-16).
    def test_linear_ct_deviation_shrinks(self):
        model = builtin("linear-ct")
        result = check_continuous(
            model, model.init_state, np.array([[1.0]]), alpha=0.1,
            dts=[1e-2, 1e-3], horizon=1.0, tol=1e-6,
        )
        coarse, fine = result.reports
        assert coarse.dt == 1e-2 and fine.dt == 1e-3
        assert coarse.max_state_dev >= 5.0 * fine.max_state_dev
        assert result.passed

    def test_vanished_deviation_has_no_order(self):
        # Over T = 0.1 the dt = 1e-3 state deviation is exactly 0: no order
        # can be measured, and the run still counts as converged.
        model = builtin("linear-ct")
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(1), alpha=0.2,
            dts=[1e-2, 1e-3], horizon=0.1, tol=1e-6,
        )
        assert result.reports[-1].max_state_dev == 0.0
        assert np.isnan(result.order_state)
        assert result.passed

    def test_pendulum_passes_at_fine_dt(self):
        model = builtin("pendulum-ct")
        result = check_continuous(
            model, model.init_state, 0.5 * np.eye(2), alpha=0.2,
            dts=[1e-2, 1e-3], horizon=1.0, tol=1e-6,
        )
        assert result.passed
        assert result.order_state >= 1.0

    def test_negative_fading_weight_rejected(self):
        model = builtin("pendulum-ct")
        with pytest.raises(ValueError, match="fading-memory weights must be >= 0"):
            check_continuous(
                model, model.init_state, 0.5 * np.eye(2), alpha=-0.5,
                dts=[1e-2], horizon=1.0,
            )

    # An infinite horizon has no grid; it is refused before one is sized.
    def test_infinite_horizon_rejected(self):
        model = builtin("pendulum-ct")
        with pytest.raises(ValueError, match="horizon must be finite"):
            check_continuous(
                model, model.init_state, 0.5 * np.eye(2), alpha=0.2,
                dts=[0.1], horizon=np.inf,
            )

    def test_empty_dts_rejected(self):
        model = builtin("linear-ct")
        with pytest.raises(ValueError, match="dts must hold at least one step size"):
            check_continuous(model, model.init_state, np.eye(1), alpha=0.2, dts=[], horizon=1.0)

    # Every step size is checked before any grid is integrated: a grid
    # that stops short of T would be compared with one that reaches it.
    @pytest.mark.parametrize("dt", [0.3, 0.4, 0.7])
    def test_step_that_misses_the_horizon_rejected(self, dt, monkeypatch):
        model = builtin("linear-ct")
        calls = []
        monkeypatch.setattr(bucy, "integrate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"need a dt that divides T = 1, got {dt:g}"):
            check_continuous(
                model, model.init_state, np.eye(1), alpha=0.2, dts=[0.1, dt], horizon=1.0
            )
        assert calls == []

    # The order is a slope between the coarsest and finest step sizes: a
    # repeated one would divide by log 1 = 0.
    def test_repeated_step_size_rejected(self, monkeypatch):
        model = builtin("linear-ct")
        calls = []
        monkeypatch.setattr(bucy, "integrate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=re.escape("repeated step size dt = 0.01 (entry 2 of 2)")):
            check_continuous(
                model, model.init_state, np.eye(1), alpha=0.2, dts=[0.01, 0.01], horizon=1.0
            )
        assert calls == []

    # J_0 = eta_0 P_0^-1 is undefined for these; the refusal comes before
    # the product, so numpy never warns.
    @pytest.mark.parametrize("eta0", [np.inf, np.nan, 0.0, -1.0])
    def test_undefined_eta0_rejected(self, eta0, monkeypatch):
        model = builtin("pendulum-ct")
        calls = []
        monkeypatch.setattr(bucy, "integrate", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="must be positive and finite"):
            check_continuous(
                model, model.init_state, 0.5 * np.eye(2), alpha=0.2,
                dts=[0.1], horizon=1.0, eta0=eta0,
            )
        assert calls == []

    def test_eta_alpha_zero_closed_form(self):
        # eta(1) = 1/2 when alpha = 0 and eta0 = 1.
        model = builtin("linear-ct")
        trace = bucy.integrate(bucy.CNGD, model.init_state, np.eye(1), model, 1e-3, 1.0, eta0=1.0)
        assert abs(trace.etas[-1] - 0.5) < 1e-8


class TestDiscreteToContinuousLimit:
    # The continuous pair is the dt -> 0 limit of the discrete pair on the
    # Euler scenario (tests/oracles.py::euler_scenario), under
    # alpha_d = alpha dt and eta_0^d = dt eta_0.  Each discrete pair is
    # certified at the discrete tolerance, and its gradient side approaches
    # cngd at order 1 in the state, J / dt and eta / dt.  Measured over
    # T = 1 at dt = 0.1, 0.01, 0.001 (errors shrink by 10^0.98 to 10^1.01
    # per decade): linear-ct state 1.96e-3 -> 1.91e-5, J 1.73e-3 ->
    # 1.77e-5, eta 4.03e-3 -> 4.08e-5; pendulum-ct state 2.77e-2 ->
    # 2.73e-4, J 6.05e-2 -> 6.39e-4, the same eta.  The cngd reference is
    # RK4 at dt = 1e-3, whose own error is below 1e-11.
    @pytest.mark.parametrize("name", ["linear-ct", "pendulum-ct"])
    def test_discrete_pair_tends_to_the_continuous_pair(self, name):
        model = builtin(name)
        alpha, eta0, p0 = 0.2, 0.5, 0.5 * np.eye(model.dim_state)
        ref = bucy.integrate(
            bucy.CNGD, model.init_state, equivalence.initial_metric(p0, eta0),
            model, 1e-3, 1.0, alpha, eta0,
        )
        errors = []
        for dt in (0.1, 0.01, 0.001):
            scenario = euler_scenario(model, dt, 1.0)
            report = check_discrete(scenario, model.init_state, p0, alpha * dt, tol=1e-8, eta0=dt * eta0)
            assert report.passed
            etas = map_alpha_to_eta(alpha * dt, dt * eta0, scenario.horizon)
            grad = natgrad.run(
                scenario, etas[1:], etas[1:], model.init_state,
                equivalence.initial_metric(p0, dt * eta0),
            )
            stride = int(round(dt / 1e-3))
            metrics = gradient_metrics(ref)[::stride]
            errors.append([
                np.abs(grad.states - ref.states[::stride]).max(),
                (np.linalg.norm(gradient_metrics(grad) / dt - metrics, axis=(1, 2))
                 / np.linalg.norm(metrics, axis=(1, 2))).max(),
                np.abs(etas / dt - ref.etas[::stride]).max() / np.abs(ref.etas).max(),
            ])
        errors = np.array(errors)
        orders = np.log10(errors[:-1] / errors[1:])
        assert orders.min() >= 0.95, orders
        assert errors[-1].max() <= 1e-3, errors[-1]
