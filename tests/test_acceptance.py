"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s -v``).

Covariance and metric matrices produced along the way are accumulated and
audited at the end for symmetry and positive definiteness.
"""

import dataclasses
import functools
import time

import numpy as np
import pytest

from kalgrad import bucy, ekf, equivalence, expfam, natgrad
from kalgrad.equivalence import (
    SWEEP_HORIZON as HORIZON,
    SWEEP_MODELS,
    SWEEP_SEEDS,
    check_continuous,
    check_discrete,
    map_alpha_to_eta,
    sweep_cell,
    sweep_schedules,
)
from kalgrad.model import DynamicalModel, builtin, generate_scenario, linearise

from conftest import gradient_metrics, observe, random_spd
from oracles import (
    inst_loglik, log_density, map_eta_to_alpha, mc_fisher, mean_linearisation, observe_gradient,
    observe_information, plain_online_natgrad,
)
from test_ekf import make_linear_model
from test_equivalence import softmax_model

# Covariance/metric matrices collected by the criteria as they run, audited
# in criterion 10.
_COLLECTED: list[np.ndarray] = []


def _report(number, name, passed):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def _collected_pair(scenario, s0, p0, alpha):
    """Run both sides of the discrete comparison, stashing their matrices."""
    eta = map_alpha_to_eta(alpha, 0.5, scenario.horizon)
    metric0 = eta[0] * np.linalg.inv(p0)
    ftrace = ekf.run(scenario, alpha, s0, p0)
    gtrace = natgrad.run(scenario, eta[1:], eta[1:], s0, metric0)
    _COLLECTED.extend(ftrace.covs)
    _COLLECTED.extend(gradient_metrics(gtrace))


def test_c01_discrete_equivalence():
    # On logistic-static with constant alpha = 1 the fading filter averages
    # over an effective window of about two observations, so its predicted
    # bernoulli mean saturates and rounds to 1.0 in float64 between t = 10
    # and t = 21, depending on the seed. Both algorithms stay defined there:
    # the model declares its linear predictor x = s.u, and through it the
    # score u (y - p) and the Fisher v u u^T, v = expit(x) expit(-x), are
    # finite even where v underflows to 0. Only the mean-parameter forms,
    # which build H = v u^T and R = v separately and need R^-1, break down.
    # Once v is 0 the covariance doubles each step and the estimates grow to
    # as much as 5e13 by t = 50; that is the algorithm's own behaviour, and
    # the two sides still agree on it.
    start = time.perf_counter()
    worst_state = worst_metric = 0.0
    aborted = []
    from kalgrad.errors import NumericalError

    for name in SWEEP_MODELS:
        for alpha_name, alpha in sweep_schedules(HORIZON).items():
            for seed in range(SWEEP_SEEDS):
                scenario, s0, p0 = sweep_cell(name, HORIZON, seed)
                try:
                    report = check_discrete(scenario, s0, p0, alpha, tol=1e-8)
                except NumericalError as exc:
                    aborted.append((name, alpha_name, seed, str(exc)))
                    continue
                worst_state = max(worst_state, report.max_state_dev)
                worst_metric = max(worst_metric, report.max_metric_dev)
        _collected_pair(*sweep_cell(name, HORIZON, 0), 0.1)
    elapsed = time.perf_counter() - start
    total = len(SWEEP_MODELS) * len(sweep_schedules(HORIZON)) * SWEEP_SEEDS
    print(
        f"  {total - len(aborted)}/{total} cells completed:"
        f" worst state dev {worst_state:.3e}, worst metric dev {worst_metric:.3e},"
        f" {elapsed:.1f} s"
    )
    for name, alpha_name, seed, reason in aborted:
        print(f"  ABORTED {name} x alpha={alpha_name} x seed={seed}: {reason}")
    _report(
        1,
        "discrete equivalence (4 models x 4 schedules x 10 seeds)",
        not aborted and worst_state <= 1e-8 and worst_metric <= 1e-8 and elapsed < 10.0,
    )


def test_c02_negative_controls():
    scenario, s0, p0 = sweep_cell("linear2d", HORIZON, 0)
    all_fail = True
    for mutation in equivalence.MUTATIONS:
        report = check_discrete(scenario, s0, p0, 0.1, tol=1e-8, mutate=mutation)
        print(f"  {mutation}: max_state_dev = {report.max_state_dev:.3e}")
        all_fail = all_fail and (not report.passed) and report.max_state_dev > 1e-3
    _report(2, "negative controls break the identification", all_fail)


def test_c03_linear_gaussian_exactness():
    # Oracle: batch Gaussian conditioning of s_0 on all ten observations,
    # pushed through the known linear dynamics to time 10.
    horizon = 10
    model = builtin("linear2d")
    r = 0.1 * np.eye(2)
    scenario = generate_scenario(model, expfam.gaussian(r), horizon, seed=14)
    s0 = np.array([0.3, -0.6])
    p0 = np.diag([0.8, 1.7])
    trace = ekf.run(scenario, 0.0, s0, p0)
    _COLLECTED.extend(trace.covs)

    a_mat = 0.99 * np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    r_inv = np.linalg.inv(r)
    prec = np.linalg.inv(p0)
    info = prec @ s0
    a_pow = np.eye(2)
    for t in range(1, horizon + 1):
        a_pow = a_mat @ a_pow
        prec += a_pow.T @ r_inv @ a_pow
        info += a_pow.T @ r_inv @ np.asarray(scenario.obs(t))
    mean_t = a_pow @ np.linalg.solve(prec, info)
    cov_t = a_pow @ np.linalg.inv(prec) @ a_pow.T

    mean_err = np.abs(trace.states[-1] - mean_t).max()
    cov_err = np.abs(trace.covs[-1] - cov_t).max()
    print(f"  mean err {mean_err:.3e}, cov err {cov_err:.3e}")
    _report(3, "linear-gaussian filter equals batch posterior", mean_err <= 1e-10 and cov_err <= 1e-10)


def test_c04_observation_form_identities():
    ok = True
    for dim in (1, 2, 5):
        rng = np.random.default_rng(400 + dim)
        for _ in range(100):
            h_mat = rng.standard_normal((dim, dim))
            model = make_linear_model(h_mat)
            family = expfam.gaussian(random_spd(rng, dim))
            pred = (rng.standard_normal(dim), random_spd(rng, dim))
            y = model.h(pred[0], np.zeros(0)) + rng.standard_normal(dim)
            a_mean, a_cov = observe(ekf.observe_gain, *pred, y, model, family, 1)
            b_mean, b_cov = observe(observe_information, *pred, y, model, family, 1)
            c_mean, c_cov = observe(observe_gradient, *pred, y, model, family, 1)
            scale = max(1.0, float(np.abs(a_mean).max()))
            cov_scale = float(np.linalg.norm(a_cov))
            ok = ok and np.abs(a_mean - b_mean).max() <= 1e-10 * scale
            ok = ok and np.abs(a_mean - c_mean).max() <= 1e-10 * scale
            ok = ok and np.linalg.norm(a_cov - b_cov) <= 1e-10 * cov_scale
            ok = ok and np.linalg.norm(a_cov - c_cov) <= 1e-10 * cov_scale
        _COLLECTED.extend([a_cov, b_cov, c_cov])
    _report(4, "gain/information/gradient updates agree (dims 1, 2, 5)", ok)


def test_c05_fisher_identity_monte_carlo():
    n = 100_000
    ok = True

    # Gaussian, scalar observation of a 2-state system: the score outer
    # product is H_i H_j z^2 / r^2 with z ~ N(0, r), so each entry has
    # standard error sqrt(2) |H_i H_j| / (r sqrt(n)).
    r = 0.8
    h_jac = np.array([[0.7, -1.2]])
    fam = expfam.gaussian(np.array([[r]]))
    mean = np.array([0.4])
    lin_of = functools.partial(mean_linearisation, fam, mean, h_jac)
    rows = natgrad.fisher_rows(lin_of(mean))
    exact = rows.T @ rows
    mc = mc_fisher(lin_of, fam, mean, np.random.Generator(np.random.Philox(key=501)), n)
    se = np.sqrt(2.0) * np.abs(h_jac.T @ h_jac) / (r * np.sqrt(n))
    gauss_ok = np.all(np.abs(mc - exact) <= 3.0 * se)
    print(f"  gaussian max |mc - exact| / se = {(np.abs(mc - exact) / se).max():.2f}")

    # Bernoulli: (y - p)^2 takes two values, so its variance (and the
    # entrywise standard error) is available in closed form.
    p = 0.3
    v = p * (1 - p)
    h_jac = np.array([[0.9, 0.4]])
    fam = expfam.bernoulli()
    mean = np.array([p])
    lin_of = functools.partial(mean_linearisation, fam, mean, h_jac)
    rows = natgrad.fisher_rows(lin_of(mean))
    exact = rows.T @ rows
    mc = mc_fisher(lin_of, fam, mean, np.random.Generator(np.random.Philox(key=502)), n)
    var_sq = v * ((1 - p) ** 3 + p**3) - v**2
    se = np.abs(h_jac.T @ h_jac) * np.sqrt(var_sq) / (v**2 * np.sqrt(n))
    bern_ok = np.all(np.abs(mc - exact) <= 3.0 * se)
    print(f"  bernoulli max |mc - exact| / se = {(np.abs(mc - exact) / se).max():.2f}")

    ok = gauss_ok and bern_ok
    _report(5, "exact Fisher matches Monte Carlo outer products (3 SE)", ok)


def test_c06_hyperparameter_map():
    eta = map_alpha_to_eta(0.0, eta0=1.0, horizon=300)
    harmonic_exact = all(eta[t] == 1.0 / (t + 1) for t in range(301))

    fixed_point_ok = True
    for alpha in (0.1, 1.0, 10.0):
        eta = map_alpha_to_eta(alpha, eta0=0.5, horizon=200)
        gap = abs(eta[200] - alpha / (1.0 + alpha))
        print(f"  alpha = {alpha}: |eta_200 - fixed point| = {gap:.2e}")
        fixed_point_ok = fixed_point_ok and gap <= 1e-6

    rng = np.random.default_rng(600)
    alpha = rng.uniform(0.0, 2.0, 100)
    eta = map_alpha_to_eta(alpha, eta0=0.7, horizon=100)
    round_trip = np.abs(map_eta_to_alpha(eta) - alpha).max()
    print(f"  round-trip error = {round_trip:.2e}")

    _report(
        6,
        "hyperparameter map: harmonic, fixed points, round trip",
        harmonic_exact and fixed_point_ok and round_trip <= 1e-12,
    )


def test_c07_static_reduction():
    model = builtin("static")
    fam = expfam.gaussian(np.array([[0.5]]))
    horizon = 100
    scenario = generate_scenario(model, fam, horizon, seed=70)
    eta = map_alpha_to_eta(0.2, eta0=0.5, horizon=horizon)[1:]
    s0 = np.array([0.0, 0.0])
    j0 = np.eye(2)
    chart = natgrad.run(scenario, eta, eta, s0, j0)
    plain_states, plain_metrics = plain_online_natgrad(
        [model.input_at(t) for t in range(1, horizon + 1)],
        scenario.observations,
        model.h,
        fam,
        eta,
        eta,
        s0,
        j0,
        jacobian_h=model.jacobian_h,
    )
    state_gap = np.abs(chart.states - plain_states).max()
    chart_metrics = gradient_metrics(chart)
    metric_gap = np.abs(chart_metrics - plain_metrics).max()
    _COLLECTED.extend(chart_metrics)
    print(f"  state gap {state_gap:.3e}, metric gap {metric_gap:.3e}")
    _report(7, "static model reduces to the plain online natural gradient", state_gap <= 1e-12 and metric_gap <= 1e-12)


def test_c08_continuous_equivalence():
    start = time.perf_counter()
    model = builtin("pendulum-ct")
    result = check_continuous(
        model,
        model.init_state,
        0.5 * np.eye(2),
        alpha=0.2,
        dts=[1e-2, 1e-3, 1e-4],
        horizon=1.0,
        tol=1e-6,
        eta0=0.5,
        min_order=1.0,
    )
    elapsed = time.perf_counter() - start
    for rep in result.reports:
        print(
            f"  dt = {rep.dt:g}: state dev {rep.max_state_dev:.3e},"
            f" metric dev {rep.max_metric_dev:.3e}"
        )
    print(f"  measured order {result.order_state:.2f}, {elapsed:.1f} s")

    # Stash matrices from a representative grid for the criterion-10 audit.
    tb = bucy.integrate(bucy.BUCY, model.init_state, 0.5 * np.eye(2), model, 1e-3, 1.0, 0.2)
    tc = bucy.integrate(bucy.CNGD, model.init_state, np.eye(2), model, 1e-3, 1.0, 0.2, eta0=0.5)
    _COLLECTED.extend(tb.covs)
    _COLLECTED.extend(gradient_metrics(tc))

    finest = result.reports[-1]
    _report(
        8,
        "continuous equivalence on pendulum-ct",
        finest.max_state_dev <= 1e-6
        and finest.max_metric_dev <= 1e-6
        and result.order_state >= 1.0
        and elapsed < 30.0,
    )


def test_c09_riccati_oracle():
    from kalgrad.model import ContinuousModel

    model = ContinuousModel(
        name="scalar-integrator",
        dim_state=1,
        dim_input=0,
        dim_obs=1,
        f=lambda s, u: np.zeros(1),
        h=lambda s, u: s.copy(),
        jacobian_f=lambda s, u: np.zeros((1, 1)),
        jacobian_h=lambda s, u: np.eye(1),
        input_fn=lambda t: np.zeros(0),
        family=expfam.gaussian(np.eye(1)),
        obs_path=lambda t: np.zeros(1),
        init_state=np.zeros(1),
    )
    p0 = 2.0
    trace = bucy.integrate(bucy.BUCY, np.zeros(1), np.array([[p0]]), model, 1e-4, 1.0)
    _COLLECTED.extend(trace.covs[:: len(trace.covs) // 100])
    err = abs(trace.covs[-1, 0, 0] - p0 / (1.0 + p0 * 1.0))
    print(f"  |P(1) - closed form| = {err:.3e}")
    _report(9, "scalar Riccati flow matches closed form", err <= 1e-8)


def _score_models(rng):
    """(family, model) pairs for the criterion-10 score check: a nonlinear
    gaussian observation, and logistic and softmax observations both with
    their canonical link and through the mean parameter."""
    gaussian = DynamicalModel(
        name="gaussian-nonlinear",
        dim_state=2,
        dim_input=2,
        dim_obs=2,
        f=lambda s, u: s,
        h=lambda s, u: np.array([np.sin(s[0]) + u[0] * s[1], s[0] * s[1]]),
        jacobian_h=lambda s, u: np.array([[np.cos(s[0]), u[0]], [s[1], s[0]]]),
        inputs=lambda t: np.array([np.cos(0.9 * t), np.sin(0.4 * t)]),
        init_state=np.zeros(2),
    )
    pairs = [(expfam.gaussian(random_spd(rng, 2, scale=0.5)), gaussian)]
    for family, model in ((expfam.bernoulli(), builtin("logistic-static")),
                          (expfam.categorical(3), softmax_model())):
        assert model.canonical_link(family)
        pairs += [(family, model), (family, dataclasses.replace(model, predictor=None))]
    return pairs


def test_c10_gradient_checks_and_matrix_hygiene():
    rng = np.random.default_rng(1000)

    # The state score e B that the updates read from the linearisation,
    # against central differences of the log-density of h(s), for each
    # family through the mean parameter and, for bernoulli and categorical,
    # through the canonical link too.
    grads_ok = True
    for family, model in _score_models(rng):
        for _ in range(100):
            s = rng.standard_normal(model.dim_state)
            t = int(rng.integers(1, 50))
            y = expfam.sample(family, model.h(s, model.input_at(t)), rng)
            lin = linearise(model, family, s, model.input_at(t), expfam.sufficient_stats(family, y), t)
            grad = lin.residual @ lin.jac
            fd = np.zeros(model.dim_state)
            eps = 1e-6
            for j in range(model.dim_state):
                e = np.zeros(model.dim_state)
                e[j] = eps
                fd[j] = (
                    log_density(family, y, model.h(s + e, model.input_at(t)))
                    - log_density(family, y, model.h(s - e, model.input_at(t)))
                ) / (2 * eps)
            scale = max(1.0, np.abs(fd).max())
            grads_ok = grads_ok and np.abs(grad - fd).max() <= 1e-6 * scale

    # The continuous fields' score e B against central differences of the
    # instantaneous log-likelihood.
    model = builtin("pendulum-ct")
    u = np.zeros(0)
    inst_ok = True
    for _ in range(100):
        s = rng.standard_normal(2)
        y = rng.standard_normal(1)
        r = np.array([[rng.uniform(0.5, 2.0)]])
        lin = mean_linearisation(expfam.gaussian(r), model.h(s, u), model.jac_h(s, u), y)
        grad = lin.residual @ lin.jac
        fd = np.zeros(2)
        eps = 1e-6
        for j in range(2):
            e = np.zeros(2)
            e[j] = eps
            fd[j] = (
                inst_loglik(y, s + e, u, r, model.h)
                - inst_loglik(y, s - e, u, r, model.h)
            ) / (2 * eps)
        scale = max(1.0, np.abs(fd).max())
        inst_ok = inst_ok and np.abs(grad - fd).max() <= 1e-6 * scale

    # Hygiene of every covariance/metric collected by the other criteria.
    if not _COLLECTED:  # standalone invocation: regenerate a representative set
        for name in SWEEP_MODELS:
            _collected_pair(*sweep_cell(name, HORIZON, 0), 0.1)
    sym_ok = True
    pd_ok = True
    for mat in _COLLECTED:
        sym_ok = sym_ok and np.abs(mat - mat.T).max() <= 1e-12 * max(1.0, np.abs(mat).max())
        pd_ok = pd_ok and np.linalg.eigvalsh(mat).min() > 0
    print(
        f"  audited {len(_COLLECTED)} matrices: symmetric = {sym_ok}, positive definite = {pd_ok}"
    )
    _report(
        10,
        "gradient checks and covariance/metric hygiene",
        grads_ok and inst_ok and sym_ok and pd_ok,
    )
