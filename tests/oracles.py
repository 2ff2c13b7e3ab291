"""Reference implementations the tests compare the library against:
log-likelihoods that the tests differentiate numerically, as oracles for
the scores the library reads from its linearisations, the unwhitened
covariance of T, its square root and cov(T)^-1 H, as oracles for the
whitened observations the library reads, a Monte Carlo
Fisher estimate, as the oracle for the exact Fisher the library blends in,
scipy's Cholesky solve with one refinement pass, as the oracle for the SPD
solve, the information form of the EKF observation update, as the
oracle for the gain form, the chartless online natural gradient that
chart-based runs on static dynamics must reproduce, the continuous fields
written plainly under a plain RK4 loop, for the continuous pair (with the
textbook dense P and J flows as the referees of the factor flows), the Euler
discretisation that links the continuous pair to the discrete one, and
families of test systems whose covariance collapses along contracting
directions (``hidden``, ``tanh20``, the random stable systems of ``draw``,
``ill_r_draw`` and ``bernoulli_draw``, and the continuous ``hidden_ct``),
and ``softmax_track``, categorical observations under dynamics."""

from typing import Callable

import numpy as np
import scipy.linalg

from scipy.special import expit

from kalgrad import expfam
from kalgrad.model import (
    ContinuousModel, DynamicalModel, Linearisation, Scenario, generate_scenario, linearise,
    mean_linearisation,
)
from kalgrad.natgrad import fisher_rows
from kalgrad.numerics import fd_jacobian, schedule, solve_psd, symmetrize


def log_density(family: expfam.ObservationFamily, y, yhat) -> float:
    """log p(y | yhat) up to an additive constant independent of yhat."""
    yhat = expfam.check_mean(family, yhat)
    if family.kind == expfam.GAUSSIAN:
        err = expfam.sufficient_stats(family, y) - yhat
        return -0.5 * float(err @ solve_psd(family.obs_cov, err))
    label = expfam._as_label(family, y)
    if family.kind == expfam.BERNOULLI:
        p = yhat[0]
        return float(np.log(p) if label == 1 else np.log1p(-p))
    if label < family.num_classes - 1:
        return float(np.log(yhat[label]))
    return float(np.log1p(-yhat.sum()))


def inst_loglik(y, s, u, obs_cov, h) -> float:
    """Instantaneous log-likelihood of a smooth observation against h(s, u).

    Equals y^T R^-1 h - h^T R^-1 h / 2; the quadratic term in y lives in
    the reference measure and is dropped.
    """
    hv = np.atleast_1d(np.asarray(h(s, u), dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    rinv_h = solve_psd(np.atleast_2d(obs_cov), hv)
    return float(y @ rinv_h - 0.5 * hv @ rinv_h)


def cho_solve_refined(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^-1 b through scipy's Cholesky wrappers (lower factor), plus one
    pass of iterative refinement."""
    factor = scipy.linalg.cho_factor(a, lower=True)
    x = scipy.linalg.cho_solve(factor, b)
    return x + scipy.linalg.cho_solve(factor, b - a @ x)


def cov_suffstats(family: expfam.ObservationFamily, yhat) -> np.ndarray:
    """Covariance of the sufficient statistics at mean parameter yhat,
    which must pass :func:`kalgrad.expfam.check_mean`: the fixed R for
    gaussian, yhat (1 - yhat) for bernoulli, and diag(yhat) - yhat yhat^T
    over the kept classes for categorical."""
    yhat = expfam.check_mean(family, yhat)
    if family.kind == expfam.GAUSSIAN:
        return family.obs_cov.copy()
    return symmetrize(np.diag(yhat) - np.outer(yhat, yhat))


def cov_root(family: expfam.ObservationFamily, yhat) -> np.ndarray:
    """A square root S of cov(T) at mean parameter yhat, S^T S = cov(T):
    L^T for the lower Cholesky factor L of a gaussian family's R, and the
    simplex root otherwise."""
    if family.kind == expfam.GAUSSIAN:
        return family.obs_factor.T
    yhat = expfam.check_mean(family, yhat)
    return expfam._simplex_root(yhat, 1.0 - yhat, 1.0 - yhat.sum())


def natural_jacobian(family: expfam.ObservationFamily, yhat, mean_jac) -> tuple[np.ndarray, np.ndarray]:
    """cov(T) at mean parameter yhat, and the Jacobian cov(T)^-1 mean_jac of
    the natural parameter, d theta / d yhat = cov(T)^-1, by a Cholesky
    solve with cov(T): the unwhitened form of the library's reading."""
    cov = cov_suffstats(family, yhat)
    return cov, cho_solve_refined(cov, mean_jac)


def suffstats_batch(family: expfam.ObservationFamily, draws) -> np.ndarray:
    """Sufficient statistics for a batch of draws, one row per draw."""
    if family.kind == expfam.GAUSSIAN:
        return np.asarray(draws, dtype=float)
    labels = np.asarray(draws, dtype=np.int64)
    if family.kind == expfam.BERNOULLI:
        return labels[:, None].astype(float)
    t = np.zeros((labels.size, family.num_classes - 1))
    kept = labels < family.num_classes - 1
    t[np.nonzero(kept)[0], labels[kept]] = 1.0
    return t


def mc_fisher(
    lin_of: Callable[[np.ndarray], Linearisation],
    family: expfam.ObservationFamily,
    mean,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Monte Carlo Fisher: the average outer product of the state scores of
    ``n`` draws at ``mean``, from ``lin_of(stats)``, the linearisation of
    their statistics at the predicted mean ``mean``."""
    draws = expfam.sample(family, mean, rng, size=n)
    lin = lin_of(suffstats_batch(family, draws))
    scores = lin.residual @ lin.jac  # one row per draw
    return symmetrize(scores.T @ scores / n)


def observe_information(mean, cov, stats, model, family, u, t):
    """Inverse-covariance EKF update of the predicted (mean, cov), with the
    arguments of :func:`kalgrad.ekf.observe_gain`: P^-1 = P_pred^-1 +
    B^T C B, s += P B^T e; returns the posterior."""
    lin = linearise(model, family, mean, u, stats, t)
    dim = cov.shape[0]
    prec_pred = solve_psd(cov, np.eye(dim))
    prec = symmetrize(prec_pred + lin.jac.T @ lin.cov() @ lin.jac)
    cov_post = symmetrize(solve_psd(prec, np.eye(dim)))
    score = lin.residual @ lin.jac
    return mean + cov_post @ score, cov_post


# The state score read from the linearisation is e B, so the preconditioned
# gradient step P (d log p / d s)^T is the information form's P B^T e.
observe_gradient = observe_information


def plain_online_natgrad(
    inputs: list,
    observations: list,
    h,
    family: expfam.ObservationFamily,
    eta,
    gamma,
    init_param,
    init_metric,
    jacobian_h=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chartless online natural gradient for a static parameter.

    ``h(theta, u)`` maps the parameter and input to the observation mean;
    ``eta`` and ``gamma`` are schedules as :func:`kalgrad.natgrad.run`
    takes them; ``jacobian_h`` defaults to central differences.  This is the f = Id
    reduction of :func:`kalgrad.natgrad.run` and serves as its reference
    implementation, with a dense metric; it returns the parameters and the
    metrics J_t, rows t = 0..T.
    """
    if len(inputs) != len(observations):
        raise ValueError("inputs and observations must have equal length")
    eta = schedule("eta", eta, len(inputs))
    gamma = schedule("gamma", gamma, len(inputs))
    theta = np.asarray(init_param, dtype=float)
    metric = np.asarray(init_metric, dtype=float)
    rows = len(inputs) + 1
    states = np.empty((rows,) + theta.shape)
    metrics = np.empty((rows,) + metric.shape)
    states[0], metrics[0] = theta, metric
    for t, (u, y) in enumerate(zip(inputs, observations), start=1):
        eta_t, gamma_t = eta[t - 1], gamma[t - 1]
        u = np.asarray(u, dtype=float)
        if jacobian_h is not None:
            h_jac = np.asarray(jacobian_h(theta, u), dtype=float)
        else:
            h_jac = fd_jacobian(lambda v: h(v, u), theta)
        stats = expfam.sufficient_stats(family, y)
        lin = mean_linearisation(family, np.asarray(h(theta, u), dtype=float), h_jac, stats)
        rows_w = fisher_rows(lin)
        metric = symmetrize((1.0 - gamma_t) * metric + gamma_t * rows_w.T @ rows_w)
        score = lin.residual @ lin.jac
        theta = theta + eta_t * solve_psd(metric, score)
        states[t], metrics[t] = theta, metric
    return states, metrics


def continuous_rk4(kind: str, model, init_state, init_matrix, dt: float, horizon: float,
                   alpha: float, eta0: float = 0.0):
    """Kalman-Bucy in factor form (``kind`` "bucy", lower-triangular S
    with P = S S^T), the natural-gradient flow in factor form ("cngd",
    upper-triangular U with J = U^T U, and the learning rate eta), or the
    textbook dense flows ("dense-bucy", matrix P; "dense-cngd", matrix J
    and eta), written plainly with np.linalg and integrated by plain RK4 on
    the grid t = i dt, with the dense P and J symmetrized after each step;
    returns (states, matrices, etas).  The factor fields are
    dS = S Phi_L(M + M^T - W^T W + alpha I), with M = S^-1 F S and
    W = L^-1 H S for R = L L^T, and dU = Phi(-M - M^T - eta I + eta V^T V) U,
    with M = U F U^-1 and V = L^-1 H U^-1; Phi_L keeps the strict lower
    triangle and half the diagonal, Phi the strict upper triangle and half
    the diagonal."""
    n = model.dim_state

    def deriv(t, z):
        s, mat, eta = z[:n], z[n:-1].reshape(n, n), z[-1]
        u = model.input_at(t)
        r, h_jac, f_jac = model.family.obs_cov, model.jac_h(s, u), model.jac_f(s, u)
        innov = np.atleast_1d(model.obs_path(t)) - model.h(s, u)
        if kind == "bucy":
            chol = np.linalg.cholesky(r)
            w = np.linalg.solve(chol, h_jac) @ mat
            m = np.linalg.solve(mat, f_jac @ mat)
            gen = m + m.T - w.T @ w + alpha * np.eye(n)
            ds = model.f(s, u) + mat @ w.T @ np.linalg.solve(chol, innov)
            dmat = mat @ (np.tril(gen, -1) + 0.5 * np.diag(np.diag(gen)))
        elif kind == "dense-bucy":
            gain = np.linalg.solve(r, h_jac @ mat).T  # P H^T R^-1
            ds = model.f(s, u) + gain @ innov
            dmat = f_jac @ mat + mat @ f_jac.T - gain @ h_jac @ mat + alpha * mat
        elif kind == "cngd":
            u_inv = np.linalg.inv(mat)
            m = mat @ f_jac @ u_inv
            v = np.linalg.solve(np.linalg.cholesky(r), h_jac) @ u_inv
            gen = -m - m.T - eta * np.eye(n) + eta * v.T @ v
            score = h_jac.T @ np.linalg.solve(r, innov)
            ds = model.f(s, u) + eta * u_inv @ (u_inv.T @ score)
            dmat = (np.triu(gen, 1) + 0.5 * np.diag(np.diag(gen))) @ mat
        else:
            fisher = h_jac.T @ np.linalg.solve(r, h_jac)
            ds = model.f(s, u) + eta * np.linalg.solve(mat, h_jac.T @ np.linalg.solve(r, innov))
            dmat = -f_jac.T @ mat - mat @ f_jac - eta * mat + eta * fisher
        return np.concatenate([ds, dmat.ravel(), [alpha * eta - eta * eta]])

    z = np.concatenate([np.asarray(init_state, dtype=float), np.ravel(init_matrix), [eta0]])
    rows = [z]
    for i in range(int(round(horizon / dt))):
        t = i * dt
        k1 = deriv(t, z)
        k2 = deriv(t + dt / 2, z + dt / 2 * k1)
        k3 = deriv(t + dt / 2, z + dt / 2 * k2)
        k4 = deriv(t + dt, z + dt * k3)
        z = z + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if kind.startswith("dense"):
            mat = z[n:-1].reshape(n, n)
            z[n:-1] = (0.5 * (mat + mat.T)).ravel()
        rows.append(z)
    rows = np.array(rows)
    return rows[:, :n], rows[:, n:-1].reshape(-1, n, n), rows[:, -1]


def euler_scenario(model, dt: float, horizon: float) -> Scenario:
    """The discrete scenario whose matched pair tends to the continuous pair
    of ``model`` as dt -> 0 (Jazwinski 1970): the Euler map
    f_dt(s, u) = s + dt f(s, u), with F_dt = I + dt F, observed at
    t_k = k dt as y_k = y(k dt) under gaussian(R / dt), for k = 1 .. T / dt.
    Run with alpha_d = alpha dt and eta_0^d = dt eta_0, its states tend to
    s(k dt), J_k / dt to J(k dt) and eta_k / dt to eta(k dt)."""
    steps = int(round(horizon / dt))
    eye = np.eye(model.dim_state)
    system = DynamicalModel(
        name=f"{model.name}-euler",
        dim_state=model.dim_state,
        dim_input=model.dim_input,
        dim_obs=model.dim_obs,
        f=lambda s, u: s + dt * model.f(s, u),
        h=model.h,
        jacobian_f=lambda s, u: eye + dt * model.jac_f(s, u),
        jacobian_h=model.jac_h,
        inputs=lambda k: model.input_fn(k * dt),
        init_state=model.init_state,
    )
    states = [np.asarray(model.init_state, dtype=float)]
    for k in range(1, steps + 1):
        states.append(system.f(states[-1], system.input_at(k)))
    return Scenario(
        model=system,
        family=expfam.gaussian(model.family.obs_cov / dt),
        true_states=np.array(states),
        observations=[np.atleast_1d(model.obs_path(k * dt)) for k in range(1, steps + 1)],
        seed=0,
    )


def _collapse_cell(name, n, f, f_jac, h_jac, init_state, horizon, seed):
    """Scenario and prior (s_0 = 0, P_0 = I) of a system s <- f(s) observed
    as H s under gaussian(0.25 I)."""
    system = DynamicalModel(
        name=name,
        dim_state=n,
        dim_input=0,
        dim_obs=h_jac.shape[0],
        f=lambda s, u: f(s),
        h=lambda s, u: h_jac @ s,
        jacobian_f=lambda s, u: f_jac(s),
        jacobian_h=lambda s, u: h_jac.copy(),
        inputs=lambda t: np.zeros(0),
        init_state=init_state,
    )
    family = expfam.gaussian(0.25 * np.eye(h_jac.shape[0]))
    return generate_scenario(system, family, horizon, seed), np.zeros(n), np.eye(n)


def hidden(q: int, c: float, a: float, horizon: int):
    """The 3-state system F = Q diag(c, 0.99 rot(a)) Q^T, observed as
    H = [[0, 1, 0], [0, 0, 1]] Q^T: the unobserved direction contracts at
    rate c, off the axes (Q from ``default_rng(q)``), so P_t collapses
    there under fading memory.  Scenario seed 0, true s_0 = (1, 1, -0.5);
    returns (scenario, s_0, P_0)."""
    basis = np.linalg.qr(np.random.default_rng(q).standard_normal((3, 3)))[0]
    block = np.zeros((3, 3))
    block[0, 0] = c
    block[1:, 1:] = 0.99 * np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    f_jac = basis @ block @ basis.T
    h_jac = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) @ basis.T
    return _collapse_cell(
        "hidden", 3, lambda s: f_jac @ s, lambda s: f_jac.copy(), h_jac,
        np.array([1.0, 1.0, -0.5]), horizon, 0,
    )


def tanh20(horizon: int):
    """f(s) = 0.98 Q s + 0.1 tanh(C s) with n = 20, observed as M s with
    k = 10; ``default_rng(5140)`` draws Q (by QR), M, C ~ N(0, 1/n) and
    the true s_0, in that order.  Scenario seed 0; returns (scenario, s_0,
    P_0)."""
    n = 20
    rng = np.random.default_rng(5140)
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    h_jac = rng.standard_normal((10, n)) / np.sqrt(n)
    coupling = rng.standard_normal((n, n)) / np.sqrt(n)
    init_state = rng.standard_normal(n)

    def f_jac(s):
        return 0.98 * basis + 0.1 * (1.0 - np.tanh(coupling @ s) ** 2)[:, None] * coupling

    return _collapse_cell(
        "tanh20", n, lambda s: 0.98 * basis @ s + 0.1 * np.tanh(coupling @ s), f_jac, h_jac,
        init_state, horizon, 0,
    )


def draw(seed: int, lo: float, horizon: int):
    """A small random stable system: with ``rng = default_rng(seed)``,
    n in 2..4, k in 1..n, F = Q diag(eig) Q^T with eig ~ U(lo, 1),
    f(s) = F s + b tanh(C s) with C ~ N(0, 1/n) and b in {0, 0.1}, and
    H ~ N(0, 1/n) of k rows; one (n, n) normal draw between eig and C is
    unused.  Scenario seed ``seed``; returns (scenario, s_0, P_0)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, n + 1))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = rng.uniform(lo, 1.0, n)
    rng.standard_normal((n, n))  # unused
    coupling = rng.standard_normal((n, n)) / np.sqrt(n)
    h_jac = rng.standard_normal((k, n)) / np.sqrt(n)
    gain = 0.1 * int(rng.integers(0, 2))
    init_state = rng.standard_normal(n)
    lin = basis @ np.diag(eig) @ basis.T

    def f_jac(s):
        return lin + gain * (1.0 - np.tanh(coupling @ s) ** 2)[:, None] * coupling

    return _collapse_cell(
        "draw", n, lambda s: lin @ s + gain * np.tanh(coupling @ s), f_jac, h_jac,
        init_state, horizon, seed,
    )


def ill_r_draw(seed: int, decades: float = 6.0):
    """``draw(seed, 0.9, 50)`` observed under an ill-conditioned R: where
    its k >= 2, R = 0.25 Q diag(logspace(0, -decades, k)) Q^T with Q from
    the QR of ``default_rng(1000 + seed).standard_normal((k, k))``, and the
    scenario regenerated with ``seed``.  Returns (scenario, s_0, P_0), or
    None where k = 1."""
    scenario, s0, p0 = draw(seed, 0.9, 50)
    k = scenario.model.dim_obs
    if k < 2:
        return None
    basis = np.linalg.qr(np.random.default_rng(1000 + seed).standard_normal((k, k)))[0]
    family = expfam.gaussian(0.25 * basis @ np.diag(np.logspace(0, -decades, k)) @ basis.T)
    return generate_scenario(scenario.model, family, scenario.horizon, seed), s0, p0


def hidden_ct(q: int, c: float):
    """The continuous twin of ``hidden``: ds/dt = A s with
    A = Q [[-c, 0, 0], [0, -0.05, -1], [0, 1, -0.05]] Q^T (Q from
    ``default_rng(q)`` as in ``hidden``), observed as H = [[0, 1, 0],
    [0, 0, 1]] Q^T under R = 0.25 I along y(t) = 0.5 (sin t, cos t).  The
    exact P contracts like exp((alpha - 2c) t) in the unobserved direction.
    Returns (model, s_0 = 0, P_0 = I)."""
    basis = np.linalg.qr(np.random.default_rng(q).standard_normal((3, 3)))[0]
    block = np.array([[-c, 0.0, 0.0], [0.0, -0.05, -1.0], [0.0, 1.0, -0.05]])
    f_jac = basis @ block @ basis.T
    h_jac = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]) @ basis.T
    model = ContinuousModel(
        name="hidden-ct",
        dim_state=3,
        dim_input=0,
        dim_obs=2,
        f=lambda s, u: f_jac @ s,
        h=lambda s, u: h_jac @ s,
        jacobian_f=lambda s, u: f_jac.copy(),
        jacobian_h=lambda s, u: h_jac.copy(),
        input_fn=lambda t: np.zeros(0),
        family=expfam.gaussian(0.25 * np.eye(2)),
        obs_path=lambda t: 0.5 * np.array([np.sin(t), np.cos(t)]),
        init_state=np.zeros(3),
    )
    return model, np.zeros(3), np.eye(3)


def bernoulli_draw(seed: int, lo: float, horizon: int):
    """A small random stable system with Bernoulli observations under the
    canonical link: with ``rng = default_rng(seed)``, n in 2..4,
    F = Q diag(eig) Q^T with eig ~ U(lo, 1), C ~ N(0, 1/n), the predictor
    weights c ~ N(0, 4/n), b in {0, 0.1} and the true s_0 ~ N(0, I), drawn
    in that order; f(s) = F s + b tanh(C s) and the predictor is c^T s.
    Scenario seed ``seed``; returns (scenario, s_0 = 0, P_0 = I)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eig = rng.uniform(lo, 1.0, n)
    coupling = rng.standard_normal((n, n)) / np.sqrt(n)
    weights = 2.0 * rng.standard_normal(n) / np.sqrt(n)
    gain = 0.1 * int(rng.integers(0, 2))
    init_state = rng.standard_normal(n)
    lin = basis @ np.diag(eig) @ basis.T

    def f_jac(s):
        return lin + gain * (1.0 - np.tanh(coupling @ s) ** 2)[:, None] * coupling

    def h_jac(s):
        p = expit(weights @ s)
        return (p * (1.0 - p)) * weights[None, :]

    system = DynamicalModel(
        name="bernoulli-draw",
        dim_state=n,
        dim_input=0,
        dim_obs=1,
        f=lambda s, u: lin @ s + gain * np.tanh(coupling @ s),
        h=lambda s, u: np.array([expit(weights @ s)]),
        jacobian_f=lambda s, u: f_jac(s),
        jacobian_h=lambda s, u: h_jac(s),
        inputs=lambda t: np.zeros(0),
        init_state=init_state,
        link_family=expfam.BERNOULLI,
        predictor=lambda s, u: np.array([weights @ s]),
        jacobian_predictor=lambda s, u: weights[None, :].copy(),
    )
    scenario = generate_scenario(system, expfam.bernoulli(), horizon, seed)
    return scenario, np.zeros(n), np.eye(n)


def softmax_track(seed: int):
    """A 4-state system observed through 3 classes under the canonical
    link: with ``rng = default_rng(seed)``, f(s) = 0.99 Q s for the Q of
    the QR of a normal draw, the logits x = W s for W ~ N(0, 4/n) of 2
    rows, and the true s_0 ~ N(0, I), drawn in that order.  T = 50 and
    scenario seed ``seed``; returns (scenario, s_0 = 0, P_0 = I).  With
    its predictor set to None the model reads the same observations
    through the mean parameter."""
    n = 4
    family = expfam.categorical(3)
    rng = np.random.default_rng(seed)
    lin = 0.99 * np.linalg.qr(rng.standard_normal((n, n)))[0]
    weights = 2.0 * rng.standard_normal((2, n)) / np.sqrt(n)
    init_state = rng.standard_normal(n)
    system = DynamicalModel(
        name="softmax-track",
        dim_state=n,
        dim_input=0,
        dim_obs=2,
        f=lambda s, u: lin @ s,
        h=lambda s, u: expfam.canonical_mean(family, weights @ s),
        jacobian_f=lambda s, u: lin.copy(),
        jacobian_h=lambda s, u: expfam.canonical_variance(family, weights @ s) @ weights,
        inputs=lambda t: np.zeros(0),
        init_state=init_state,
        link_family=expfam.CATEGORICAL,
        predictor=lambda s, u: weights @ s,
        jacobian_predictor=lambda s, u: weights.copy(),
    )
    scenario = generate_scenario(system, family, 50, seed)
    return scenario, np.zeros(n), np.eye(n)
