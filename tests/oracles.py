"""Reference implementations the tests compare the library against:
log-likelihoods that the tests differentiate numerically, as oracles for
the scores the library reads from its linearisations, a Monte Carlo
Fisher estimate, as the oracle for the exact Fisher the library blends in,
scipy's Cholesky solve with one refinement pass, as the oracle for the SPD
solve, the information form of the EKF observation update, as the
oracle for the gain form, the chartless online natural gradient that
chart-based runs on static dynamics must reproduce, the textbook
continuous fields under a plain RK4 loop, for the continuous pair, and the
Euler discretisation that links the continuous pair to the discrete one."""

import numpy as np
import scipy.linalg

from kalgrad import expfam
from kalgrad.model import (
    DynamicalModel, Linearisation, Scenario, Trace, linearise, mean_linearisation,
)
from kalgrad.natgrad import fisher_term
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
    lin: Linearisation,
    family: expfam.ObservationFamily,
    mean,
    rng: np.random.Generator,
    n: int,
) -> np.ndarray:
    """Monte Carlo Fisher: the average outer product of the state scores of
    ``n`` draws at ``mean``, the predicted mean ``lin`` was taken at."""
    draws = expfam.sample(family, mean, rng, size=n)
    scores = lin.residual(suffstats_batch(family, draws)) @ lin.jac  # one row per draw
    return symmetrize(scores.T @ scores / n)


def observe_information(mean, cov, stats, model, family, u, t):
    """Inverse-covariance EKF update of the predicted (mean, cov), with the
    arguments of :func:`kalgrad.ekf.observe_gain`: P^-1 = P_pred^-1 +
    B^T C B, s += P B^T e; returns the posterior."""
    lin = linearise(model, family, mean, u, t)
    dim = cov.shape[0]
    prec_pred = solve_psd(cov, np.eye(dim))
    prec = symmetrize(prec_pred + lin.jac.T @ lin.cov @ lin.jac)
    cov_post = symmetrize(solve_psd(prec, np.eye(dim)))
    score = lin.residual(stats) @ lin.jac
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
) -> Trace:
    """Chartless online natural gradient for a static parameter.

    ``h(theta, u)`` maps the parameter and input to the observation mean;
    ``eta`` and ``gamma`` are schedules as :func:`kalgrad.natgrad.run`
    takes them; ``jacobian_h`` defaults to central differences.  This is the f = Id
    reduction of :func:`kalgrad.natgrad.run` and serves as its reference
    implementation; it returns the same trace layout.
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
        lin = mean_linearisation(family, np.asarray(h(theta, u), dtype=float), h_jac)
        metric = symmetrize((1.0 - gamma_t) * metric + gamma_t * fisher_term(lin))
        score = lin.residual(expfam.sufficient_stats(family, y)) @ lin.jac
        theta = theta + eta_t * solve_psd(metric, score)
        states[t], metrics[t] = theta, metric
    return Trace(states, metrics=metrics)


def continuous_rk4(kind: str, model, init_state, init_matrix, dt: float, horizon: float,
                   alpha: float, eta0: float = 0.0):
    """Kalman-Bucy (``kind`` "bucy", matrix P) or the natural-gradient flow
    ("cngd", matrix J and learning rate eta), written as in the textbook with
    np.linalg.solve and integrated by plain RK4 on the grid t = i dt, with
    the matrix symmetrized after each step; returns (states, matrices, etas)."""
    n = model.dim_state

    def deriv(t, z):
        s, mat, eta = z[:n], z[n:-1].reshape(n, n), z[-1]
        u = model.input_at(t)
        r, h_jac, f_jac = model.family.obs_cov, model.jac_h(s, u), model.jac_f(s, u)
        innov = np.atleast_1d(model.obs_path(t)) - model.h(s, u)
        if kind == "bucy":
            gain = np.linalg.solve(r, h_jac @ mat).T  # P H^T R^-1
            ds = model.f(s, u) + gain @ innov
            dmat = f_jac @ mat + mat @ f_jac.T - gain @ h_jac @ mat + alpha * mat
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
