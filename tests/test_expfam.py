import dataclasses

import numpy as np
import pytest

from kalgrad import expfam, natgrad
from kalgrad.errors import DomainError, OutOfSupportError
from kalgrad.model import mean_linearisation
from kalgrad.numerics import fd_jacobian

from conftest import random_spd
from oracles import cov_root, cov_suffstats, log_density, natural_jacobian, suffstats_batch

FAMILIES = ["gaussian", "bernoulli", "categorical"]


def make_family(kind, rng=None):
    if kind == "gaussian":
        rng = rng or np.random.default_rng(0)
        return expfam.gaussian(random_spd(rng, 2, scale=0.5))
    if kind == "bernoulli":
        return expfam.bernoulli()
    return expfam.categorical(3)


def random_interior_mean(family, rng):
    if family.kind == "gaussian":
        return rng.standard_normal(family.mean_dim)
    if family.kind == "bernoulli":
        return np.array([rng.uniform(0.05, 0.95)])
    probs = rng.uniform(0.1, 1.0, family.num_classes)
    probs /= probs.sum()
    return probs[:-1]


def random_observation(family, rng):
    if family.kind == "gaussian":
        return rng.standard_normal(family.mean_dim)
    if family.kind == "bernoulli":
        return int(rng.integers(2))
    return int(rng.integers(family.num_classes))


class TestSufficientStats:
    def test_gaussian_passthrough(self):
        fam = expfam.gaussian(np.eye(2))
        np.testing.assert_array_equal(
            expfam.sufficient_stats(fam, np.array([1.5, -2.0])), [1.5, -2.0]
        )

    def test_categorical_reference_class(self):
        fam = expfam.categorical(3)
        np.testing.assert_array_equal(expfam.sufficient_stats(fam, 2), [0.0, 0.0])
        np.testing.assert_array_equal(expfam.sufficient_stats(fam, 0), [1.0, 0.0])

    def test_bernoulli(self):
        fam = expfam.bernoulli()
        np.testing.assert_array_equal(expfam.sufficient_stats(fam, 1), [1.0])
        np.testing.assert_array_equal(expfam.sufficient_stats(fam, 0), [0.0])

    def test_out_of_support(self):
        with pytest.raises(OutOfSupportError):
            expfam.sufficient_stats(expfam.categorical(3), 3)
        with pytest.raises(OutOfSupportError):
            expfam.sufficient_stats(expfam.bernoulli(), 2)
        with pytest.raises(OutOfSupportError):
            expfam.sufficient_stats(expfam.bernoulli(), 0.5)

    @pytest.mark.parametrize(
        "family", [expfam.bernoulli(), expfam.categorical(3)], ids=["bernoulli", "categorical"]
    )
    @pytest.mark.parametrize("label", [np.nan, np.inf, -np.inf])
    def test_non_finite_label_out_of_support(self, family, label):
        with pytest.raises(OutOfSupportError):
            expfam.sufficient_stats(family, label)


class TestCovSuffstats:
    def test_gaussian_fixed(self):
        fam = expfam.gaussian(np.diag([0.1, 0.1]))
        np.testing.assert_array_equal(
            cov_suffstats(fam, np.zeros(2)), np.diag([0.1, 0.1])
        )

    def test_bernoulli_symmetric_point(self):
        np.testing.assert_allclose(
            cov_suffstats(expfam.bernoulli(), [0.5]), [[0.25]]
        )

    def test_categorical_formula(self):
        cov = cov_suffstats(expfam.categorical(3), [0.2, 0.3])
        np.testing.assert_allclose(cov, [[0.16, -0.06], [-0.06, 0.21]], atol=1e-15)

    def test_categorical_monte_carlo(self):
        # Oracle: empirical covariance of one-hot samples.
        fam = expfam.categorical(3)
        yhat = np.array([0.2, 0.3])
        rng = np.random.default_rng(2024)
        n = 1_000_000
        draws = expfam.sample(fam, yhat, rng, size=n)
        stats = suffstats_batch(fam, draws)
        emp = np.cov(stats.T, ddof=1)
        exact = cov_suffstats(fam, yhat)
        centered = stats - stats.mean(axis=0)
        prods = centered[:, :, None] * centered[:, None, :]
        se = prods.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp - exact) <= 3.0 * se)

    @pytest.mark.parametrize("kind, yhat", [("bernoulli", [np.nan]), ("categorical", [np.nan, 0.2])])
    def test_non_finite_mean_raises(self, kind, yhat):
        with pytest.raises(DomainError, match="finite"):
            cov_suffstats(make_family(kind), yhat)

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            cov_suffstats(expfam.bernoulli(), [0.0])
        with pytest.raises(DomainError):
            cov_suffstats(expfam.bernoulli(), [1.0])
        with pytest.raises(DomainError):
            cov_suffstats(expfam.categorical(3), [0.6, 0.4])


class TestLogDensity:
    def test_gaussian_mode_at_mean(self):
        fam = expfam.gaussian(np.array([[1.0]]))
        at_mean = log_density(fam, [0.7], [0.7])
        for other in (0.1, 0.5, 1.2):
            assert at_mean > log_density(fam, [0.7], [other])

    def test_bernoulli_symmetry(self):
        fam = expfam.bernoulli()
        assert log_density(fam, 0, [0.5]) == log_density(fam, 1, [0.5])

    def test_gaussian_difference(self):
        # Oracle: closed-form Gaussian log-density difference.
        fam = expfam.gaussian(np.array([[1.0]]))
        diff = log_density(fam, [0.0], [1.0]) - log_density(fam, [0.0], [0.0])
        assert abs(diff - (-0.5)) < 1e-12


def fd_grad_wrt_mean(family, y, yhat, h=1e-6):
    grad = np.zeros(family.mean_dim)
    for j in range(family.mean_dim):
        e = np.zeros(family.mean_dim)
        e[j] = h
        grad[j] = (
            log_density(family, y, yhat + e)
            - log_density(family, y, yhat - e)
        ) / (2 * h)
    return grad


def _mean_linearisation(family, yhat, stats):
    """Linearisation of statistics ``stats`` of an observation whose mean
    is the state (H = I)."""
    yhat = np.asarray(yhat, dtype=float)
    return mean_linearisation(family, yhat, np.eye(family.mean_dim), stats)


def score_wrt_mean(family, y, yhat):
    """Row gradient of log p(y | yhat) in the mean parameter, read from the
    linearisation."""
    lin = _mean_linearisation(family, yhat, expfam.sufficient_stats(family, y))
    return lin.residual @ lin.jac


def fisher_wrt_mean(family, yhat):
    """Exact Fisher information in the mean parameter, W^T W for the Fisher
    rows the linearisation gives."""
    rows = natgrad.fisher_rows(_mean_linearisation(family, yhat, yhat))
    return rows.T @ rows


class TestGradLogp:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_zero_at_mean_stats(self, kind, rng):
        family = make_family(kind, rng)
        yhat = random_interior_mean(family, rng)
        if family.kind == "gaussian":
            y = yhat.copy()
            grad = score_wrt_mean(family, y, yhat)
            np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_gaussian_forced(self):
        fam = expfam.gaussian(np.array([[2.0]]))
        np.testing.assert_allclose(
            score_wrt_mean(fam, [3.0], [1.0]), [1.0]
        )

    def test_bernoulli_matches_fd(self):
        fam = expfam.bernoulli()
        grad = score_wrt_mean(fam, 1, [0.25])
        fd = fd_grad_wrt_mean(fam, 1, np.array([0.25]))
        np.testing.assert_allclose(grad, fd, rtol=1e-6)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_matches_fd_100_random_pairs(self, kind, rng):
        family = make_family(kind, rng)
        for _ in range(100):
            yhat = random_interior_mean(family, rng)
            y = random_observation(family, rng)
            grad = score_wrt_mean(family, y, yhat)
            fd = fd_grad_wrt_mean(family, y, yhat)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            score_wrt_mean(expfam.bernoulli(), 1, [1.0])


class TestFisherWrtMean:
    def test_gaussian_inverse_cov(self, rng):
        r = random_spd(rng, 3)
        fam = expfam.gaussian(r)
        fisher = fisher_wrt_mean(fam, np.zeros(3))
        np.testing.assert_allclose(fisher @ r, np.eye(3), atol=1e-12)

    def test_bernoulli_half(self):
        np.testing.assert_allclose(
            fisher_wrt_mean(expfam.bernoulli(), [0.5]), [[4.0]]
        )

    def test_categorical_product_check(self):
        fam = expfam.categorical(3)
        yhat = np.array([0.2, 0.3])
        fisher = fisher_wrt_mean(fam, yhat)
        cov = cov_suffstats(fam, yhat)
        np.testing.assert_allclose(fisher @ cov, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_fisher_times_cov_is_identity(self, kind, rng):
        family = make_family(kind, rng)
        for _ in range(20):
            yhat = random_interior_mean(family, rng)
            prod = fisher_wrt_mean(family, yhat) @ cov_suffstats(family, yhat)
            np.testing.assert_allclose(prod, np.eye(family.mean_dim), atol=1e-10)


class TestSample:
    def test_gaussian_law_of_large_numbers(self):
        fam = expfam.gaussian(np.array([[0.49]]))
        rng = np.random.default_rng(7)
        n = 100_000
        draws = expfam.sample(fam, [1.3], rng, size=n)
        assert abs(draws.mean() - 1.3) < 4.0 * np.sqrt(0.49 / n)

    def test_bernoulli_near_degenerate(self):
        fam = expfam.bernoulli()
        rng = np.random.default_rng(8)
        draws = expfam.sample(fam, [1.0 - 1e-9], rng, size=10_000)
        assert draws.mean() >= 0.999

    def test_categorical_frequencies(self):
        fam = expfam.categorical(3)
        rng = np.random.default_rng(9)
        draws = expfam.sample(fam, [1 / 3, 1 / 3], rng, size=10_000)
        for k in range(3):
            assert abs((draws == k).mean() - 1 / 3) < 0.02

    def test_boundary_means_draw_the_sure_outcome(self, rng):
        assert np.all(expfam.sample(expfam.bernoulli(), [1.0], rng, size=50) == 1)
        assert np.all(expfam.sample(expfam.bernoulli(), [0.0], rng, size=50) == 0)
        cat = expfam.categorical(3)
        assert np.all(expfam.sample(cat, [0.0, 1.0], rng, size=50) == 1)
        assert np.all(expfam.sample(cat, [0.0, 0.0], rng, size=50) == 2)

    def test_sum_rounded_above_one_never_draws_the_dropped_class(self, rng):
        # Rounding leaves softmax means of saturated logits a few ulps
        # above a sum of 1; the dropped class then has probability 0.
        yhat = [0.5, np.nextafter(np.nextafter(0.5, 1.0), 1.0)]
        assert sum(yhat) > 1.0
        assert np.all(expfam.sample(expfam.categorical(3), yhat, rng, size=200) < 2)

    @pytest.mark.parametrize(
        "kind, yhat",
        [("bernoulli", [1.5]), ("bernoulli", [-0.1]), ("bernoulli", [np.nan]),
         ("categorical", [0.6, 0.5]), ("categorical", [-0.1, 0.5])],
    )
    def test_outside_closed_domain_rejected(self, kind, yhat, rng):
        with pytest.raises(DomainError):
            expfam.sample(make_family(kind), yhat, rng)

    def test_single_draw_types(self, rng):
        assert isinstance(expfam.sample(expfam.bernoulli(), [0.4], rng), int)
        assert isinstance(expfam.sample(expfam.categorical(4), [0.2, 0.2, 0.2], rng), int)
        draw = expfam.sample(expfam.gaussian(np.eye(2)), np.zeros(2), rng)
        assert draw.shape == (2,)


class TestScoreIdentities:
    @pytest.mark.parametrize("kind", FAMILIES)
    def test_score_mean_is_zero(self, kind):
        # E[score] = 0 under the model; Monte Carlo within 4 standard errors.
        rng = np.random.default_rng(31)
        family = make_family(kind)
        yhat = random_interior_mean(family, rng)
        n = 100_000
        draws = expfam.sample(family, yhat, rng, size=n)
        stats = suffstats_batch(family, draws)
        prec = fisher_wrt_mean(family, yhat)
        scores = (stats - yhat) @ prec
        se = scores.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(scores.mean(axis=0)) <= 4.0 * se)

    @pytest.mark.parametrize("kind", FAMILIES)
    def test_score_outer_product_matches_fisher(self, kind):
        # The two Fisher definitions (expected score outer product vs.
        # inverse covariance of T) agree; Monte Carlo within 3 SE.
        rng = np.random.default_rng(33)
        family = make_family(kind)
        yhat = random_interior_mean(family, rng)
        n = 100_000
        draws = expfam.sample(family, yhat, rng, size=n)
        stats = suffstats_batch(family, draws)
        prec = fisher_wrt_mean(family, yhat)
        scores = (stats - yhat) @ prec
        outers = scores[:, :, None] * scores[:, None, :]
        emp = outers.mean(axis=0)
        se = outers.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(emp - prec) <= 3.0 * se + 1e-12)


class TestCanonical:
    @pytest.mark.parametrize("kind", ["bernoulli", "categorical"])
    def test_variance_is_cov_suffstats_at_the_mean(self, kind, rng):
        family = make_family(kind)
        for _ in range(20):
            x = 2.0 * rng.standard_normal(family.mean_dim)
            yhat = expfam.canonical_mean(family, x)
            np.testing.assert_allclose(
                expfam.canonical_variance(family, x),
                cov_suffstats(family, yhat),
                rtol=1e-12, atol=1e-15,
            )

    @pytest.mark.parametrize("kind", ["bernoulli", "categorical"])
    def test_variance_is_jacobian_of_the_mean(self, kind, rng):
        family = make_family(kind)
        x = rng.standard_normal(family.mean_dim)
        fd = fd_jacobian(lambda v: expfam.canonical_mean(family, v), x)
        np.testing.assert_allclose(expfam.canonical_variance(family, x), fd, atol=1e-9)

    @pytest.mark.parametrize("kind", ["bernoulli", "categorical"])
    def test_residual_is_suffstats_minus_mean(self, kind, rng):
        family = make_family(kind)
        for _ in range(20):
            x = rng.standard_normal(family.mean_dim)
            y = random_observation(family, rng)
            stats = expfam.sufficient_stats(family, y)
            np.testing.assert_allclose(
                expfam.canonical_parts(family, x, stats)[0],
                stats - expfam.canonical_mean(family, x),
                rtol=1e-12, atol=1e-15,
            )

    def test_means(self):
        np.testing.assert_allclose(expfam.canonical_mean(expfam.bernoulli(), [0.0]), [0.5])
        z = np.exp([1.0, -2.0, 0.0])
        np.testing.assert_allclose(
            expfam.canonical_mean(expfam.categorical(3), [1.0, -2.0]), z[:2] / z.sum()
        )

    def test_bernoulli_saturation_keeps_complement(self):
        # expit(40) rounds to 1.0, where cov_suffstats is undefined; the
        # complement 1 - p = expit(-40) stays exact.
        fam = expfam.bernoulli()
        x = [40.0]
        assert expfam.canonical_mean(fam, x)[0] == 1.0
        with pytest.raises(DomainError):
            cov_suffstats(fam, expfam.canonical_mean(fam, x))
        q = np.exp(-40.0) / (1.0 + np.exp(-40.0))
        np.testing.assert_allclose(expfam.canonical_variance(fam, x), [[q]], rtol=1e-14)
        np.testing.assert_allclose(expfam.canonical_parts(fam, x, [1.0])[0], [q], rtol=1e-14)
        np.testing.assert_array_equal(expfam.canonical_parts(fam, x, [0.0])[0], [-1.0])
        np.testing.assert_allclose(expfam.canonical_parts(fam, [-40.0], [1.0])[0], [1.0])

    def test_bernoulli_variance_underflows_to_zero(self):
        fam = expfam.bernoulli()
        for x in ([800.0], [-800.0]):
            v = expfam.canonical_variance(fam, x)
            assert v[0, 0] == 0.0
            assert np.all(np.isfinite(expfam.canonical_parts(fam, x, [1.0])[0]))

    def test_categorical_saturation_keeps_complement(self):
        fam = expfam.categorical(3)
        x = [40.0, 0.0]  # class 0 takes all but 2 e^-40 of the mass
        p = expfam.canonical_mean(fam, x)
        assert p[0] == 1.0
        rest = 2.0 * np.exp(-40.0) / (1.0 + 2.0 * np.exp(-40.0))
        np.testing.assert_allclose(expfam.canonical_variance(fam, x)[0, 0], rest, rtol=1e-14)
        np.testing.assert_allclose(
            expfam.canonical_parts(fam, x, expfam.sufficient_stats(fam, 0))[0],
            [rest, -p[1]],
            rtol=1e-14,
        )

    def test_gaussian_has_no_natural_parameter_here(self):
        with pytest.raises(ValueError):
            expfam.canonical_variance(expfam.gaussian(np.eye(1)), [0.0])

    def test_non_finite_raises(self):
        with pytest.raises(DomainError):
            expfam.canonical_mean(expfam.bernoulli(), [np.inf])
        with pytest.raises(ValueError):
            expfam.canonical_mean(expfam.categorical(3), [0.0])


class TestConstructors:
    def test_gaussian_requires_spd(self):
        with pytest.raises(ValueError):
            expfam.gaussian(np.array([[0.0]]))

    # The family is checked however it is built: by its constructor, or
    # directly, where a negative R once passed until its first solve.
    @pytest.mark.parametrize(
        "build",
        [expfam.gaussian, lambda r: expfam.ObservationFamily(kind="gaussian", obs_cov=r)],
        ids=["gaussian", "direct"],
    )
    def test_negative_covariance_is_refused_when_built(self, build):
        with pytest.raises(ValueError, match="^gaussian observation covariance must be positive definite$"):
            build(np.array([[-2.0]]))

    def test_factor_is_the_cholesky_factor_and_cannot_be_set(self):
        r = np.array([[2.0, 0.3], [0.3, 1.0]])
        family = expfam.gaussian(r)
        np.testing.assert_array_equal(family.obs_factor, np.linalg.cholesky(r))
        with pytest.raises(TypeError):
            expfam.ObservationFamily(kind="gaussian", obs_cov=r, obs_factor=np.eye(2))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(family, obs_factor=np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.obs_factor = np.eye(2)
        assert dataclasses.replace(family, obs_cov=4.0 * r).obs_factor.tobytes() == (
            (2.0 * family.obs_factor).tobytes()
        )

    @pytest.mark.parametrize(
        "cov",
        [[[np.nan]], [[np.inf]], [[1.0, np.inf], [-np.inf, 1.0]], [[1.0, 0.0], [np.nan, 1.0]]],
    )
    def test_gaussian_rejects_non_finite_covariance(self, cov):
        with pytest.raises(ValueError, match="non-finite"):
            expfam.gaussian(np.array(cov))

    def test_categorical_requires_two_classes(self):
        with pytest.raises(ValueError):
            expfam.categorical(1)

    def test_mean_dims(self):
        assert expfam.gaussian(np.eye(3)).mean_dim == 3
        assert expfam.bernoulli().mean_dim == 1
        assert expfam.categorical(5).mean_dim == 4


class TestWhitenedObservation:
    """Every observation off a canonical link is read whitened by S^-T for
    the square root S of cov(T) at its mean: B = S^-T H, C = S = I and
    e = (T - h) S^-1, which give the unwhitened score and Fisher of the
    reference cov(T)^-1 H with no solve with cov(T)."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_whitened_linearisation_matches_the_reference(self, rng, dim):
        family = expfam.gaussian(random_spd(rng, dim, scale=0.5))
        self._check_against_the_reference(family, rng)

    @pytest.mark.parametrize(
        "kind, size", [("bernoulli", 2), ("categorical", 3), ("categorical", 4)]
    )
    def test_whitened_linearisation_off_gaussian_matches_the_reference(self, rng, kind, size):
        family = expfam.bernoulli() if kind == "bernoulli" else expfam.categorical(size)
        self._check_against_the_reference(family, rng)

    @staticmethod
    def _check_against_the_reference(family, rng):
        dim = family.mean_dim
        for _ in range(5):
            mean = random_interior_mean(family, rng)
            stats = expfam.sufficient_stats(family, random_observation(family, rng))
            h = rng.standard_normal((dim, 3))
            lin = mean_linearisation(family, mean, h, stats)
            whitener = expfam.whitener(family, mean)
            if family.kind == "gaussian":
                assert whitener is family.obs_whitener
            np.testing.assert_allclose(whitener.T @ cov_root(family, mean), np.eye(dim), atol=1e-13)
            assert lin.jac.tobytes() == (whitener @ h).tobytes()
            for eye in (lin.cov(), lin.root()):
                np.testing.assert_array_equal(eye, np.eye(dim))
                assert not eye.flags.writeable
            jac = natural_jacobian(family, mean, h)[1]
            np.testing.assert_allclose(lin.jac.T @ lin.jac, h.T @ jac, rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                lin.residual @ lin.jac, (stats - mean) @ jac, rtol=1e-13, atol=0
            )

    # A categorical mean whose dropped class p_K = 1 - sum(p) is small:
    # cov(T) has condition about 1/p_K, and a residual-capped Cholesky
    # solve with it refuses each of these (residuals 3.1e-4, 9.8e-2 and
    # 3.2e-4 on this test's H).  The closed-form S^-T reads them, with a Fisher that is
    # H^T cov(T)^-1 H to rounding.  The score carries the problem's own
    # 1/p_K sensitivity to p_K, so only its finiteness is pinned.
    @pytest.mark.parametrize("mean", [(0.5, 0.5 - 1e-13), (0.3, 0.7 - 1e-16), (0.98, 0.01, 0.01 - 1e-14)])
    def test_a_small_dropped_class_is_read(self, rng, mean):
        mean = np.array(mean)
        family = expfam.categorical(mean.size + 1)
        h = rng.standard_normal((mean.size, 3))
        rows = natgrad.fisher_rows(mean_linearisation(family, mean, h, mean))
        exact = h.T @ (np.diag(1.0 / mean) + 1.0 / (1.0 - mean.sum())) @ h
        assert np.linalg.norm(rows.T @ rows - exact) <= 1e-12 * np.linalg.norm(exact)
        for label in range(family.num_classes):
            lin = mean_linearisation(family, mean, h, expfam.sufficient_stats(family, label))
            score = lin.residual @ lin.jac
            assert np.isfinite(score).all()

    def test_whitened_linearisation_checks_the_mean(self):
        family, h = expfam.gaussian(np.eye(2)), np.eye(2)
        with pytest.raises(DomainError, match="^gaussian mean must be finite$"):
            mean_linearisation(family, np.array([np.nan, 0.0]), h, np.zeros(2))
        with pytest.raises(ValueError, match=r"^mean parameter must have shape \(2,\), got \(3,\)$"):
            mean_linearisation(family, np.zeros(3), h, np.zeros(2))

    def test_whitener_is_the_read_only_inverse_factor_and_cannot_be_set(self):
        r = np.array([[2.0, 0.3], [0.3, 1.0]])
        family = expfam.gaussian(r)
        np.testing.assert_allclose(family.obs_whitener @ family.obs_factor, np.eye(2), atol=1e-15)
        assert family.obs_whitener[0, 1] == 0.0
        assert not family.obs_whitener.flags.writeable
        with pytest.raises(TypeError):
            expfam.ObservationFamily(kind="gaussian", obs_cov=r, obs_whitener=np.eye(2))
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(family, obs_whitener=np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            family.obs_whitener = np.eye(2)
