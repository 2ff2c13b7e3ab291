import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from kalgrad import ekf, expfam, natgrad, numerics
from kalgrad.equivalence import map_alpha_to_eta
from kalgrad.errors import NonFiniteError, SingularMatrixError
from kalgrad.model import builtin, generate_scenario
from kalgrad.numerics import _finite, fd_jacobian, rk4_step, solve_psd, symmetrize

from conftest import random_spd
from oracles import cho_solve_refined


class TestSolvePsd:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_allclose(solve_psd(np.eye(3), b), b)

    def test_diagonal(self):
        x = solve_psd(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(x, [1.0, 1.0])

    def test_recovers_known_solution(self, rng):
        # Oracle: build B from a known X0, so the exact answer is X0.
        a = random_spd(rng, 5)
        x0 = rng.standard_normal((5, 3))
        x = solve_psd(a, a @ x0)
        np.testing.assert_allclose(x, x0, rtol=0, atol=1e-10 * np.abs(x0).max())

    @pytest.mark.parametrize("dim", range(1, 11))
    def test_relative_residual_up_to_dim_10(self, dim, rng):
        for _ in range(5):
            a = random_spd(rng, dim)
            b = rng.standard_normal(dim)
            x = solve_psd(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_matrix_rhs_small_dims(self, rng):
        for dim in (1, 2):
            a = random_spd(rng, dim)
            x0 = rng.standard_normal((dim, 4))
            x = solve_psd(a, a @ x0)
            np.testing.assert_allclose(x, x0, atol=1e-11 * np.abs(x0).max())

    @pytest.fixture
    def factorizations(self, monkeypatch):
        """The calls that solve_psd makes to dpotrf."""
        calls = []

        def counting_dpotrf(*args, **kwargs):
            calls.append(args)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(numerics, "dpotrf", counting_dpotrf)
        return calls

    # A matrix that does not factor is refused after its one factorization,
    # never shifted until it factors: a positive semidefinite one with an
    # exact zero pivot too.
    def test_semidefinite_is_refused(self, factorizations):
        with pytest.raises(SingularMatrixError, match="^matrix is not positive definite$"):
            solve_psd(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
        assert len(factorizations) == 1

    # A rank-one matrix of ones has an exact zero second pivot, so its
    # factorization fails, although A x = b has solutions.
    @pytest.mark.parametrize("dim", [2, 8])
    def test_rank_one_is_refused(self, dim, factorizations):
        a = np.ones((dim, dim))
        with pytest.raises(SingularMatrixError, match="^matrix is not positive definite$"):
            solve_psd(a, np.ones(dim))
        assert len(factorizations) == 1

    # Nothing is added to a non-positive 1x1 matrix to make it positive.
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_jitter_cannot_rescue_1x1(self, value):
        with pytest.raises(SingularMatrixError, match="^matrix is not positive definite$"):
            solve_psd(np.array([[value]]), np.ones(1))

    @pytest.mark.parametrize("a", [[[0.0]], [[-1.0]], [[1.0, 0.0], [0.0, -2.0]]])
    def test_non_positive_trace_is_factored_once(self, a, factorizations):
        with pytest.raises(SingularMatrixError, match="^matrix is not positive definite$"):
            solve_psd(np.array(a), np.ones(len(a)))
        assert len(factorizations) == 1

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_empty_rhs(self, dim, rng):
        x = solve_psd(random_spd(rng, dim), np.zeros((dim, 0)))
        assert x.shape == (dim, 0)

    @pytest.mark.parametrize("dim", range(1, 9))
    @pytest.mark.parametrize("cols", [None, 3])
    def test_matches_scipy_cholesky_oracle_bit_for_bit(self, dim, cols, rng):
        for _ in range(5):
            a = random_spd(rng, dim)
            b = rng.standard_normal(dim if cols is None else (dim, cols))
            np.testing.assert_array_equal(solve_psd(a, b), cho_solve_refined(a, b))

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((0, 0), (0,)), ((2, 3), (2,)), ((3,), (3,)), ((2, 2, 2), (2,)),
         ((3, 3), (2,)), ((3, 3), (4, 2)), ((3, 3), ()), ((3, 3), (3, 1, 1)),
         ((3, 2, 2), (2, 2))],
    )
    def test_shape_errors_name_the_shapes(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=r"shape \(") as info:
            solve_psd(np.ones(a_shape), np.ones(b_shape))
        assert str(a_shape) in str(info.value)

    def test_indefinite_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_psd(np.diag([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_indefinite_raises_3x3(self):
        with pytest.raises(SingularMatrixError):
            solve_psd(np.diag([1.0, 1.0, -0.5]), np.eye(3))

    # Scaling b by an exact power of two past sqrt(float max) scales every
    # step of the solve exactly; only a residual norm that squares raw
    # entries would overflow.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_huge_rhs_scales_exactly(self, dim, rng):
        a = random_spd(rng, dim)
        b = rng.standard_normal(dim)
        np.testing.assert_array_equal(solve_psd(a, 2.0**660 * b), 2.0**660 * solve_psd(a, b))

    # A 1x1 solve with finite entries always meets the residual bound, so
    # the failing inputs start at n = 2.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "a",
        [
            np.array([[3.0, 1.0], [1.0, 1.0 / 3.0 + 1e-14]]),
            np.array([[1.0, 1.0, 1.0], [1.0, 1.0 + 1e-14, 1.0], [1.0, 1.0, 1.0 + 2e-14]]),
        ],
    )
    def test_huge_rhs_keeps_finite_residual_failure(self, a):
        b = np.array([1.0, -1.0, 0.5])[: a.shape[0]]
        messages = []
        for scale in (1.0, 2.0**660):
            with pytest.raises(SingularMatrixError, match="residual") as info:
                solve_psd(a, scale * b)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert "nan" not in messages[1] and "inf" not in messages[1]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("entry", [0, -1])
    def test_non_finite_matrix_raises_non_finite_error(self, dim, bad, entry):
        a = 2.0 * np.eye(dim)
        a[entry, entry] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="matrix"):
                solve_psd(a, np.ones(dim))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_rhs_raises_non_finite_error(self, dim, bad):
        b = np.ones(dim)
        b[0] = bad
        with pytest.raises(NonFiniteError, match="right-hand side"):
            solve_psd(2.0 * np.eye(dim), b)

    # The factorization reads only the lower triangle, and an inf pivot can
    # pass it; either way the non-finite entry must be named, without a
    # numpy warning on the way.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("cols", [None, 2])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_every_non_finite_entry_is_named(self, dim, cols, bad, rng):
        a0 = random_spd(rng, dim)
        b0 = rng.standard_normal(dim if cols is None else (dim, cols))
        for index in np.ndindex(a0.shape):
            a = a0.copy()
            a[index] = bad
            with pytest.raises(NonFiniteError, match="matrix"):
                solve_psd(a, b0)
        for index in np.ndindex(b0.shape):
            b = b0.copy()
            b[index] = bad
            with pytest.raises(NonFiniteError, match="right-hand side"):
                solve_psd(a0, b)


    # dpotrf returns info = 0 with a nan factor for diag(nan, 1) and an inf
    # factor for diag(inf, 1); the factor half refuses both before it
    # calls dpotrf, so no caller needs a check of its own.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_factor_half_refuses_a_non_finite_matrix_before_dpotrf(self, bad, monkeypatch):
        calls = []
        monkeypatch.setattr(numerics, "dpotrf", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(NonFiniteError, match="^SPD solve matrix has non-finite entries$"):
            numerics._factor_psd(np.diag([bad, 1.0]))
        assert calls == []

    # B's shape is checked before A is factored, so a malformed operand is
    # named before a non-finite one.
    def test_malformed_rhs_is_named_before_a_non_finite_matrix(self):
        with pytest.raises(ValueError, match="right-hand side of shape"):
            solve_psd(np.diag([np.nan, 1.0]), np.ones(3))

class TestSolvePsdStack:
    """solve_psd takes one matrix: a stack of them is refused by its shape,
    whatever the right-hand side."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((3, 2, 2), (2,)), ((3, 2, 2), (3, 2)), ((3, 2, 2), (4, 2, 1)), ((3, 2, 2), (3, 3, 1)),
         ((3, 2, 2), (3, 2, 1, 1)), ((3, 2, 3), (3, 2, 1)), ((3, 0, 0), (3, 0, 1)),
         ((1, 3, 2, 2), (2, 1))],
    )
    def test_malformed_shapes_raise_value_error(self, a_shape, b_shape):
        with pytest.raises(ValueError, match=r"shape \(") as info:
            solve_psd(np.ones(a_shape), np.ones(b_shape))
        assert str(a_shape) in str(info.value)


_SCHEDULE_HORIZON = 4
_SCHEDULE_SCENARIO = generate_scenario(
    builtin("linear2d"), expfam.gaussian(0.1 * np.eye(2)), _SCHEDULE_HORIZON, seed=0
)

# Each schedule entry point: the schedule it takes, and a call that passes
# the given schedule there and valid values everywhere else.
_SCHEDULE_ENTRY_POINTS = {
    "ekf.run": ("alpha", lambda v: ekf.run(_SCHEDULE_SCENARIO, v, np.zeros(2), np.eye(2))),
    "natgrad.run-eta": (
        "eta", lambda v: natgrad.run(_SCHEDULE_SCENARIO, v, 0.5, np.zeros(2), np.eye(2))
    ),
    "natgrad.run-gamma": (
        "gamma", lambda v: natgrad.run(_SCHEDULE_SCENARIO, 0.5, v, np.zeros(2), np.eye(2))
    ),
    "map_alpha_to_eta": ("alpha", lambda v: map_alpha_to_eta(v, 0.5, _SCHEDULE_HORIZON)),
}

_DOMAIN_MESSAGES = {
    "alpha": "alpha schedule must be >= 0",
    "eta": r"eta schedule must lie in \[0, 1\]",
    "gamma": r"gamma schedule must lie in \(0, 1\]",
}

# Values just outside each domain; alpha has no upper bound.
_BELOW = {"alpha": -0.1, "eta": -0.1, "gamma": 0.0}
_ABOVE = {"eta": 1.5, "gamma": 1.5}


def _refused_schedules():
    for entry, (name, _) in _SCHEDULE_ENTRY_POINTS.items():
        cases = {
            "wrong-length": (np.full(3, 0.1), f"{name} schedule has 3 entries; need 1 or 4"),
            # Four entries, the horizon, but not in a 1-D array.
            "2d": (np.full((2, 2), 0.1), rf"{name} schedule has shape \(2, 2\)"),
            "nan": (np.array([0.1, np.nan, 0.1, 0.1]), _DOMAIN_MESSAGES[name]),
            "below": (_BELOW[name], _DOMAIN_MESSAGES[name]),
        }
        if name in _ABOVE:
            cases["above"] = (_ABOVE[name], _DOMAIN_MESSAGES[name])
        for case, (values, message) in cases.items():
            yield pytest.param(entry, values, message, id=f"{entry}-{case}")


class TestSchedule:
    def test_normalises_to_one_float_per_step(self):
        expected = np.full(3, 0.25)
        for values in (0.25, [0.25], np.array([0.25])):
            np.testing.assert_array_equal(numerics.schedule("alpha", values, 3), expected)
        ramp = np.array([0.0, 1, 2])
        out = numerics.schedule("alpha", ramp, 3)
        np.testing.assert_array_equal(out, ramp)
        assert out.dtype == np.float64 and out is not ramp
        assert numerics.schedule("gamma", 1.0, 0).shape == (0,)

    @pytest.mark.parametrize("entry, values, message", _refused_schedules())
    def test_entry_point_refuses(self, entry, values, message):
        _, call = _SCHEDULE_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=message):
            call(values)


class TestSymmetrize:
    def test_fixed_point(self, rng):
        a = random_spd(rng, 4)
        np.testing.assert_array_equal(symmetrize(a), a)

    def test_forced_by_formula(self):
        out = symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5], [0.5, 0.0]])

    def test_skew_distance(self, rng):
        # A one-entry off-diagonal bump of size eps is eps/sqrt(2) away from
        # its own symmetrization (its skew part is eps/2 on two entries);
        # generic perturbations land at exactly ||skew(E)||_F.
        eps = 1e-3
        for _ in range(50):
            a = symmetrize(rng.standard_normal((4, 4)))
            b = a.copy()
            b[0, 1] += eps
            dist = np.linalg.norm(b - symmetrize(b))
            np.testing.assert_allclose(dist, eps / np.sqrt(2.0), rtol=1e-12)

            e = rng.standard_normal((4, 4))
            dist = np.linalg.norm((a + e) - symmetrize(a + e))
            np.testing.assert_allclose(dist, np.linalg.norm(0.5 * (e - e.T)), rtol=1e-12)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50)
    def test_idempotent(self, dim, seed):
        a = np.random.default_rng(seed).standard_normal((dim, dim))
        once = symmetrize(a)
        np.testing.assert_array_equal(symmetrize(once), once)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symmetrize(np.zeros((2, 3)))


class TestFdJacobian:
    def test_linear_map_exact(self, rng):
        m = rng.standard_normal((3, 4))
        jac = fd_jacobian(lambda x: m @ x, rng.standard_normal(4))
        np.testing.assert_allclose(jac, m, rtol=0, atol=1e-9)

    def test_sine_at_origin(self):
        jac = fd_jacobian(np.sin, np.zeros(3))
        np.testing.assert_allclose(jac, np.eye(3), atol=1e-9)

    def test_matches_analytic_tanhspring(self, rng):
        model = builtin("tanhspring")
        for _ in range(10):
            s = rng.standard_normal(2)
            u = np.zeros(0)
            fd = fd_jacobian(lambda v: model.f(v, u), s)
            exact = model.jacobian_f(s, u)
            np.testing.assert_allclose(fd, exact, rtol=1e-6)

    def test_nonfinite_probe_raises(self):
        def bad(x):
            with np.errstate(divide="ignore"):
                return np.array([1.0 / x[0]])

        with pytest.raises(NonFiniteError):
            fd_jacobian(bad, np.zeros(1))


# The shapes the per-step checks pass, plus one of 100 entries.
FINITE_SHAPES = [(), (0,), (1,), (2, 2), (3, 3), (8, 8), (100,)]
_MAX = np.finfo(float).max
_SUBNORMAL = np.finfo(float).smallest_subnormal


def _extremes(shape):
    """Finite entries at the edges of the range: +-max (whose sum
    overflows), subnormals of both signs and ones, cycled over ``shape``."""
    cycle = np.array([_MAX, _MAX, -_SUBNORMAL, 1.0, -_MAX, _SUBNORMAL, -1.0])
    return np.resize(cycle, int(np.prod(shape))).reshape(shape)


class TestFinite:
    """_finite(a) is np.isfinite(a).all(), as a Python bool, on every shape
    a step passes."""

    @pytest.mark.parametrize("shape", FINITE_SHAPES, ids=str)
    def test_finite_entries(self, shape, rng):
        for a in (
            np.asarray(rng.standard_normal(shape)),
            _extremes(shape),
            np.full(shape, _MAX),
            np.full(shape, -_MAX),
            np.full(shape, _SUBNORMAL),
            np.zeros(shape),
        ):
            assert _finite(a) is bool(np.isfinite(a).all()) is True

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=str)
    @pytest.mark.parametrize("shape", FINITE_SHAPES[:1] + FINITE_SHAPES[2:], ids=str)
    def test_a_non_finite_entry_anywhere(self, shape, bad):
        base = _extremes(shape)
        for i in range(base.size):
            a = base.copy()
            a.flat[i] = bad
            assert _finite(a) is bool(np.isfinite(a).all()) is False

    def test_strided_views(self, rng):
        # Transposes and column slices are tested entry by entry too.
        a = rng.standard_normal((8, 8))
        a[5, 2] = np.nan
        for view in (a.T, a[:, ::2], a[1::3, 1:], a[:, 3::2]):
            assert _finite(view) is bool(np.isfinite(view).all())

    def test_empty_is_finite(self):
        assert _finite(np.zeros((0, 3))) is _finite(np.zeros((3, 0))) is True


class TestRk4:
    def test_zero_field(self):
        s = np.array([1.0, -2.0])
        np.testing.assert_array_equal(rk4_step(lambda t, y: np.zeros(2), s, 0.0, 0.1), s)

    def test_exponential(self):
        # Oracle: closed-form solution y(1) = e for dy/dt = y, y(0) = 1.
        y = np.array([1.0])
        for i in range(100):
            y = rk4_step(lambda t, v: v, y, i * 0.01, 0.01)
        assert abs(y[0] - np.e) < 1e-8

    def test_order_four(self):
        # Oracle: Richardson slope on the exponential; halving dt must cut
        # the global error by about 2^4.
        def err(dt):
            y = np.array([1.0])
            n = int(round(1.0 / dt))
            for i in range(n):
                y = rk4_step(lambda t, v: v, y, i * dt, dt)
            return abs(y[0] - np.e)

        order = np.log2(err(0.02) / err(0.01))
        assert 3.5 <= order <= 4.5

    def test_measured_order_smooth_field(self):
        # Convergence order >= 3.5 on a non-autonomous smooth field,
        # checked against a fine-grid reference.
        def deriv(t, y):
            return np.array([np.sin(t) * y[0] + np.cos(3 * t)])

        def solve(dt):
            y = np.array([0.5])
            n = int(round(1.0 / dt))
            for i in range(n):
                y = rk4_step(deriv, y, i * dt, dt)
            return y[0]

        ref = solve(1.0 / 4096)
        order = np.log2(abs(solve(0.02) - ref) / abs(solve(0.01) - ref))
        assert order >= 3.5

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, y: y, np.zeros(1), 0.0, 0.0)
