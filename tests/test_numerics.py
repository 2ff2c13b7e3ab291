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
from kalgrad.numerics import fd_jacobian, rk4_step, solve_psd, symmetrize

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

    def test_jitter_rescues_semidefinite(self):
        # One zero eigenvalue: the jitter ladder makes it factorizable.
        a = np.diag([1.0, 0.0])
        x = solve_psd(a, np.array([1.0, 0.0]))
        assert np.isfinite(x).all()

    # A rank-one matrix of ones has an exact zero second pivot, so the
    # unjittered factorization fails and the ladder rescues it.  x is then
    # determined only up to the null space, but A x = b still holds.
    @pytest.mark.parametrize("dim", [2, 8])
    def test_jitter_rescues_rank_one(self, dim):
        a = np.ones((dim, dim))
        b = np.ones(dim)
        assert dpotrf(a, lower=1)[1] > 0
        x = solve_psd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    # The ladder scales with trace(A), so it cannot make a non-positive 1x1
    # matrix positive.
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_jitter_cannot_rescue_1x1(self, value):
        with pytest.raises(SingularMatrixError, match="jitter"):
            solve_psd(np.array([[value]]), np.ones(1))

    # Without a positive trace the ladder has no positive shift to add, so
    # the matrix is factored once, not once per rung.
    @pytest.mark.parametrize("a", [[[0.0]], [[-1.0]], [[1.0, 0.0], [0.0, -2.0]]])
    def test_non_positive_trace_is_factored_once(self, a, monkeypatch):
        calls = []

        def counting_dpotrf(*args, **kwargs):
            calls.append(args)
            return dpotrf(*args, **kwargs)

        monkeypatch.setattr(numerics, "dpotrf", counting_dpotrf)
        with pytest.raises(SingularMatrixError, match="jitter budget"):
            solve_psd(np.array(a), np.ones(len(a)))
        assert len(calls) == 1

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
         ((3, 3), (2,)), ((3, 3), (4, 2)), ((3, 3), ()), ((3, 3), (3, 1, 1))],
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


def _spd_stack(rng, n, conds):
    """One random SPD matrix per 2-norm condition number in ``conds``, at a
    random overall scale."""
    stack = []
    for cond in conds:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        eigs = np.logspace(0.0, -np.log10(cond), n) * 10.0 ** rng.uniform(-3, 3)
        stack.append(symmetrize((q * eigs) @ q.T))
    return np.array(stack)


# Members of a mixed stack, with a right-hand-side column in the range of
# each: a well-conditioned matrix, a singular one that factors on the first
# rung of the jitter ladder, one with a nan, and one that factors but fails
# the residual bound.
_GOOD = (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -1.0]))
_JITTER = (np.ones((2, 2)), np.array([1.0, 1.0]))
_NAN = (np.array([[2.0, 0.0], [np.nan, 1.0]]), np.array([1.0, -1.0]))
_RESIDUAL = (np.array([[3.0, 1.0], [1.0, 1.0 / 3.0 + 1e-14]]), np.array([1.0, -1.0]))


def _stack(*members):
    return np.array([m[0] for m in members]), np.array([m[1][:, None] for m in members])


class TestSolvePsdStack:
    # Consistent systems B = A X0, so that the 2-D path meets the residual
    # bound up to cond 1e8.  Measured over 1700 matrices per n, the two
    # paths differ by at most 0.86 cond eps (relative to max |X|), and not
    # at all for n = 1.
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_each_matrix_agrees_with_the_2d_path(self, n, rng):
        conds = np.logspace(0, 8, 17) if n > 1 else np.ones(17)
        eps = np.finfo(float).eps
        for _ in range(5):
            a = _spd_stack(rng, n, conds)
            b = a @ rng.standard_normal((len(a), n, 3))
            x = solve_psd(a, b)
            assert x.shape == b.shape
            for i, cond in enumerate(conds):
                ref = solve_psd(a[i], b[i])
                assert np.abs(x[i] - ref).max() <= 4.0 * cond * eps * np.abs(ref).max()

    def test_shared_rhs(self, rng):
        a = _spd_stack(rng, 3, np.logspace(0, 4, 6))
        b = rng.standard_normal((3, 2))
        x = solve_psd(a, b)
        np.testing.assert_array_equal(x, solve_psd(a, np.broadcast_to(b, (6, 3, 2))))
        for i in range(len(a)):
            np.testing.assert_allclose(x[i], solve_psd(a[i], b), rtol=1e-11)

    def test_empty_stack(self):
        assert solve_psd(np.zeros((0, 2, 2)), np.eye(2)).shape == (0, 2, 2)

    # The jitter rung is taken on the 2-D path, so that matrix's result is
    # the 2-D result itself.
    def test_jitter_rung_as_on_the_2d_path(self):
        a, b = _stack(_GOOD, _JITTER, _GOOD)
        x = solve_psd(a, b)
        for i in range(3):
            np.testing.assert_array_equal(x[i], solve_psd(a[i], b[i]))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(_JITTER[0])  # it does need the ladder

    # A mixed stack fails where the 2-D path first fails, with its error
    # class and message, plus the index of the matrix.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "members, index, error",
        [
            ((_JITTER, _NAN, _RESIDUAL, _GOOD), 1, NonFiniteError),
            ((_GOOD, _JITTER, _RESIDUAL, _NAN), 2, SingularMatrixError),
            ((_GOOD, _GOOD, _GOOD, _NAN), 3, NonFiniteError),
        ],
        ids=["nan-first", "residual-first", "nan-last"],
    )
    def test_mixed_stack_fails_as_the_2d_path(self, members, index, error):
        a, b = _stack(*members)
        for i in range(index):
            solve_psd(a[i], b[i])  # the 2-D path solves the matrices before it
        with pytest.raises(error) as expected:
            solve_psd(a[index], b[index])
        with pytest.raises(error) as info:
            solve_psd(a, b)
        assert info.value.index == index
        assert str(info.value) == f"{expected.value} (matrix {index} of {len(members)})"

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
    @settings(max_examples=50, deadline=None)
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

    def test_nonfinite_stage_raises(self):
        with pytest.raises(NonFiniteError):
            rk4_step(lambda t, y: np.array([np.inf]), np.zeros(1), 0.0, 0.1)

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, y: y, np.zeros(1), 0.0, 0.0)
