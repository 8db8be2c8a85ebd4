"""Analytic test problems: gradients, minima, registry plumbing."""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spbfgs.errors import BadDimensionError
from spbfgs.problems import Problem, get_problem, list_problems

STACKED = ("srosenbr", "genrose", "extrosnb")

ALL_NAMES = list_problems()


def finite_diff_grad(f, x, h=1e-6):
    """Central-difference gradient with per-coordinate step h * (1 + |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        step = h * (1.0 + abs(x[i]))
        e = np.zeros_like(x)
        e[i] = step
        g[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return g


def test_registry_lists_twelve():
    assert len(ALL_NAMES) == 12
    assert len(set(ALL_NAMES)) == 12
    assert "rosenbrock" in ALL_NAMES and "quadratic_ill" in ALL_NAMES


def test_unknown_name():
    with pytest.raises(KeyError):
        get_problem("does_not_exist")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gradient_matches_finite_differences(name):
    prob = get_problem(name)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    # near the start point and near the minimum region, moderate scale
    candidates = [prob.x0 / (1.0 + np.abs(prob.x0)), np.ones(prob.n) * 0.5]
    for _ in range(3):
        candidates.append(rng.uniform(-2.0, 2.0, size=prob.n))
    for x in candidates:
        num = finite_diff_grad(prob.f, x)
        ana = prob.grad(x)
        scale = 1.0 + np.abs(num).max()
        np.testing.assert_allclose(ana, num, rtol=0, atol=5e-4 * scale,
                                   err_msg=f"{name} at {x}")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_start_point_shape_and_finite(name):
    prob = get_problem(name)
    assert prob.x0.shape == (prob.n,)
    assert np.all(np.isfinite(prob.x0))
    assert np.isfinite(prob.f(prob.x0))
    assert np.all(np.isfinite(prob.grad(prob.x0)))


@pytest.mark.parametrize("x0", [np.ones(2), np.ones(4), np.ones((3, 1)), np.ones((1, 3)),
                                np.float64(1.0)],
                         ids=["short", "long", "column", "row", "scalar"])
def test_start_point_that_does_not_fit_n_is_rejected(x0):
    # minimize would otherwise fail inside numpy, at its first product with H
    with pytest.raises(BadDimensionError, match="x0"):
        Problem("p", 3, lambda x: float(x @ x), lambda x: 2.0 * x, x0, 0.0)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_phi_star_is_a_lower_bound_nearby(name):
    # sample around x0 and around the best-known region; no value may
    # undercut the declared minimum
    prob = get_problem(name)
    rng = np.random.default_rng(1 + zlib.crc32(name.encode()))
    for _ in range(200):
        x = prob.x0 + rng.standard_normal(prob.n) * (1.0 + np.abs(prob.x0))
        with np.errstate(all="ignore"):
            val = prob.f(x)
        if np.isfinite(val):
            assert val >= prob.phi_star - 1e-9


@pytest.mark.parametrize(
    "name,xstar",
    [
        ("quadratic_ill", np.zeros(4)),
        ("rosenbrock", np.array([1.0, 1.0])),
        ("srosenbr", np.ones(10)),
        ("beale", np.array([3.0, 0.5])),
        ("cube", np.array([1.0, 1.0])),
        ("box3", np.array([1.0, 10.0, 1.0])),
        ("genrose", np.ones(5)),
        ("extrosnb", np.ones(10)),
        ("sineval", np.zeros(2)),
    ],
)
def test_known_minimizers(name, xstar):
    prob = get_problem(name)
    assert prob.f(xstar) == pytest.approx(prob.phi_star, abs=1e-12)
    np.testing.assert_allclose(prob.grad(xstar), np.zeros(prob.n), rtol=0, atol=1e-10)


def test_powellsg_minimum_at_origin():
    prob = get_problem("powellsg")
    assert prob.f(np.zeros(4)) == 0.0
    np.testing.assert_allclose(prob.grad(np.zeros(4)), np.zeros(4), atol=1e-12)


def test_helix_minimum():
    prob = get_problem("helix")
    xstar = np.array([1.0, 0.0, 0.0])
    assert prob.f(xstar) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(prob.grad(xstar), np.zeros(3), atol=1e-10)


def test_snail_minimum_at_origin():
    prob = get_problem("snail")
    assert prob.f(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


class TestQuadraticIll:
    def test_spectrum(self):
        prob = get_problem("quadratic_ill")
        t = prob.hess(prob.x0)
        vals = np.linalg.eigvalsh(t)
        np.testing.assert_allclose(vals, [1e-2, 1.0, 1e2, 1e4], rtol=1e-12)

    def test_condition_number(self):
        prob = get_problem("quadratic_ill")
        vals = np.linalg.eigvalsh(prob.hess(prob.x0))
        assert vals[-1] / vals[0] == pytest.approx(1e6, rel=1e-10)

    def test_start_gradient_norm_near_1e9(self):
        prob = get_problem("quadratic_ill")
        norm = np.linalg.norm(prob.grad(prob.x0))
        assert norm == pytest.approx(1.0000500037503124e9, rel=1e-12)

    def test_strong_convexity_metadata(self):
        prob = get_problem("quadratic_ill")
        assert prob.strong_convexity == (1e-2, 1e4)

    def test_start_point(self):
        prob = get_problem("quadratic_ill")
        np.testing.assert_array_equal(prob.x0, np.full(4, 1e5))


class TestHessians:
    @pytest.mark.parametrize("name", ["quadratic_ill", "rosenbrock"])
    def test_hessian_matches_fd_of_gradient(self, name):
        prob = get_problem(name)
        rng = np.random.default_rng(50)
        x = rng.uniform(-1.5, 1.5, size=prob.n)
        hess = prob.hess(x)
        step = 1e-6
        for j in range(prob.n):
            e = np.zeros(prob.n)
            e[j] = step * (1.0 + abs(x[j]))
            col = (prob.grad(x + e) - prob.grad(x - e)) / (2.0 * e[j])
            np.testing.assert_allclose(hess[:, j], col, rtol=0,
                                       atol=1e-4 * (1.0 + np.abs(col).max()))


class TestSizedProblems:
    @pytest.mark.parametrize("name", ["srosenbr", "genrose", "extrosnb"])
    def test_size_override(self, name):
        prob = get_problem(name, n=6)
        assert prob.n == 6
        assert prob.x0.shape == (6,)

    def test_srosenbr_odd_size_rejected(self):
        with pytest.raises(BadDimensionError):
            get_problem("srosenbr", n=7)

    def test_fixed_size_problem_rejects_override(self):
        with pytest.raises(BadDimensionError):
            get_problem("rosenbrock", n=5)

    def test_size_keeps_default_when_omitted(self):
        assert get_problem("srosenbr").n == 10
        assert get_problem("genrose").n == 5


def test_genrose_minimum_value_is_one():
    prob = get_problem("genrose")
    assert prob.phi_star == 1.0
    assert prob.f(np.ones(prob.n)) == 1.0


def bitwise(values):
    return np.asarray(values, dtype=float).view(np.int64)


def one_at_a_time(problem, x):
    return np.array([float(problem.f(row)) for row in x])


# moderate entries, and entries whose squares overflow to inf
entries = st.one_of(st.floats(min_value=-10.0, max_value=10.0),
                    st.floats(min_value=-1e200, max_value=1e200))


@st.composite
def stacks(draw):
    """(problem, x): a sized problem and k = 1..12 points stacked as (k, n)."""
    problem = get_problem(draw(st.sampled_from(STACKED)), draw(st.sampled_from([2, 4, 6, 10, 18])))
    k = draw(st.integers(min_value=1, max_value=12))
    return problem, draw(arrays(float, (k, problem.n), elements=entries))


class TestStackedF:
    def test_which_problems_stack(self):
        assert {name for name in list_problems() if get_problem(name).stacked_f} == set(STACKED)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(stacks())
    def test_rows_equal_one_point_values_bitwise(self, case):
        problem, x = case
        with np.errstate(all="ignore"):
            stacked = problem.f(x)
            rows = one_at_a_time(problem, x)
        assert stacked.shape == (x.shape[0],)
        assert np.array_equal(bitwise(stacked), bitwise(rows))

    @pytest.mark.parametrize("n", [256, 258])
    @pytest.mark.parametrize("name", STACKED)
    def test_large_n_rows_equal_one_point_values_bitwise(self, name, n):
        # long pairwise sums; and rows on the valley x_(i+1) = x_i^2, where
        # extrosnb's value is its leading square alone, which as an array
        # square rounds differently from a numpy scalar's at ~1 point in 1000
        problem = get_problem(name, n)
        rng = np.random.default_rng(n)
        x = problem.x0 + rng.standard_normal((4000, n)) * 10.0 ** rng.uniform(-8, 1, (4000, 1))
        x[::97] *= 1e160  # rows that overflow to inf
        x[1::2, 0] = rng.uniform(-1.0, 1.0, 2000)
        for i in range(1, n):
            x[1::2, i] = x[1::2, i - 1] ** 2
        with np.errstate(all="ignore"):
            stacked = problem.f(x.reshape(40, 100, n))
            rows = one_at_a_time(problem, x)
        assert np.isinf(rows).any()
        assert np.array_equal(bitwise(stacked).ravel(), bitwise(rows))

    @pytest.mark.parametrize("name", STACKED)
    def test_one_point_gives_a_scalar(self, name):
        problem = get_problem(name, 6)
        assert np.ndim(problem.f(problem.x0)) == 0


# The seven fixed-size formulas as they were written on numpy float64
# scalars (x[i] of a float64 vector), kept here as the reference that the
# Python-float evaluation must match bit for bit.
def _helix_theta_ref(x1, x2):
    if x1 > 0.0:
        return math.atan(x2 / x1) / (2.0 * math.pi)
    if x1 < 0.0:
        return math.atan(x2 / x1) / (2.0 * math.pi) + 0.5
    return 0.25 if x2 >= 0.0 else -0.25


def _beale_f_ref(x):
    consts = (1.5, 2.25, 2.625)
    return float(sum((c - x[0] * (1.0 - x[1] ** (k + 1))) ** 2 for k, c in enumerate(consts)))


def _beale_grad_ref(x):
    g = np.zeros(2)
    for k, c in enumerate((1.5, 2.25, 2.625)):
        yk = x[1] ** (k + 1)
        r = c - x[0] * (1.0 - yk)
        g[0] += 2.0 * r * (yk - 1.0)
        g[1] += 2.0 * r * x[0] * (k + 1) * x[1] ** k
    return g


def _helix_f_ref(x):
    theta = _helix_theta_ref(x[0], x[1])
    r = math.hypot(x[0], x[1])
    return float(100.0 * ((x[2] - 10.0 * theta) ** 2 + (r - 1.0) ** 2) + x[2] ** 2)


def _helix_grad_ref(x):
    theta = _helix_theta_ref(x[0], x[1])
    r2 = x[0] ** 2 + x[1] ** 2
    r = math.sqrt(r2)
    t = x[2] - 10.0 * theta
    u = r - 1.0
    dth1 = -x[1] / (2.0 * math.pi * r2)
    dth2 = x[0] / (2.0 * math.pi * r2)
    return np.array([-2000.0 * t * dth1 + 200.0 * u * x[0] / r,
                     -2000.0 * t * dth2 + 200.0 * u * x[1] / r,
                     200.0 * t + 2.0 * x[2]])


def _snail_f_ref(x):
    r2 = x[0] ** 2 + x[1] ** 2
    if r2 == 0.0:
        return 0.0
    r = math.sqrt(r2)
    theta = math.atan2(x[1], x[0])
    return float(r2 / (1.0 + r2) * (1.5 + 0.5 * math.cos(theta - r)))


def _snail_grad_ref(x):
    r2 = x[0] ** 2 + x[1] ** 2
    if r2 == 0.0:
        return np.zeros(2)
    r = math.sqrt(r2)
    theta = math.atan2(x[1], x[0])
    u = r2 / (1.0 + r2)
    v = 1.5 + 0.5 * math.cos(theta - r)
    sn = 0.5 * math.sin(theta - r)
    du = 2.0 / (1.0 + r2) ** 2
    return np.array([x[0] * v * du - u * sn * (-x[1] / r2 - x[0] / r),
                     x[1] * v * du - u * sn * (x[0] / r2 - x[1] / r)])


NUMPY_SCALAR_REFERENCE = {
    "rosenbrock": (
        lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2),
        lambda x: np.array([-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
                            200.0 * (x[1] - x[0] ** 2)]),
    ),
    "beale": (_beale_f_ref, _beale_grad_ref),
    "cube": (
        lambda x: float((x[0] - 1.0) ** 2 + 100.0 * (x[1] - x[0] ** 3) ** 2),
        lambda x: np.array([2.0 * (x[0] - 1.0) - 600.0 * x[0] ** 2 * (x[1] - x[0] ** 3),
                            200.0 * (x[1] - x[0] ** 3)]),
    ),
    "powellsg": (
        lambda x: float((x[0] + 10.0 * x[1]) ** 2 + 5.0 * (x[2] - x[3]) ** 2
                        + (x[1] - 2.0 * x[2]) ** 4 + 10.0 * (x[0] - x[3]) ** 4),
        lambda x: np.array([
            2.0 * (x[0] + 10.0 * x[1]) + 40.0 * (x[0] - x[3]) ** 3,
            20.0 * (x[0] + 10.0 * x[1]) + 4.0 * (x[1] - 2.0 * x[2]) ** 3,
            10.0 * (x[2] - x[3]) - 8.0 * (x[1] - 2.0 * x[2]) ** 3,
            -10.0 * (x[2] - x[3]) - 40.0 * (x[0] - x[3]) ** 3,
        ]),
    ),
    "helix": (_helix_f_ref, _helix_grad_ref),
    "sineval": (
        lambda x: float(1e4 * (x[1] - math.sin(x[0])) ** 2 + 0.25 * x[0] ** 2),
        lambda x: np.array([-2e4 * (x[1] - math.sin(x[0])) * math.cos(x[0]) + 0.5 * x[0],
                            2e4 * (x[1] - math.sin(x[0]))]),
    ),
    "snail": (_snail_f_ref, _snail_grad_ref),
}

# signed zeros, subnormals (whose squares underflow to 0), negative bases,
# magnitudes whose powers overflow (1e150 .. 1e308), inf, and nan of both
# signs (an odd power of a negative nan is -nan in CPython, +nan in libm)
special_entries = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-170, -1e-170, 2.2250738585072014e-308, 1.0, -1.0, 1.5,
    -1.2, 1e150, -1e150, 1e200, -1e250, 1e308, 1.7976931348623157e308, -1.7976931348623157e308,
    math.inf, -math.inf, math.nan, -math.nan,
])
fixed_entries = st.one_of(
    special_entries,
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e150, max_value=1e308),
    st.floats(min_value=-1e308, max_value=-1e150),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(),
)


def outcome(fn, x):
    """What fn(x) gives: its type and value bytes, or the exception it raises."""
    with np.errstate(all="ignore"):
        try:
            value = fn(x.copy())
        except Exception as exc:  # noqa: BLE001 - the exception is the outcome
            return "raises", type(exc), str(exc)
    return "returns", type(value), np.asarray(value, dtype=float).tobytes()


class TestPythonFloatFormulas:
    def test_which_problems_use_python_floats(self):
        assert set(NUMPY_SCALAR_REFERENCE) == (set(list_problems()) - set(STACKED)
                                               - {"quadratic_ill", "box3"})

    @pytest.mark.parametrize("name", sorted(NUMPY_SCALAR_REFERENCE))
    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_f_and_grad_equal_numpy_scalar_formulas_bitwise(self, name, data):
        problem = get_problem(name)
        x = data.draw(arrays(float, problem.n, elements=fixed_entries))
        f_ref, grad_ref = NUMPY_SCALAR_REFERENCE[name]
        assert outcome(problem.f, x) == outcome(f_ref, x)
        assert outcome(problem.grad, x) == outcome(grad_ref, x)

    @pytest.mark.parametrize("name, x", [
        ("helix", [0.0, 0.0, 1.0]),  # r2 = 0: / r2 raises ZeroDivisionError on floats
        ("helix", [-0.0, 5e-324, -2.0]),  # r2 underflows to 0 at nonzero x
        ("snail", [0.0, -0.0]),
        ("snail", [1e-170, -1e-170]),
        ("cube", [1e200, 1.0]),  # ** overflows: OverflowError on floats, inf on numpy
        ("powellsg", [1e100, -1e100, 1e100, 1.0]),
        ("beale", [1.0, -1e150]),
        ("cube", [-math.nan, 1.0]),  # x1^3 of -nan: -nan in CPython, +nan in libm
        ("sineval", [math.inf, 0.0]),  # math.sin(inf): a domain error on both
        ("snail", [math.inf, 1.0]),
    ])
    def test_edge_points(self, name, x):
        problem = get_problem(name)
        x = np.array(x)
        f_ref, grad_ref = NUMPY_SCALAR_REFERENCE[name]
        assert outcome(problem.f, x) == outcome(f_ref, x)
        assert outcome(problem.grad, x) == outcome(grad_ref, x)
