"""Analytic test problems: gradients, minima, registry plumbing."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spbfgs.errors import BadDimensionError
from spbfgs.problems import finite_diff_grad, get_problem, list_problems

STACKED = ("srosenbr", "genrose", "extrosnb")

ALL_NAMES = list_problems()


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
