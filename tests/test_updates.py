"""Unit tests for the penalized rank-two update and its scalar plumbing."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spbfgs.errors import (
    BadDimensionError,
    CurvatureViolationError,
    DegenerateInputError,
    NonFiniteError,
    SingularDenominatorError,
)
from spbfgs.updates import (
    CurvaturePair,
    PenaltyScalars,
    bfgs_curvature_ok,
    bfgs_update,
    compute_penalty_scalars,
    is_positive_definite,
    spbfgs_curvature_ok,
    spbfgs_inverse_update,
    spbfgs_update,
    _update_scratch,
)
from spbfgs.verify import product_form_bfgs, random_pair, random_spd


def kernel_terms(h, s, y, gamma, omega):
    """Hy and coef = gamma (1 + omega y.Hy), computed as the kernel computes them."""
    hy = h @ y
    return hy, gamma * (1.0 + omega * float(y @ hy))


def reference_update(h, s, y, gamma, omega):
    """The kernel as an allocating expression: H + (s u^T + u s^T).

    + 0.0 turns a -0 product into +0, as the kernel's einsum does, and
    leaves every other value alone (see test_sign_of_zero).
    """
    hy, coef = kernel_terms(h, s, y, gamma, omega)
    u = (0.5 * coef) * s - omega * hy
    return h + ((np.outer(s, u) + 0.0) + (np.outer(u, s) + 0.0))


def expanded_update(h, s, y, gamma, omega):
    """The expanded form H - omega (s (Hy)^T + (Hy) s^T) + coef s s^T, symmetrized.

    The same update with different roundings: an oracle for the kernel to
    within a few ulps of its terms, not bitwise.
    """
    hy, coef = kernel_terms(h, s, y, gamma, omega)
    out = h - omega * (np.outer(s, hy) + np.outer(hy, s)) + coef * np.outer(s, s)
    return 0.5 * (out + out.T)


def expanded_bound(h, s, y, gamma, omega):
    """Entrywise bound on |kernel - expanded_update|: 8 eps times the terms' magnitudes."""
    hy, coef = kernel_terms(h, s, y, gamma, omega)
    abs_s, abs_hy = np.abs(s), np.abs(hy)
    terms = (np.abs(h) + abs(omega) * (np.outer(abs_s, abs_hy) + np.outer(abs_hy, abs_s))
             + abs(coef) * np.outer(abs_s, abs_s))
    return 8.0 * np.finfo(h.dtype).eps * terms


def chained_updates(rng, h, scratch):
    """Five updates of h, in place with scratch and through copies; returns the copy."""
    copied = h.copy()
    for beta in (0.5, 1e3, math.inf, 1.0, 7.0):
        pair = random_pair(rng, h.shape[0], sign=1)
        sc = compute_penalty_scalars(pair, beta)
        copied = spbfgs_update(copied, pair, sc)
        spbfgs_update(h, pair, sc, scratch)
    return copied


def scratch_pair(n):
    # NaN-filled, so anything read before it is written shows in the result
    a, b, finite = _update_scratch(n)
    a.fill(np.nan)
    b.fill(np.nan)
    return a, b, finite


# finite entries of every size, huge ones whose products overflow, signed
# zeros and subnormals, and inf and nan
pair_entry = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=1e150, max_value=1.7976931348623157e308),
    st.floats(min_value=-1.7976931348623157e308, max_value=-1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan]),
    st.floats(),
)


@st.composite
def pair_entries(draw):
    """(s, y): two float vectors of one length, 1..8 or 33..40 (BLAS's unrolled loops)."""
    n = draw(st.one_of(st.integers(1, 8), st.integers(33, 40)))
    return (draw(arrays(float, n, elements=pair_entry)),
            draw(arrays(float, n, elements=pair_entry)))


class TestCurvaturePair:
    def test_sty_cached(self):
        pair = CurvaturePair([1.0, 2.0], [3.0, -1.0])
        assert pair.sty == 1.0
        assert pair.n == 2

    def test_coerces_to_float(self):
        pair = CurvaturePair([1, 0], [0, 1])
        assert pair.s.dtype == np.float64
        assert pair.sty == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(BadDimensionError):
            CurvaturePair([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_matrix_input_rejected(self):
        with pytest.raises(BadDimensionError):
            CurvaturePair(np.ones((2, 2)), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(NonFiniteError):
            CurvaturePair([1.0, bad], [1.0, 1.0])
        # opposite a zero, or in y: s.y is nan or inf all the same
        with pytest.raises(NonFiniteError):
            CurvaturePair([1.0, bad], [1.0, 0.0])
        with pytest.raises(NonFiniteError):
            CurvaturePair([0.0, 1.0], [bad, 1.0])

    def test_overflowing_sty_of_finite_entries_accepted(self):
        with np.errstate(over="ignore"):
            pair = CurvaturePair([1e300, 1e300], [1e300, 1e300])
        assert pair.sty == math.inf

    @settings(derandomize=True, deadline=None, max_examples=500)
    @given(pair_entries())
    def test_accepts_what_scanning_first_accepts(self, case):
        s, y = case
        # the check as it was: scan both vectors, then s @ y
        if np.isfinite(s).all() and np.isfinite(y).all():
            with np.errstate(all="ignore"):
                expected = np.float64(s @ y).tobytes()
        else:
            expected = "rejected"
        # no warning may leave the constructor, whatever numpy's error state
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error")
            try:
                got = np.float64(CurvaturePair(s, y).sty).tobytes()
            except NonFiniteError:
                got = "rejected"
        assert got == expected


class TestCurvatureConditions:
    def test_bfgs_condition_strict(self):
        assert bfgs_curvature_ok(CurvaturePair([1.0], [1.0]))
        assert not bfgs_curvature_ok(CurvaturePair([1.0], [0.0]))
        assert not bfgs_curvature_ok(CurvaturePair([1.0], [-1.0]))

    def test_beta_zero_accepts_anything(self):
        assert spbfgs_curvature_ok(CurvaturePair([1.0], [-100.0]), 0.0)

    def test_beta_inf_matches_bfgs(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s, y = rng.standard_normal(3), rng.standard_normal(3)
            pair = CurvaturePair(s, y)
            assert spbfgs_curvature_ok(pair, math.inf) == bfgs_curvature_ok(pair)

    def test_finite_beta_boundary(self):
        # condition is strict: s.y = -1/beta exactly must fail
        pair = CurvaturePair([1.0], [-0.5])
        assert spbfgs_curvature_ok(pair, 1.0)  # -0.5 > -1
        assert not spbfgs_curvature_ok(pair, 2.0)  # -0.5 > -0.5 is false
        assert not spbfgs_curvature_ok(pair, 4.0)  # -0.5 > -0.25 is false

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            spbfgs_curvature_ok(CurvaturePair([1.0], [1.0]), -1.0)


class TestPenaltyScalars:
    def test_hand_example(self):
        # s.y = 2, beta = 1: gamma = 1/(2 + 1), omega = 1/(2 + 2)
        pair = CurvaturePair([1.0, 1.0], [1.0, 1.0])
        sc = compute_penalty_scalars(pair, 1.0)
        np.testing.assert_allclose(sc.gamma, 1.0 / 3.0, rtol=0, atol=1e-16)
        np.testing.assert_allclose(sc.omega, 1.0 / 4.0, rtol=0, atol=1e-16)

    def test_beta_zero_freezes(self):
        pair = CurvaturePair([1.0], [-7.0])
        sc = compute_penalty_scalars(pair, 0.0)
        assert sc.gamma == 0.0 and sc.omega == 0.0

    def test_beta_inf_is_reciprocal_sty(self):
        pair = CurvaturePair([2.0], [3.0])
        sc = compute_penalty_scalars(pair, math.inf)
        assert sc.gamma == 1.0 / 6.0
        assert sc.omega == 1.0 / 6.0

    def test_beta_inf_subnormal_sty_overflows(self):
        pair = CurvaturePair([1.63e-322], [1.0])
        assert 0.0 < pair.sty < 1e-300
        with pytest.raises(NonFiniteError):
            compute_penalty_scalars(pair, math.inf)

    def test_beta_inf_zero_sty_singular(self):
        with pytest.raises(SingularDenominatorError):
            compute_penalty_scalars(CurvaturePair([1.0], [0.0]), math.inf)

    def test_omega_denominator_singular(self):
        # beta = -2/s.y makes s.y + 2/beta vanish exactly
        pair = CurvaturePair([1.0], [-0.5])
        with pytest.raises(SingularDenominatorError):
            compute_penalty_scalars(pair, 4.0)

    def test_gamma_denominator_singular(self):
        pair = CurvaturePair([1.0], [-0.5])
        with pytest.raises(SingularDenominatorError):
            compute_penalty_scalars(pair, 2.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            compute_penalty_scalars(CurvaturePair([1.0], [1.0]), -0.1)

    def test_no_curvature_enforcement(self):
        # violating pairs still yield well-defined scalars
        pair = CurvaturePair([1.0], [-3.0])
        sc = compute_penalty_scalars(pair, 1.0)
        assert math.isfinite(sc.gamma) and math.isfinite(sc.omega)
        assert sc.gamma < 0.0  # 1/(-3 + 1)


class TestBfgsUpdate:
    def test_matches_textbook_form(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = rng.integers(1, 6)
            h = random_spd(rng, n)
            pair = random_pair(rng, n, sign=1)
            expected = product_form_bfgs(h, pair)
            got = bfgs_update(h, pair)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_secant_equation(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            h = random_spd(rng, 4)
            pair = random_pair(rng, 4, sign=1)
            hplus = bfgs_update(h, pair)
            np.testing.assert_allclose(hplus @ pair.y, pair.s, rtol=0,
                                       atol=1e-10 * (1.0 + np.abs(pair.s).max()))

    def test_curvature_enforced(self):
        with pytest.raises(CurvatureViolationError):
            bfgs_update(np.eye(2), CurvaturePair([1.0, 0.0], [-1.0, 0.0]))
        with pytest.raises(CurvatureViolationError):
            bfgs_update(np.eye(2), CurvaturePair([1.0, 0.0], [0.0, 1.0]))

    def test_nan_sty_is_a_curvature_violation(self):
        # finite entries give s.y = inf - inf = nan only for some summation
        # orders of the dot product, so the cached value is set directly
        pair = CurvaturePair([1.0, 0.0], [1.0, 0.0])
        object.__setattr__(pair, "sty", math.nan)
        with pytest.raises(CurvatureViolationError):
            bfgs_update(np.eye(2), pair)

    def test_wrong_shape(self):
        with pytest.raises(BadDimensionError):
            bfgs_update(np.eye(3), CurvaturePair([1.0, 0.0], [1.0, 0.0]))


class TestSpbfgsUpdate:
    def test_beta_inf_bitwise_bfgs(self):
        # bfgs_update is this same update at beta = +inf, so the limit is
        # checked against BFGS in product form, with acceptance c02's bound
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = random_spd(rng, 5)
            pair = random_pair(rng, 5, sign=1)
            sc = compute_penalty_scalars(pair, math.inf)
            assert np.max(np.abs(spbfgs_update(h, pair, sc) - product_form_bfgs(h, pair))) <= 1e-12

    def test_beta_zero_identity_copy(self):
        h = random_spd(np.random.default_rng(14), 3)
        pair = CurvaturePair([1.0, 0.0, 0.0], [-1.0, 2.0, 0.5])
        sc = compute_penalty_scalars(pair, 0.0)
        out = spbfgs_update(h, pair, sc)
        assert np.array_equal(out, h)
        assert out is not h

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(15)
        for beta in (0.3, 5.0, 1e3):
            h = random_spd(rng, 4)
            pair = random_pair(rng, 4, sign=1)
            out = spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
            assert np.array_equal(out, out.T)

    def test_pd_preserved_when_condition_holds(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            h = random_spd(rng, 4)
            s, y = rng.standard_normal(4), rng.standard_normal(4)
            pair = CurvaturePair(s, y)
            beta = float(rng.uniform(0.1, 10.0))
            if not spbfgs_curvature_ok(pair, beta):
                continue
            out = spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
            assert is_positive_definite(out)

    def test_value_identity(self):
        # y^T H+ y is a convex combination of s.y and y^T H y with
        # weight w = beta s.y / (1 + beta s.y)
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = random_spd(rng, 4)
            pair = random_pair(rng, 4, sign=1)
            beta = float(rng.uniform(0.05, 50.0))
            out = spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
            w = beta * pair.sty / (1.0 + beta * pair.sty)
            expected = w * pair.sty + (1.0 - w) * float(pair.y @ h @ pair.y)
            np.testing.assert_allclose(float(pair.y @ out @ pair.y), expected,
                                       rtol=1e-10, atol=0)

    def test_overflow_raises(self):
        # the exact update's (0, 0) entry is 1 - 2 + 1e600: it overflows
        pair = CurvaturePair([1e300, 0.0], [1e-300, 0.0])
        sc = compute_penalty_scalars(pair, math.inf)
        with pytest.raises(NonFiniteError):
            with np.errstate(all="ignore"):
                spbfgs_update(np.eye(2), pair, sc)

    def test_finite_update_of_huge_h_is_returned_exactly(self):
        # s (Hy)^T + (Hy) s^T overflows here, but the update itself does not
        h = np.full((2, 2), 1e308)
        pair = CurvaturePair([1.0, 0.0], [1.0, 0.0])
        sc = compute_penalty_scalars(pair, math.inf)
        out = spbfgs_update(h, pair, sc)
        assert out.tobytes() == np.array([[0.0, 0.0], [0.0, 1e308]]).tobytes()
        assert bfgs_update(h, pair).tobytes() == out.tobytes()


class TestInPlaceKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 32, 256])
    @pytest.mark.parametrize("beta", [1e-300, 1.0, 1e300, math.inf])
    def test_bitwise_equal_to_reference(self, n, beta):
        rng = np.random.default_rng(n)
        h = random_spd(rng, n)
        pair = random_pair(rng, n, sign=1)
        sc = compute_penalty_scalars(pair, beta)
        expected = reference_update(h, pair.s, pair.y, sc.gamma, sc.omega).tobytes()
        h_before = h.tobytes()
        assert spbfgs_update(h, pair, sc).tobytes() == expected
        assert h.tobytes() == h_before  # the copying path leaves H alone
        if math.isinf(beta):
            assert bfgs_update(h, pair).tobytes() == expected
        out = spbfgs_update(h, pair, sc, scratch_pair(n))
        assert out is h
        assert h.tobytes() == expected

    @pytest.mark.parametrize("n", [1, 2, 5, 32, 256])
    @pytest.mark.parametrize("beta", [1e-300, 1.0, 1e300, math.inf])
    def test_close_to_expanded_form(self, n, beta):
        rng = np.random.default_rng(n)
        h = random_spd(rng, n)
        pair = random_pair(rng, n, sign=1)
        sc = compute_penalty_scalars(pair, beta)
        args = (h, pair.s, pair.y, sc.gamma, sc.omega)
        gap = np.abs(spbfgs_update(h, pair, sc) - expanded_update(*args))
        assert (gap <= expanded_bound(*args)).all()

    def test_chained_in_place_updates_match_copies(self):
        # reused scratch carries nothing from one update into the next
        rng = np.random.default_rng(21)
        n = 32
        h = random_spd(rng, n)
        copied = chained_updates(rng, h, scratch_pair(n))
        assert h.tobytes() == copied.tobytes()

    def test_chained_in_place_updates_at_large_n(self):
        # still exactly symmetric after every update, with no symmetrizing
        # pass, and bitwise the copying path
        rng = np.random.default_rng(24)
        n = 256
        h = random_spd(rng, n)
        copied = chained_updates(rng, h, scratch_pair(n))
        assert np.array_equal(h, h.T)
        assert h.tobytes() == copied.tobytes()

    @pytest.mark.parametrize("n", [2, 256])
    def test_sign_of_zero(self, n):
        """Zeros in s and negative entries in u make -0 products.

        At (0, 1) and (1, 0) both products s_i u_j and u_i s_j are -0, and
        H holds -0 there.  einsum writes each product as +0, so the entry is
        -0 + (+0 + +0) = +0, as in reference_update.  A broadcast np.multiply
        keeps both products -0 and the entry -0.  That is the only kind of
        entry the two primitives can differ at: a sum of two products
        differs between them only when both are -0, and adding a -0 or +0
        to an entry of H changes it only when that entry is -0.  H starting
        from the identity never holds a -0 (x + y rounds to -0 only when x
        and y are both -0), so the driver's results do not depend on which
        primitive forms the products.
        """
        rng = np.random.default_rng(25)
        h = np.diag(rng.uniform(1.0, 2.0, n))
        h[0, 1] = h[1, 0] = -0.0
        s = rng.uniform(0.5, 1.5, n)
        s[:2] = 0.0
        pair = CurvaturePair(s, rng.uniform(0.5, 1.5, n))
        sc = compute_penalty_scalars(pair, 1.0)
        hy, coef = kernel_terms(h, pair.s, pair.y, sc.gamma, sc.omega)
        assert ((0.5 * coef) * pair.s - sc.omega * hy)[:2].max() < 0.0  # u_0, u_1 < 0
        out = spbfgs_update(h.copy(), pair, sc, scratch_pair(n))
        expected = reference_update(h, pair.s, pair.y, sc.gamma, sc.omega)
        assert out.tobytes() == expected.tobytes()
        assert not np.signbit(out[0, 1]) and not np.signbit(out[1, 0])

    def test_beta_zero_in_place_leaves_h(self):
        h = random_spd(np.random.default_rng(22), 3)
        before = h.tobytes()
        pair = CurvaturePair([1.0, 0.0, 0.0], [-1.0, 2.0, 0.5])
        out = spbfgs_update(h, pair, compute_penalty_scalars(pair, 0.0), scratch_pair(3))
        assert out is h and h.tobytes() == before


class TestSymmetryPrecondition:
    @staticmethod
    def nearly_symmetric():
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        h[1, 0] = np.nextafter(0.5, 1.0)
        return h

    def test_copying_spbfgs_update_rejects_asymmetric_h(self):
        pair = CurvaturePair([1.0, 0.0], [1.0, 1.0])
        for beta in (0.0, 1.0, math.inf):
            with pytest.raises(DegenerateInputError):
                spbfgs_update(self.nearly_symmetric(), pair, compute_penalty_scalars(pair, beta))

    def test_bfgs_update_rejects_asymmetric_h(self):
        with pytest.raises(DegenerateInputError):
            bfgs_update(self.nearly_symmetric(), CurvaturePair([1.0, 0.0], [1.0, 1.0]))


class TestFinitePrecondition:
    PAIR = CurvaturePair([1.0, 0.0], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("update", [
        lambda h, pair: spbfgs_update(h, pair, compute_penalty_scalars(pair, 0.0)),
        lambda h, pair: spbfgs_update(h, pair, compute_penalty_scalars(pair, 1.0)),
        bfgs_update,
    ], ids=["beta=0", "beta=1", "bfgs"])
    def test_copying_updates_reject_nonfinite_h(self, update, bad):
        # the input is blamed, not the update; at beta = 0 nothing else looks at H
        with pytest.raises(NonFiniteError, match="^H must be finite$"):
            update(np.array([[bad, 0.0], [0.0, 1.0]]), self.PAIR)


class TestInverseUpdate:
    def test_inverse_pair(self):
        rng = np.random.default_rng(18)
        for _ in range(25):
            h = random_spd(rng, 4)
            b = np.linalg.inv(h)
            pair = random_pair(rng, 4, sign=1)
            beta = float(rng.uniform(0.1, 100.0))
            sc = compute_penalty_scalars(pair, beta)
            hplus = spbfgs_update(h, pair, sc)
            bplus = spbfgs_inverse_update(b, pair, sc)
            np.testing.assert_allclose(hplus @ bplus, np.eye(4), rtol=0, atol=1e-7)

    def test_beta_inf_inverse_consistency(self):
        rng = np.random.default_rng(19)
        h = random_spd(rng, 3)
        pair = random_pair(rng, 3, sign=1)
        sc = compute_penalty_scalars(pair, math.inf)
        bplus = spbfgs_inverse_update(np.linalg.inv(h), pair, sc)
        np.testing.assert_allclose(bplus @ spbfgs_update(h, pair, sc), np.eye(3),
                                   rtol=0, atol=1e-8)

    def test_beta_zero_copy(self):
        b = random_spd(np.random.default_rng(20), 3)
        pair = CurvaturePair([1.0, 0, 0], [1.0, 0, 0])
        out = spbfgs_inverse_update(b, pair, PenaltyScalars(0.0, 0.0, 0.0))
        assert np.array_equal(out, b)
        assert out is not b

    def test_singular_b_rejected(self):
        pair = CurvaturePair([1.0, 0.0], [1.0, 0.0])
        sc = compute_penalty_scalars(pair, 1.0)
        with pytest.raises(DegenerateInputError):
            spbfgs_inverse_update(np.zeros((2, 2)), pair, sc)


class TestMatrixHelpers:
    def test_pd_check_identity(self):
        assert is_positive_definite(np.eye(3))
        assert not is_positive_definite(-np.eye(3))

    def test_pd_check_semidefinite(self):
        v = np.array([1.0, 2.0])
        assert not is_positive_definite(np.outer(v, v))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_pd_check_is_relative_to_the_scale(self, scale):
        # the pivot tolerance scales with the largest diagonal entry, so a
        # tiny or huge matrix is judged as the same matrix at order one
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert is_positive_definite(scale * (a @ a.T + 0.5 * np.eye(4)))
        assert not is_positive_definite(-scale * np.eye(4))
        v = np.array([1.0, 2.0])
        assert not is_positive_definite(scale * np.outer(v, v))

    def test_pd_check_needs_a_positive_finite_diagonal(self):
        assert not is_positive_definite(np.zeros((2, 2)))
        assert not is_positive_definite(np.diag([math.inf, 1.0]))
        assert is_positive_definite(np.zeros((0, 0)))

    def test_pd_check_nonfinite(self):
        a = np.eye(2)
        a[1, 1] = math.nan
        assert not is_positive_definite(a)

    def test_pd_check_indefinite(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        assert not is_positive_definite(a)

