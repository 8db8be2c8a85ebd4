"""The numerical matrix-nearness oracle against the closed-form update."""

import math

import numpy as np
import pytest

from spbfgs.errors import BadDimensionError, DegenerateInputError
from spbfgs.oracle import make_weight_matrix, oracle_penalized_qp
from spbfgs.updates import CurvaturePair, compute_penalty_scalars, spbfgs_update
from spbfgs.verify import random_pair, random_spd


class TestWeightMatrix:
    def test_maps_s_to_y(self):
        rng = np.random.default_rng(30)
        for c in (1.0, 3.7, 0.2):
            pair = random_pair(rng, 5, sign=1)
            w = make_weight_matrix(pair, c)
            np.testing.assert_allclose(w @ pair.s, pair.y, rtol=0,
                                       atol=1e-12 * (1.0 + np.abs(pair.y).max()))

    def test_positive_definite(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            pair = random_pair(rng, 4, sign=1)
            w = make_weight_matrix(pair, 1.3)
            assert np.linalg.eigvalsh(w)[0] > 0.0

    def test_rejects_nonpositive_sty(self):
        with pytest.raises(DegenerateInputError):
            make_weight_matrix(CurvaturePair([1.0, 0.0], [-1.0, 0.0]))

    def test_rejects_zero_s(self):
        with pytest.raises(DegenerateInputError):
            make_weight_matrix(CurvaturePair([0.0, 0.0], [1.0, 0.0]))

    def test_rejects_bad_c(self):
        pair = CurvaturePair([1.0], [1.0])
        for c in (0.0, -1.0, math.inf):
            with pytest.raises(DegenerateInputError):
                make_weight_matrix(pair, c)


class TestPenalizedQpOracle:
    def test_beta_zero_returns_h(self):
        rng = np.random.default_rng(32)
        h = random_spd(rng, 3)
        pair = random_pair(rng, 3, sign=1)
        w = make_weight_matrix(pair)
        out = oracle_penalized_qp(h, pair, 0.0, w)
        np.testing.assert_allclose(out, h, rtol=0, atol=1e-10 * np.abs(h).max())

    def test_result_symmetric(self):
        rng = np.random.default_rng(33)
        h = random_spd(rng, 4)
        pair = random_pair(rng, 4, sign=1)
        out = oracle_penalized_qp(h, pair, 2.0, make_weight_matrix(pair))
        np.testing.assert_array_equal(out, out.T)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(34)
        for beta in (0.1, 1.0, 10.0, 1000.0):
            h = random_spd(rng, 4)
            pair = random_pair(rng, 4, sign=1)
            closed = spbfgs_update(h, pair, compute_penalty_scalars(pair, beta))
            for c in (1.0, 3.7):
                numeric = oracle_penalized_qp(h, pair, beta, make_weight_matrix(pair, c))
                np.testing.assert_allclose(numeric, closed, rtol=0,
                                           atol=1e-8 * max(1.0, np.abs(closed).max()))

    def test_weight_independence(self):
        # the minimizer must not depend on which admissible W is used
        rng = np.random.default_rng(35)
        h = random_spd(rng, 3)
        pair = random_pair(rng, 3, sign=1)
        a = oracle_penalized_qp(h, pair, 5.0, make_weight_matrix(pair, 1.0))
        b = oracle_penalized_qp(h, pair, 5.0, make_weight_matrix(pair, 3.7))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-8 * max(1.0, np.abs(a).max()))

    def test_infinite_beta_rejected(self):
        pair = CurvaturePair([1.0], [1.0])
        with pytest.raises(ValueError):
            oracle_penalized_qp(np.eye(1), pair, math.inf, make_weight_matrix(pair))

    def test_wrong_weight_rejected(self):
        # a W violating W s = y breaks the premise; must be refused loudly
        pair = CurvaturePair([1.0, 0.0], [1.0, 1.0])
        with pytest.raises(DegenerateInputError):
            oracle_penalized_qp(np.eye(2), pair, 1.0, np.eye(2))

    def test_shape_mismatch(self):
        pair = CurvaturePair([1.0, 0.0], [1.0, 0.0])
        with pytest.raises(BadDimensionError):
            oracle_penalized_qp(np.eye(3), pair, 1.0, np.eye(2))

    def test_secant_dominates_at_large_beta(self):
        # as beta grows the minimizer must approach satisfying Z y = s
        rng = np.random.default_rng(36)
        h = random_spd(rng, 3)
        pair = random_pair(rng, 3, sign=1)
        w = make_weight_matrix(pair)
        residuals = []
        for beta in (1.0, 100.0, 10000.0):
            z = oracle_penalized_qp(h, pair, beta, w)
            residuals.append(float(np.linalg.norm(z @ pair.y - pair.s)))
        assert residuals[2] < residuals[1] < residuals[0]
