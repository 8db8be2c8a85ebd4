"""Trace bounds, noise-region threshold, decrease envelope, conditioning."""

import math

import numpy as np
import pytest

from spbfgs.diagnostics import (
    in_noise_region,
    noise_region_threshold,
    qlinear_envelope_holds,
    scaled_condition_number,
    trace_bound_b,
    trace_bound_h,
)
from spbfgs.errors import CurvatureViolationError, DegenerateInputError, MissingMetadataError
from spbfgs.problems import Problem, get_problem
from spbfgs.updates import (
    CurvaturePair,
    PenaltyScalars,
    compute_penalty_scalars,
    spbfgs_inverse_update,
    spbfgs_update,
)


def random_spd_log_spectrum(rng, n, spread=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.exp(rng.uniform(-spread, spread, size=n))
    m = (q * vals) @ q.T
    # the update takes only an exactly symmetric H; the product is off by ulps
    return 0.5 * (m + m.T)


def toy_convex(m=1.0, phi_star=0.0):
    def f(x):
        return phi_star + 0.5 * m * float(x @ x)

    def grad(x):
        return m * np.asarray(x, dtype=float)

    return Problem("toy", 2, f, grad, np.array([1.0, 1.0]), phi_star,
                   strong_convexity=(m, m))


class TestNoiseRegionThreshold:
    def test_ill_conditioned_quadratic_value(self):
        # m = 1e-2, psi = big_psi = 1, eps_g = 1: threshold (1/2m) = 50
        prob = get_problem("quadratic_ill")
        assert noise_region_threshold(prob, 1.0, 1.0, 1.0) == 50.0

    def test_hand_formula(self):
        # m = 2, psi = 0.5, big_psi = 2, eps_g = 3: 1/(2*2) * (2*3/0.5)^2 = 36
        prob = toy_convex(m=2.0, phi_star=1.0)
        assert noise_region_threshold(prob, 0.5, 2.0, 3.0) == pytest.approx(37.0)

    def test_zero_noise_degenerates_to_phi_star(self):
        prob = toy_convex(phi_star=4.0)
        assert noise_region_threshold(prob, 1.0, 1.0, 0.0) == 4.0

    def test_requires_convexity_metadata(self):
        with pytest.raises(MissingMetadataError):
            noise_region_threshold(get_problem("rosenbrock"), 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("psi,big_psi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0)])
    def test_rejects_bad_eigenvalue_bounds(self, psi, big_psi):
        with pytest.raises(ValueError):
            noise_region_threshold(toy_convex(), psi, big_psi, 1.0)

    def test_membership(self):
        prob = get_problem("quadratic_ill")
        assert in_noise_region(prob, np.zeros(4), 1.0, 1.0, 1.0)
        assert not in_noise_region(prob, prob.x0, 1.0, 1.0, 1.0)


class TestQlinearEnvelope:
    def test_exact_geometric_decay_passes(self):
        # factor = 1 - alpha with m = psi = 1 and no noise (C = 0)
        prob = toy_convex()
        alpha = 0.25
        phis = [(1.0 - alpha) ** k for k in range(20)]
        ok, violations = qlinear_envelope_holds(phis, alpha, prob, 1.0, 1.0, 0.0)
        assert ok
        assert violations == []

    def test_flags_the_offending_step(self):
        # factor 0.5: the first step decays too slowly, the second is fine
        prob = toy_convex()
        ok, violations = qlinear_envelope_holds([8.0, 4.1, 2.0], 0.5, prob, 1.0, 1.0, 0.0)
        assert not ok
        assert violations == [0]

    def test_steps_inside_the_region_are_exempt(self):
        # C = 50 for this problem; a jump from below the threshold is ignored
        prob = get_problem("quadratic_ill")
        phis = [49.0, 1000.0, 50.0]
        ok, violations = qlinear_envelope_holds(phis, 1e-4, prob, 1.0, 1.0, 1.0)
        assert ok
        assert violations == []

    def test_boundary_start_is_exempt(self):
        prob = get_problem("quadratic_ill")
        ok, _ = qlinear_envelope_holds([50.0, 1e9], 1e-4, prob, 1.0, 1.0, 1.0)
        assert ok

    def test_requires_convexity_metadata(self):
        with pytest.raises(MissingMetadataError):
            qlinear_envelope_holds([1.0, 0.5], 0.1, get_problem("beale"), 1.0, 1.0, 0.0)


class TestTraceBounds:
    def test_h_bound_holds_after_update(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(2, 7)
            h = random_spd_log_spectrum(rng, n)
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            if float(s @ y) <= 0.0:
                y = y - 2.0 * (float(s @ y) / float(s @ s)) * s
            pair = CurvaturePair(s, y)
            beta = float(np.exp(rng.uniform(-2, 6)))
            scalars = compute_penalty_scalars(pair, beta)
            h_new = spbfgs_update(h, pair, scalars)
            bound = trace_bound_h(h, pair, scalars)
            assert np.trace(h_new) <= bound * (1.0 + 1e-10)

    def test_h_bound_holds_for_classic_update(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = random_spd_log_spectrum(rng, 4)
            s = rng.standard_normal(4)
            y = rng.standard_normal(4) + s  # usually positive curvature
            if float(s @ y) <= 0.0:
                continue
            pair = CurvaturePair(s, y)
            scalars = compute_penalty_scalars(pair, math.inf)
            h_new = spbfgs_update(h, pair, scalars)
            assert np.trace(h_new) <= trace_bound_h(h, pair, scalars) * (1.0 + 1e-10)

    def test_b_bound_holds_after_inverse_update(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = rng.integers(2, 7)
            b = random_spd_log_spectrum(rng, n)
            s = rng.standard_normal(n)
            y = rng.standard_normal(n)
            pair = CurvaturePair(s, y)
            beta = float(np.exp(rng.uniform(-2, 4)))
            scalars = compute_penalty_scalars(pair, beta)
            if scalars.gamma < 0.0 or scalars.omega < 0.0:
                continue
            b_new = spbfgs_inverse_update(b, pair, scalars)
            bound = trace_bound_b(b, pair, scalars)
            assert np.trace(b_new) <= bound * (1.0 + 1e-10)

    def test_b_bound_infinite_for_classic_update(self):
        pair = CurvaturePair(np.array([1.0, 0.0]), np.array([2.0, 1.0]))
        scalars = compute_penalty_scalars(pair, math.inf)
        assert trace_bound_b(np.eye(2), pair, scalars) == math.inf

    def test_rejects_negative_scalars(self):
        pair = CurvaturePair(np.array([1.0]), np.array([-2.0]))
        bad = PenaltyScalars(beta=0.6, gamma=-3.0, omega=0.75)
        with pytest.raises(CurvatureViolationError):
            trace_bound_h(np.eye(1), pair, bad)
        with pytest.raises(CurvatureViolationError):
            trace_bound_b(np.eye(1), pair, bad)


class TestScaledConditionNumber:
    def test_perfect_preconditioner(self):
        a = np.diag([2.0, 8.0])
        h = np.diag([0.5, 0.125])
        assert scaled_condition_number(h, a) == pytest.approx(1.0, rel=1e-12)

    def test_identity_gives_hessian_condition(self):
        a = np.diag([1.0, 4.0])
        assert scaled_condition_number(np.eye(2), a) == pytest.approx(4.0, rel=1e-12)

    def test_matches_eigenvalues_of_the_product(self):
        # L^T A L is similar to H A, so the spectra agree
        rng = np.random.default_rng(3)
        a = random_spd_log_spectrum(rng, 5)
        h = random_spd_log_spectrum(rng, 5)
        vals = np.sort(np.linalg.eigvals(h @ a).real)
        scaled = scaled_condition_number(h, a)
        assert scaled == pytest.approx(vals[-1] / vals[0], rel=1e-8)

    def test_rejects_indefinite_h(self):
        with pytest.raises(DegenerateInputError):
            scaled_condition_number(-np.eye(2), np.eye(2))

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(DegenerateInputError):
            scaled_condition_number(np.eye(2), np.diag([1.0, -1.0]))
