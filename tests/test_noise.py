"""Noise model: distributions, draw accounting, budget, best-value tracking."""

import math

import numpy as np
import pytest

from spbfgs.errors import EvaluationBudgetError
from spbfgs.noise import NoiseSpec, NoisyOracle, sample_ball
from spbfgs.problems import get_problem


class TestNoiseSpec:
    def test_defaults_noiseless(self):
        spec = NoiseSpec()
        assert spec.noiseless

    @pytest.mark.parametrize("kwargs", [
        {"eps_f": -1.0},
        {"eps_g": -0.5},
        {"eps_f": math.inf},
        {"eps_g": math.nan},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            NoiseSpec(**kwargs)


class TestSampleBall:
    def test_zero_radius_draws_nothing(self):
        rng = np.random.default_rng(40)
        state = rng.bit_generator.state
        out = sample_ball(rng, 5, 0.0)
        assert np.array_equal(out, np.zeros(5))
        assert rng.bit_generator.state == state

    def test_stays_inside_radius(self):
        rng = np.random.default_rng(41)
        for _ in range(500):
            assert np.linalg.norm(sample_ball(rng, 4, 2.5)) <= 2.5 + 1e-12

    def test_mean_norm_matches_uniform_ball(self):
        # E||u|| for the uniform n-ball of radius R is R * n / (n + 1)
        rng = np.random.default_rng(42)
        n, radius, draws = 3, 2.0, 20000
        norms = [np.linalg.norm(sample_ball(rng, n, radius)) for _ in range(draws)]
        expected = radius * n / (n + 1.0)
        assert abs(np.mean(norms) - expected) < 0.01 * radius

    def test_direction_is_isotropic(self):
        rng = np.random.default_rng(43)
        total = np.zeros(3)
        draws = 20000
        for _ in range(draws):
            total += sample_ball(rng, 3, 1.0)
        assert np.linalg.norm(total / draws) < 0.02


class TestNoisyOracle:
    def test_noiseless_passthrough_consumes_no_draws(self):
        prob = get_problem("rosenbrock")
        oracle = NoisyOracle(prob, NoiseSpec(), seed=0)
        state = oracle.rng.bit_generator.state
        x = prob.x0
        assert oracle.f(x) == prob.f(x)
        np.testing.assert_array_equal(oracle.grad(x), prob.grad(x))
        assert oracle.rng.bit_generator.state == state

    def test_function_noise_bounded_uniform(self):
        prob = get_problem("rosenbrock")
        eps = 0.5
        oracle = NoisyOracle(prob, NoiseSpec(eps_f=eps), seed=1)
        x = prob.x0
        truth = prob.f(x)
        errs = np.array([oracle.f(x) - truth for _ in range(5000)])
        assert np.all(np.abs(errs) <= eps)
        # uniform on [-eps, eps]: mean 0, variance eps^2 / 3
        assert abs(errs.mean()) < 0.02
        assert abs(errs.var() - eps ** 2 / 3.0) < 0.01

    def test_gradient_noise_bounded_ball(self):
        prob = get_problem("rosenbrock")
        eps = 0.25
        oracle = NoisyOracle(prob, NoiseSpec(eps_g=eps), seed=2)
        x = prob.x0
        truth = prob.grad(x)
        for _ in range(500):
            assert np.linalg.norm(oracle.grad(x) - truth) <= eps + 1e-12

    def test_budget_raised_before_evaluating(self):
        prob = get_problem("rosenbrock")
        oracle = NoisyOracle(prob, NoiseSpec(), seed=0, budget_evals=2)
        oracle.f(prob.x0)
        oracle.f(prob.x0)
        with pytest.raises(EvaluationBudgetError):
            oracle.f(prob.x0)
        assert oracle.n_f_evals == 2

    def test_gradients_are_free(self):
        prob = get_problem("rosenbrock")
        oracle = NoisyOracle(prob, NoiseSpec(), seed=0, budget_evals=1)
        for _ in range(10):
            oracle.grad(prob.x0)
        assert oracle.n_g_evals == 10
        oracle.f(prob.x0)  # budget still intact for the single paid call

    def test_phi_best_tracks_true_values(self):
        # the best-seen channel must record the true value, not the noisy one
        prob = get_problem("rosenbrock")
        oracle = NoisyOracle(prob, NoiseSpec(eps_f=100.0), seed=3)
        pts = [prob.x0, np.array([1.0, 1.0]), np.array([0.0, 0.0])]
        for p in pts:
            oracle.f(p)
        assert oracle.phi_best == prob.f(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(oracle.x_best, [1.0, 1.0])

    def test_seed_reproducibility(self):
        prob = get_problem("rosenbrock")
        spec = NoiseSpec(eps_f=1.0, eps_g=1.0)
        a = NoisyOracle(prob, spec, seed=1234)
        b = NoisyOracle(prob, spec, seed=1234)
        for _ in range(10):
            assert a.f(prob.x0) == b.f(prob.x0)
            np.testing.assert_array_equal(a.grad(prob.x0), b.grad(prob.x0))

    def test_seed_sequence_accepted(self):
        prob = get_problem("rosenbrock")
        ss = np.random.SeedSequence([1, 2, 3, 4])
        a = NoisyOracle(prob, NoiseSpec(eps_f=1.0), ss)
        b = NoisyOracle(prob, NoiseSpec(eps_f=1.0), np.random.SeedSequence([1, 2, 3, 4]))
        assert a.f(prob.x0) == b.f(prob.x0)

    def test_generator_used_as_is(self):
        prob = get_problem("rosenbrock")
        rng = np.random.default_rng(5)
        oracle = NoisyOracle(prob, NoiseSpec(eps_f=1.0), rng)
        assert oracle.rng is rng
        expected = float(prob.f(prob.x0)) + (-1.0 + 2.0 * np.random.default_rng(5).random())
        assert oracle.f(prob.x0) == expected

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            NoisyOracle(get_problem("rosenbrock"), NoiseSpec(), 0, budget_evals=-1)
