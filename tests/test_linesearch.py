"""Backtracking line search with the noise-relaxed sufficient decrease test."""

import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spbfgs.errors import EvaluationBudgetError
from spbfgs.linesearch import LineSearchConfig, armijo_ok, backtrack
from spbfgs.noise import NoiseSpec, NoisyOracle
from spbfgs.problems import get_problem


class TestArmijo:
    def test_plain_sufficient_decrease(self):
        cfg = LineSearchConfig(c1=0.5)
        # threshold is f_ref + c1 alpha g.p = 10 - 0.5
        assert armijo_ok(9.5, 10.0, 1.0, -1.0, cfg)
        assert not armijo_ok(9.6, 10.0, 1.0, -1.0, cfg)

    def test_noise_slack_is_two_epsilon(self):
        cfg = LineSearchConfig(c1=0.5, eps_armijo=0.25)
        # slack adds exactly 2 * 0.25
        assert armijo_ok(10.0, 10.0, 1.0, -1.0, cfg)
        assert not armijo_ok(10.01, 10.0, 1.0, -1.0, cfg)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -math.inf])
    def test_nonfinite_trial_rejected(self, bad):
        # eps_armijo = inf is the fixed-step setting, whose threshold is +inf
        for cfg in (LineSearchConfig(), LineSearchConfig(eps_armijo=math.inf)):
            assert not armijo_ok(bad, 10.0, 1.0, -1.0, cfg)


class TestSteps:
    @settings(derandomize=True, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1e308),
           st.floats(min_value=5e-324, max_value=1 - 2**-53),
           st.integers(min_value=1, max_value=2000))
    @example(5e-324, 0.5, 1)  # the first product underflows, at the last step allowed
    @example(1e-322, 0.01, 45)
    @example(1e308, 1 - 2**-53, 2000)
    def test_schedule(self, alpha0, tau, max_backtracks):
        steps = list(LineSearchConfig(alpha0=alpha0, tau=tau,
                                      max_backtracks=max_backtracks).steps())
        assert steps[0] == alpha0
        assert all(step > 0.0 for step in steps)
        # positive floats compare equal exactly when their bits are equal
        assert all(after == before * tau for before, after in zip(steps, steps[1:]))
        assert len(steps) <= max_backtracks
        # fewer steps only where the next one underflows to 0.0
        assert len(steps) == max_backtracks or steps[-1] * tau == 0.0

    def test_steps_are_formed_lazily(self):
        # 10**12 steps could not be held; a search forms only those it tries
        tau = 1 - 2**-53
        steps = LineSearchConfig(max_backtracks=10**12, tau=tau).steps()
        assert list(islice(steps, 3)) == [1.0, tau, tau * tau]


class TestBacktrack:
    def test_accepts_alpha0_on_easy_decrease(self):
        cfg = LineSearchConfig(alpha0=1.0)
        f = lambda z: float(z @ z)
        x = np.array([2.0, 0.0])
        p = np.array([-2.0, 0.0])
        alpha, x_new, f_new, trials = backtrack(f, x, p, f(x), float(2 * x @ p), cfg)
        assert alpha == 1.0
        assert x_new.tolist() == [0.0, 0.0]
        assert f_new == 0.0
        assert trials == 1

    def test_halves_until_acceptance(self):
        cfg = LineSearchConfig(alpha0=1.0, tau=0.5, c1=1e-4)
        f = lambda z: float(z @ z)
        x = np.array([1.0])
        p = np.array([-4.0])  # overshoots; alpha = 1, 0.5 fail, 0.25 lands at 0
        gdotp = float(2 * x @ p)
        alpha, x_new, f_new, trials = backtrack(f, x, p, f(x), gdotp, cfg)
        assert alpha == 0.25
        assert x_new.tolist() == [0.0]
        assert trials == 3
        assert f_new == 0.0

    def test_exhaustion_returns_zero_step(self):
        cfg = LineSearchConfig(max_backtracks=5)
        f = lambda z: float(z @ z)
        x = np.array([1.0])
        p = np.array([1.0])  # ascent direction with a lying slope
        alpha, x_new, f_new, trials = backtrack(f, x, p, f(x), -1.0, cfg)
        assert alpha == 0.0
        assert x_new is x
        assert f_new == f(x)
        assert trials == 5

    def test_max_backtracks_counts_trials(self):
        calls = []
        cfg = LineSearchConfig(max_backtracks=7)

        def f(z):
            calls.append(z.copy())
            return math.inf

        alpha, _, _, trials = backtrack(f, np.zeros(1), np.ones(1), 0.0, -1.0, cfg)
        assert alpha == 0.0
        assert trials == 7
        assert len(calls) == 7

    def test_underflowing_schedule_ends_the_search(self):
        # alpha0 * tau underflows to 0.0, so a second trial would measure x itself
        cfg = LineSearchConfig(alpha0=1e-322, tau=0.01, c1=0.5)
        x, p = np.array([1.0]), np.array([-1.0])
        for true_f, block in ((None, 1), (lambda pts: np.full(len(pts), 2.0), 5)):
            measured = []

            def eval_f(z, phi=None):
                measured.append(z.tolist())
                return 2.0  # rejected: above f_ref

            alpha, x_new, f_new, trials = backtrack(eval_f, x, p, 1.0, -1.0, cfg, true_f, block)
            assert (alpha, f_new, trials) == (0.0, 1.0, 1) and x_new is x
            assert measured == [[1.0]]

    def test_nonfinite_trials_skipped_over(self):
        # f overflows at the full step but is fine at half of it
        cfg = LineSearchConfig()

        def f(z):
            return math.inf if z[0] > 0.75 else float((z[0] - 0.6) ** 2)

        x = np.array([0.0])
        p = np.array([1.0])
        alpha, x_new, f_new, trials = backtrack(f, x, p, f(x), -1.2, cfg)
        assert alpha == 0.5
        assert x_new.tolist() == [0.5]
        assert f_new == pytest.approx(0.01)
        assert trials == 2

    def test_noisy_acceptance_uses_slack(self):
        # a flat function is acceptable only thanks to the 2 eps slack
        cfg = LineSearchConfig(eps_armijo=0.5)
        f = lambda z: 1.0
        alpha, _, f_new, trials = backtrack(f, np.zeros(1), np.ones(1), 1.0, -0.001, cfg)
        assert alpha == 1.0
        assert trials == 1


def oracle_state(oracle):
    return (oracle.n_f_evals, oracle.phi_best, oracle.x_best.tobytes(), oracle.last_phi,
            oracle.rng.bit_generator.state["state"]["state"])


class TestStackedBacktrack:
    """The block path consumes the same trials, in order, as the plain loop."""

    def search(self, block, direction_scale, budget=None, cfg=LineSearchConfig(eps_armijo=1e-4)):
        """(backtrack's result, its point as bytes, or "budget spent"; the oracle's state after)."""
        problem = get_problem("srosenbr", 8)
        oracle = NoisyOracle(problem, NoiseSpec(1e-4, 0.0), seed=3, budget_evals=budget)
        x = problem.x0
        p = -direction_scale * problem.grad(x)
        f_ref = oracle.f(x)
        try:
            alpha, x_new, f_new, trials = backtrack(oracle.f, x, p, f_ref,
                                                    float(problem.grad(x) @ p), cfg, problem.f,
                                                    block)
            result = (alpha, x_new.tobytes(), f_new, trials)
        except EvaluationBudgetError:
            result = "budget spent"
        return result, oracle_state(oracle)

    @pytest.mark.parametrize("block", [2, 3, 5, 8, 45, 60])
    @pytest.mark.parametrize("direction_scale", [1e-3, 1.0, 1e3])
    def test_same_result_as_one_at_a_time(self, block, direction_scale):
        # 1e3 takes many trials
        plain = self.search(1, direction_scale)
        assert self.search(block, direction_scale) == plain

    @pytest.mark.parametrize("block", [2, 3, 4, 10, 11])
    def test_same_exhaustion_as_one_at_a_time(self, block):
        # an ascent direction fails all 10 trials; 3 is a block that 10 does not divide.
        # alpha0 * tau underflows to 0.0 after one trial, which noise alone rejects here.
        x0 = get_problem("srosenbr", 8).x0.tobytes()
        for cfg, trials in ((LineSearchConfig(eps_armijo=1e-4, max_backtracks=10), 10),
                            (LineSearchConfig(alpha0=1e-322, tau=0.01, c1=0.5), 1)):
            plain = self.search(1, -1.0, cfg=cfg)
            assert plain[0] == (0.0, x0, plain[0][2], trials) and plain[1][0] == 1 + trials
            assert self.search(block, -1.0, cfg=cfg) == plain

    @pytest.mark.parametrize("block", [2, 4, 5, 7])
    def test_budget_error_mid_block_charges_consumed_trials(self, block):
        # 1 measurement at x, then 5 of the search's trials fit in the budget
        assert self.search(1, 1e3)[0][3] > 5
        plain = self.search(1, 1e3, budget=6)
        assert plain[0] == "budget spent" and plain[1][0] == 6
        assert self.search(block, 1e3, budget=6) == plain

    def test_rows_past_acceptance_never_measured(self):
        stacked_calls, measured = [], []

        def true_f(points):
            stacked_calls.append(points.shape)
            return np.array([0.5, math.nan, math.inf, -math.inf])

        def eval_f(z, phi):
            measured.append(phi)
            return phi

        x, p = np.zeros(3), np.ones(3)
        alpha, x_new, f_new, trials = backtrack(eval_f, x, p, 1.0, -1.0, LineSearchConfig(),
                                                true_f, 4)
        assert (alpha, x_new.tolist(), f_new, trials) == (1.0, [1.0] * 3, 0.5, 1)
        assert stacked_calls == [(4, 3)]
        assert measured == [0.5]

    def test_block_of_one_or_no_true_f_is_the_plain_loop(self):
        def true_f(points):
            raise AssertionError("the plain loop evaluates no stack")

        f = lambda z: float(z @ z)
        x, p = np.array([1.0]), np.array([-4.0])
        for result in (backtrack(f, x, p, 1.0, -8.0, LineSearchConfig(), true_f, 1),
                       backtrack(f, x, p, 1.0, -8.0, LineSearchConfig(), None, 5)):
            alpha, x_new, f_new, trials = result
            assert (alpha, x_new.tolist(), f_new, trials) == (0.25, [0.0], 0.0, 3)

    def test_trial_points_bitwise_those_of_the_plain_loop(self):
        seen = {1: [], 6: []}
        cfg = LineSearchConfig(tau=0.3, max_backtracks=20)
        rng = np.random.default_rng(5)
        x, p = rng.standard_normal(7), rng.standard_normal(7) * 1e3
        for block in seen:
            def eval_f(z, phi=None, block=block):
                seen[block].append(z.tobytes())
                return math.inf

            backtrack(eval_f, x, p, 0.0, -1.0, cfg, lambda pts: np.zeros(len(pts)), block)
        assert len(seen[1]) == 20 and seen[6] == seen[1]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha0": 0.0},
            {"alpha0": -1.0},
            {"tau": 0.0},
            {"tau": 1.0},
            {"c1": 0.0},
            {"c1": 1.0},
            {"eps_armijo": -0.1},
            {"max_backtracks": 0},
            {"alpha0": math.inf},
            {"alpha0": math.nan},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            LineSearchConfig(**kwargs)
