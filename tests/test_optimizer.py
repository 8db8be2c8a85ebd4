"""Driver loop: convergence, method equivalence, budgets, failure paths."""

import math

import numpy as np
import pytest

from spbfgs.linesearch import LineSearchConfig
from spbfgs.noise import NoiseSpec
from spbfgs.optimizer import (
    RunConfig,
    fixed_step_descent,
    minimize,
    minimize_baseline_bfgs,
)
from spbfgs.policy import PenaltyPolicy
from spbfgs.problems import Problem, get_problem


def quad2():
    t = np.diag([1.0, 4.0])

    def f(x):
        return 0.5 * float(x @ (t @ x))

    def grad(x):
        return t @ x

    return Problem("quad2", 2, f, grad, np.array([3.0, -2.0]), 0.0,
                   strong_convexity=(1.0, 4.0))


class TestNoiselessConvergence:
    def test_quadratic_reaches_machine_floor(self):
        trace = minimize(quad2(), RunConfig(budget_iters=30))
        assert trace.phi_best < 1e-16

    def test_rosenbrock_within_budget(self):
        prob = get_problem("rosenbrock")
        trace = minimize(prob, RunConfig(budget_evals=2000))
        assert trace.phi_best < 1e-8

    def test_sp_policy_matches_bfgs_without_noise(self):
        # with noiseless measurements the linear policy still converges
        prob = get_problem("rosenbrock")
        pol = PenaltyPolicy(kind="linear", step_scale=1e8, offset=1e-10)
        trace = minimize(prob, RunConfig(policy=pol, budget_evals=2000))
        assert trace.phi_best < 1e-8


class TestMethodEquivalence:
    def test_baseline_identical_to_infinite_penalty(self):
        # same seed, same problem: constant-infinity spbfgs and baseline
        # bfgs with the nonpositive skip rule must produce the same floats
        prob = get_problem("rosenbrock")
        noise = NoiseSpec(eps_f=1e-3, eps_g=1e-3)
        cfg = RunConfig(policy=PenaltyPolicy(kind="constant-infinity"),
                        noise=noise, budget_evals=500, seed=99)
        a = minimize(prob, cfg)
        b = minimize_baseline_bfgs(prob, cfg)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.x, rb.x)
            assert ra.f_measured == rb.f_measured
            assert ra.alpha == rb.alpha
            assert ra.sty == rb.sty
            assert ra.action == rb.action
        assert a.phi_best == b.phi_best
        assert a.n_curvature_failures == b.n_curvature_failures


class TestBudgets:
    def test_iteration_budget_exact(self):
        trace = minimize(quad2(), RunConfig(budget_iters=7))
        assert trace.n_iterations == 7
        assert trace.final_record.k == 7  # final state record, no step taken
        assert trace.final_record.alpha is None

    def test_evaluation_budget_never_exceeded(self):
        prob = get_problem("rosenbrock")
        for budget in (1, 2, 10, 137):
            trace = minimize(prob, RunConfig(budget_evals=budget,
                                             noise=NoiseSpec(1e-2, 1e-2), seed=5))
            assert trace.n_f_evals <= budget

    def test_zero_iterations_records_start(self):
        trace = minimize(quad2(), RunConfig(budget_iters=0))
        assert trace.n_iterations == 0
        assert len(trace.records) == 1
        assert trace.records[0].phi == quad2().f(quad2().x0)

    def test_budget_of_one_eval(self):
        # one paid measurement: the start point is recorded, no step possible
        trace = minimize(quad2(), RunConfig(budget_evals=1))
        assert trace.n_f_evals == 1
        assert trace.n_iterations == 0
        assert trace.phi_best == quad2().f(quad2().x0)


class TestStepAccounting:
    def test_zero_step_path(self):
        # an ascent direction with a deceptive slope exhausts the search;
        # iteration still counts, h stays put, no policy consultation
        prob = Problem("ascent", 1, lambda x: float(x[0]), lambda x: -np.ones(1),
                       np.zeros(1), 0.0)
        ls = LineSearchConfig(max_backtracks=4)
        trace = minimize(prob, RunConfig(linesearch=ls, budget_iters=3))
        assert trace.n_zero_steps == 3
        assert trace.n_iterations == 3
        for rec in trace.records[:-1]:
            assert rec.alpha == 0.0
            assert rec.action == "skip"
            assert rec.sty == 0.0
            assert not rec.curvature_failed

    def test_nonfinite_abort_keeps_partial_trace(self):
        # a cliff: value finite at x0 but gradient explodes once x leaves it
        def f(x):
            return float(x[0] ** 2)

        def grad(x):
            if x[0] < 0.9:
                return np.array([math.nan])
            return np.array([2.0 * x[0]])

        prob = Problem("cliff", 1, f, grad, np.array([1.0]), 0.0)
        trace = minimize(prob, RunConfig(budget_iters=50))
        assert trace.failed
        assert "non-finite" in trace.failure
        assert len(trace.records) >= 1
        assert not trace.records[-1].curvature_failed

    def test_curvature_failure_counted_for_baseline(self):
        prob = get_problem("quadratic_ill")
        cfg = RunConfig(policy=PenaltyPolicy(kind="constant-infinity"),
                        linesearch=LineSearchConfig(max_backtracks=75),
                        noise=NoiseSpec(0.0, 1.0), budget_iters=100, seed=11)
        trace = minimize_baseline_bfgs(prob, cfg)
        skips = sum(1 for r in trace.records if r.curvature_failed)
        assert trace.n_curvature_failures == skips
        assert skips > 0  # gradient noise must trip the classic condition

    @pytest.mark.parametrize("policy", [
        PenaltyPolicy(kind="constant-infinity", skip_rule="cosine", skip_zeta=1e-3),
        PenaltyPolicy(kind="constant-infinity", skip_rule="step-norm", skip_eps=1e-3),
    ])
    def test_baseline_survives_zero_sty_at_the_minimum(self, policy):
        # noiseless runs converge until s.y = 0 exactly; the cosine rule
        # used to admit that pair and the BFGS update then raised
        cfg = RunConfig(policy=policy, budget_evals=300)
        trace = minimize_baseline_bfgs(get_problem("rosenbrock"), cfg)
        assert not trace.failed
        assert trace.phi_best == 0.0

    def test_hessian_diagnostics_recorded(self):
        cfg = RunConfig(budget_iters=5, record_hessian_diagnostics=True)
        trace = minimize(quad2(), cfg)
        stepped = [r for r in trace.records if r.alpha is not None]
        assert all(r.pd_ok for r in stepped)
        assert all(r.trace_h is not None for r in stepped)


class TestRunConfig:
    def test_needs_some_budget(self):
        with pytest.raises(ValueError):
            RunConfig()

    def test_rejects_zero_eval_budget(self):
        with pytest.raises(ValueError):
            RunConfig(budget_evals=0)

    def test_h0_shape_checked(self):
        with pytest.raises(ValueError):
            minimize(quad2(), RunConfig(budget_iters=1, h0=np.eye(3)))

    def test_h0_identity_default_vs_explicit(self):
        a = minimize(quad2(), RunConfig(budget_iters=5, seed=3))
        b = minimize(quad2(), RunConfig(budget_iters=5, seed=3, h0=np.eye(2)))
        np.testing.assert_array_equal(a.final_record.x, b.final_record.x)


class TestFixedStepDescent:
    def test_shapes(self):
        xs, phis = fixed_step_descent(quad2(), NoiseSpec(), 0.1, 25, seed=0)
        assert xs.shape == (26, 2)
        assert phis.shape == (26,)

    def test_noiseless_matches_hand_iteration(self):
        prob = quad2()
        xs, _ = fixed_step_descent(prob, NoiseSpec(), 0.1, 10, seed=0)
        x = prob.x0.copy()
        for k in range(10):
            np.testing.assert_array_equal(xs[k], x)
            x = x - 0.1 * prob.grad(x)
        np.testing.assert_array_equal(xs[10], x)

    def test_descends_on_quadratic(self):
        # slowest mode contracts by 0.9 per step: 120 steps reach ~1e-11
        _, phis = fixed_step_descent(quad2(), NoiseSpec(), 0.1, 120, seed=0)
        assert phis[-1] < 1e-6 * phis[0]

    def test_invalid_alpha(self):
        for alpha in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError):
                fixed_step_descent(quad2(), NoiseSpec(), alpha, 5, seed=0)

    def test_uses_no_function_evaluations(self):
        prob = quad2()
        calls = {"f": 0}
        orig_f = prob.f

        def counting_f(x):
            calls["f"] += 1
            return orig_f(x)

        import dataclasses
        counted = dataclasses.replace(prob, f=counting_f)
        fixed_step_descent(counted, NoiseSpec(), 0.1, 5, seed=0)
        # only the trace's own true-value bookkeeping reads f, never the oracle
        assert calls["f"] == 6
