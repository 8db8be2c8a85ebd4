"""Driver loop: convergence, method equivalence, budgets, failure paths."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from spbfgs import optimizer
from spbfgs.bench import ExperimentSpec, ProblemRef
from spbfgs.errors import BadDimensionError, DegenerateInputError, NonFiniteError
from spbfgs.linesearch import LineSearchConfig
from spbfgs.noise import NoiseSpec, sample_ball
from spbfgs.optimizer import ACTIONS, RECORD_DTYPE, RunConfig, minimize, minimize_baseline_bfgs
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


VALUE_NAMES = [name for name in RECORD_DTYPE.names if not name.endswith("_none")]


def record_dicts(trace):
    """Each record as {field: Python value}: None where its _none field is set, action by name."""
    recs = trace.records
    columns = []
    for name in VALUE_NAMES:
        values = recs[name].tolist()
        if name == "action":
            values = [ACTIONS[code] for code in values]
        elif f"{name}_none" in recs.dtype.names:
            values = [None if none else v for v, none in zip(values, recs[f"{name}_none"].tolist())]
        columns.append(values)
    return [dict(zip(VALUE_NAMES, row)) for row in zip(*columns)]


def iterates(problem):
    """The problem with grad wrapped to keep a copy of each point, and the list it keeps.

    The oracle calls grad exactly once per iterate, in order, so a run that
    does not fail leaves one point per record: x_k of record k.
    """
    points = []

    def grad(x):
        points.append(np.array(x, dtype=float, copy=True))
        return problem.grad(x)

    return dataclasses.replace(problem, grad=grad), points


class TestNoiselessConvergence:
    def test_quadratic_reaches_machine_floor(self):
        trace = minimize(quad2(), RunConfig(budget_iters=30))
        assert trace.phi_best < 1e-16

    def test_subnormal_curvature_skips_instead_of_failing(self):
        # at k = 29 the pair has s.y = 1.63e-322, so 1/s.y overflows; the
        # update is skipped (H kept) and the run goes on to its budget
        trace = minimize(quad2(), RunConfig(budget_iters=30))
        assert not trace.failed
        assert trace.n_iterations == 30
        recs = record_dicts(trace)
        assert recs[-1]["k"] == 30
        skipped = [r for r in recs if r["action"] == "skip"]
        assert skipped and all(r["beta"] == 0.0 and 0.0 < r["sty"] < 1e-300 for r in skipped)
        for rec in skipped:
            assert rec["trace_h"] == recs[rec["k"] - 1]["trace_h"]

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
    @pytest.mark.parametrize("setting", [
        dict(skip_rule="nonpositive"),
        dict(skip_rule="cosine", skip_zeta=0.5),
        dict(skip_rule="step-norm", skip_eps=0.1),
        dict(recovery="shrink"),
    ], ids=["nonpositive", "cosine", "step-norm", "shrink"])
    def test_baseline_identical_to_infinite_penalty(self, setting):
        # same seed, same problem: classic BFGS is minimize at constant
        # infinity, so under any skip rule or recovery both produce the
        # same bits, each pair admitted by the skip rule in resolve_beta
        # (srosenbr: each of the last three settings refuses some of its pairs)
        prob_a, xs_a = iterates(get_problem("srosenbr"))
        prob_b, xs_b = iterates(get_problem("srosenbr"))
        noise = NoiseSpec(eps_f=1e-3, eps_g=1e-3)
        cfg = RunConfig(policy=PenaltyPolicy(kind="constant-infinity", **setting),
                        noise=noise, budget_evals=500, seed=99)
        a = minimize(prob_a, cfg)
        b = minimize_baseline_bfgs(prob_b, cfg)
        assert len(a.records) == len(b.records) == len(xs_a) == len(xs_b)
        for xa, xb in zip(xs_a, xs_b):
            assert np.array_equal(xa, xb)
        assert a.records.tobytes() == b.records.tobytes()
        assert a.phi_best == b.phi_best
        assert a.n_curvature_failures == b.n_curvature_failures


class TestBudgets:
    def test_iteration_budget_exact(self):
        trace = minimize(quad2(), RunConfig(budget_iters=7))
        assert trace.n_iterations == 7
        final = record_dicts(trace)[-1]
        assert final["k"] == 7  # final state record, no step taken
        assert final["alpha"] is None

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
        assert record_dicts(trace)[0]["phi"] == quad2().f(quad2().x0)

    def test_budget_of_one_eval(self):
        # one paid measurement: the start point is recorded, no step possible
        trace = minimize(quad2(), RunConfig(budget_evals=1))
        assert trace.n_f_evals == 1
        assert trace.n_iterations == 0
        assert trace.phi_best == quad2().f(quad2().x0)


def stop_row(k, f_measured, phi, grad_norm, evals):
    """Every field of a record written by a stop before a step: no step values."""
    row = dict(k=k, f_measured=f_measured, phi=phi, grad_norm=grad_norm, evals=evals,
               action=ACTIONS.index(None), curvature_failed=False)
    for name in optimizer._OPTIONAL:
        row[name], row[f"{name}_none"] = 0, True
    return row


def fields_of(record):
    """A raw RECORD_DTYPE record as {field: Python value}, NaN as the string 'nan'."""
    values = {name: record[name].item() for name in RECORD_DTYPE.names}
    return {name: "nan" if v != v else v for name, v in values.items()}


class TestStopRows:
    """The last record of each way a run stops, every field pinned.

    quad2 without noise from x0 = (3, -2): f = 12.5, g = (3, -8).  Its first
    search rejects alpha = 1 (f(0, 6) = 72) and accepts alpha = 0.5, so x1 =
    (1.5, 2) with f = 9.125 and g = (1.5, 8), after 1 + 2 measurements.
    Each value is exact in binary, and so is each norm's square.
    """

    def run(self, **budget):
        return minimize(quad2(), RunConfig(record_hessian_diagnostics=True, **budget))

    def test_budget_iters_reached(self):
        # x1 is measured (evaluation 4, its noiseless value), then the loop stops
        trace = self.run(budget_iters=1)
        assert (trace.n_iterations, trace.n_f_evals, len(trace.records)) == (1, 4, 2)
        assert fields_of(trace.records[-1]) == stop_row(1, 9.125, 9.125, math.sqrt(66.25), 4)

    def test_budget_spent_at_the_iterate(self):
        # the search spends evaluation 3, so x1 is never measured
        trace = self.run(budget_evals=3)
        assert (trace.n_iterations, trace.n_f_evals, len(trace.records)) == (1, 3, 2)
        assert fields_of(trace.records[-1]) == stop_row(1, "nan", 9.125, math.sqrt(66.25), 3)
        assert trace.records[0]["evals"] == 3 and trace.records[0]["alpha"] == 0.5

    def test_budget_spent_inside_the_search(self):
        # evaluation 2 is the rejected alpha = 1; the second trial finds none left
        trace = self.run(budget_evals=2)
        assert (trace.n_iterations, trace.n_f_evals, len(trace.records)) == (0, 2, 1)
        assert fields_of(trace.records[-1]) == stop_row(0, 12.5, 12.5, math.sqrt(73.0), 2)


class TestRecordArray:
    ROW = (0, 1.0, 1.0, 1.0, 1, None, None, None, None, None, None, False, None, None)

    def test_a_row_per_record(self):
        records = optimizer._record_array([self.ROW, self.ROW])
        assert len(records) == 2 and records.dtype == RECORD_DTYPE
        assert len(optimizer._record_array([])) == 0

    @pytest.mark.parametrize("bad", [ROW[:-2], ROW + (None,)], ids=["short", "long"])
    def test_a_row_of_another_length_is_refused(self, bad):
        # a field a short row missed would otherwise read as a recorded 0
        with pytest.raises(ValueError, match="14 values"):
            optimizer._record_array([self.ROW, bad])


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
        for rec in record_dicts(trace)[:-1]:
            assert rec["alpha"] == 0.0
            assert rec["action"] == "skip"
            assert rec["sty"] == 0.0
            assert not rec["curvature_failed"]

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
        assert not record_dicts(trace)[-1]["curvature_failed"]

    @pytest.mark.parametrize("run", [minimize, minimize_baseline_bfgs])
    def test_overflowing_pair_fails_the_run(self, run):
        # x and g stay finite, but y = g_new - g = 2e308 overflows
        prob = Problem("overflow", 1, lambda x: -1e308 * x[0],
                       lambda x: np.array([-1e308 if x[0] < 0.005 else 1e308]),
                       np.array([0.0]), -np.inf)
        trace = run(prob, RunConfig(budget_iters=5, h0=[[1e-310]]))
        assert trace.failed
        assert trace.failure == "non-finite state at iteration 0"
        assert trace.n_iterations == 0
        final = record_dicts(trace)[-1]
        assert final["alpha"] > 0.0 and final["sty"] is None

    @pytest.mark.parametrize("run", [minimize, minimize_baseline_bfgs])
    def test_overflowing_update_fails_the_run(self, run):
        # f = -x accepts every unit step: x goes 0 -> 1 -> 2.  The first pair
        # (s = 1, y = 0.5) updates H to 2; the second (s = 1, y = 1e308) is
        # finite with a finite 1/s.y, but H y = 2e308 overflows in the kernel
        def grad(x):
            return np.array([-1.0 if x[0] < 0.5 else -0.5 if x[0] < 1.5 else 1e308])

        prob = Problem("late-overflow", 1, lambda x: -float(x[0]), grad, np.array([0.0]), -np.inf)
        trace = run(prob, RunConfig(budget_iters=5))
        assert trace.failed
        assert trace.failure == "non-finite update at iteration 1"
        # the state before the bad update: f at x0, 1, 1 (start of k = 1), 2
        assert trace.phi_best == -2.0
        np.testing.assert_array_equal(trace.x_best, [2.0])
        assert (trace.n_iterations, trace.n_f_evals, trace.n_g_evals) == (1, 4, 3)
        assert (trace.n_curvature_failures, trace.n_zero_steps) == (0, 0)
        recs = record_dicts(trace)
        assert [r["k"] for r in recs] == [0, 1]
        assert recs[0]["trace_h"] == 2.0
        assert recs[1]["action"] == "update" and recs[1]["trace_h"] is None

    def test_nonfinite_start_gradient_fails_the_run(self):
        prob = Problem("nan-start", 1, lambda x: float(x[0] ** 2),
                       lambda x: np.array([math.nan]), np.array([1.0]), 0.0)
        trace = minimize(prob, RunConfig(linesearch=LineSearchConfig(max_backtracks=3),
                                         budget_iters=5))
        assert trace.failed
        assert trace.failure == "non-finite state at iteration 0"
        assert trace.n_zero_steps == 0 and trace.n_iterations == 0

    @pytest.mark.parametrize("kind", ["linear", "thresholded"])
    def test_zero_step_scale_survives_an_overflowing_step(self, kind):
        # H = 1e200 I sends x from 0 to -1e200, so ||s|| overflows; with
        # step_scale = 0 the proposal is the offset, not 0 * inf = nan
        prob = Problem("arctan", 2, lambda x: float(np.arctan(x).sum()),
                       lambda x: 1.0 / (1.0 + x * x), np.zeros(2), -math.pi)
        cfg = RunConfig(policy=PenaltyPolicy(kind=kind, step_scale=0.0, offset=1.0),
                        linesearch=LineSearchConfig(eps_armijo=math.inf, max_backtracks=1),
                        h0=1e200 * np.eye(2), budget_iters=5)
        trace = minimize(prob, cfg)
        assert not trace.failed and trace.n_iterations == 5
        assert record_dicts(trace)[0]["beta"] == (1.0 if kind == "linear" else 0.0)

    def test_overflow_is_not_warned(self):
        # trial points far out overflow to inf; the run handles that silently
        prob = Problem("steep", 1, lambda x: float(np.exp(x[0] ** 2)),
                       lambda x: 2.0 * x * np.exp(x ** 2), np.array([2.0]), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = minimize(prob, RunConfig(budget_iters=20))
        assert not trace.failed

    def test_curvature_failure_counted_for_baseline(self):
        prob = get_problem("quadratic_ill")
        cfg = RunConfig(policy=PenaltyPolicy(kind="constant-infinity"),
                        linesearch=LineSearchConfig(max_backtracks=75),
                        noise=NoiseSpec(0.0, 1.0), budget_iters=100, seed=11)
        trace = minimize_baseline_bfgs(prob, cfg)
        skips = sum(1 for r in record_dicts(trace) if r["curvature_failed"])
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
        stepped = [r for r in record_dicts(trace) if r["alpha"] is not None]
        assert all(r["pd_ok"] for r in stepped)
        assert all(r["trace_h"] is not None for r in stepped)

    @pytest.mark.parametrize("rep", range(5))
    def test_pd_ok_agrees_with_the_eigenvalues(self, monkeypatch, rep):
        # the sweep's own H, in c08's cell, both methods: classic BFGS on beale
        # drives H to eigenvalues ~1e-16..1e-10, all positive, and a pivot
        # tolerance blind to H's scale read most of these H as not positive
        # definite
        eigs = []  # the eigenvalues of each H the driver checks
        check = optimizer.is_positive_definite

        def spy(h):
            eigs.append(np.linalg.eigvalsh(h))
            return check(h)

        monkeypatch.setattr(optimizer, "is_positive_definite", spy)
        names, cell = ("beale", "rosenbrock", "quadratic_ill"), NoiseSpec(1e-4, 1e-4)
        # run_one's config for each run, with the diagnostics on
        spec = ExperimentSpec(problems=tuple(map(ProblemRef, names)), cells=(cell,),
                              noise_mode="relative")
        for name in names:
            prob = get_problem(name)
            for method, run in (("spbfgs", minimize), ("bfgs", minimize_baseline_bfgs)):
                eigs.clear()
                config = dataclasses.replace(spec.run_config(prob, method, cell, rep),
                                             record_iterations=True,
                                             record_hessian_diagnostics=True)
                trace = run(prob, config)
                pd_ok = [r["pd_ok"] for r in record_dicts(trace) if r["pd_ok"] is not None]
                assert len(pd_ok) == len(eigs) == trace.n_iterations > 900
                assert pd_ok == [bool(e[0] > 0.0) for e in eigs]
                # every H is determinate: rounding cannot decide the agreement
                assert all(abs(e[0]) > prob.n * np.finfo(float).eps * np.abs(e).max()
                           for e in eigs)
                if (name, method) == ("beale", "bfgs"):
                    assert sum(e[0] < 1e-12 for e in eigs) > 400


def counting(problem):
    """The problem with f and grad wrapped to count their calls."""
    calls = {"f": 0, "grad": 0}

    def f(x):
        calls["f"] += 1
        return problem.f(x)

    def grad(x):
        calls["grad"] += 1
        return problem.grad(x)

    return dataclasses.replace(problem, f=f, grad=grad), calls


def remeasured(trace):
    """Measurements at an iterate after x0, each of which reuses the driver's true value.

    The driver keeps the true value at its iterate (from the measurement at
    x0, then from each accepted trial), so every later iterate's measurement
    passes it instead of calling the problem, after a step or an exhausted
    search alike; a final iterate the spent budget left unmeasured
    (f_measured NaN) was not measured.
    """
    return sum(not math.isnan(rec["f_measured"]) for rec in record_dicts(trace)[1:])


RESULT_FIELDS = ("phi_best", "n_iterations", "n_f_evals", "n_g_evals",
                 "n_curvature_failures", "n_zero_steps", "failed", "failure")


class TestRecordsOff:
    @pytest.mark.parametrize("name", ["rosenbrock", "beale", "cube", "box3"])
    @pytest.mark.parametrize("noise", [NoiseSpec(0.0, 0.0), NoiseSpec(1e-6, 1e-4),
                                       NoiseSpec(0.0, 1e-1)])
    def test_no_side_channel_calls(self, name, noise):
        # without records the problem is evaluated only through the oracle:
        # once at x0 and once per line-search trial, never at an iterate again
        for run in (minimize, minimize_baseline_bfgs):
            prob, calls = counting(get_problem(name))
            cfg = RunConfig(noise=noise, budget_evals=300, seed=4, record_iterations=False)
            trace = run(prob, cfg)
            assert len(trace.records) == 0 and trace.records.dtype == RECORD_DTYPE
            # the same run with records, to count its measurements at iterates
            twin = run(get_problem(name), dataclasses.replace(cfg, record_iterations=True))
            assert (twin.n_f_evals, twin.n_iterations) == (trace.n_f_evals, trace.n_iterations)
            reused = remeasured(twin)
            assert reused > 0
            assert calls == {"f": trace.n_f_evals - reused, "grad": trace.n_g_evals}

    @pytest.mark.parametrize("policy", [
        PenaltyPolicy(kind="scaled", scale=1e8, offset=1e-10),
        PenaltyPolicy(kind="constant", beta=1e3, recovery="shrink"),
        PenaltyPolicy(kind="thresholded", step_scale=1e6, threshold=1.0),
        PenaltyPolicy(kind="constant-infinity", skip_rule="cosine", skip_zeta=1e-3),
    ])
    @pytest.mark.parametrize("name", ["rosenbrock", "beale", "helix"])
    def test_same_result_with_and_without_records(self, policy, name):
        for noise in (NoiseSpec(0.0, 0.0), NoiseSpec(1e-6, 1e-4), NoiseSpec(1e-4, 1e-2)):
            for run in (minimize, minimize_baseline_bfgs):
                cfg = RunConfig(policy=policy, noise=noise, budget_evals=300, seed=9)
                on = run(get_problem(name), cfg)
                off = run(get_problem(name), dataclasses.replace(cfg, record_iterations=False))
                assert len(on.records) == on.n_iterations + 1 and len(off.records) == 0
                for attr in RESULT_FIELDS:
                    assert getattr(on, attr) == getattr(off, attr), attr
                assert np.array_equal(on.x_best, off.x_best)

    def test_records_reuse_the_oracle_values(self):
        # phi and grad_norm of each record are the true values at its x, and
        # no record costs a problem call, not even a final one whose x the
        # spent budget left unmeasured
        unmeasured_ends = 0
        for budget in range(100, 110):
            prob, calls = counting(get_problem("rosenbrock"))
            spied, xs = iterates(prob)
            trace = minimize(spied, RunConfig(noise=NoiseSpec(1e-6, 1e-4), budget_evals=budget))
            recs = record_dicts(trace)
            unmeasured = math.isnan(recs[-1]["f_measured"])
            unmeasured_ends += unmeasured
            reused = remeasured(trace)
            assert calls == {"f": trace.n_f_evals - reused, "grad": trace.n_g_evals}
            assert len(xs) == len(recs)
            for rec, x in zip(recs, xs):
                assert rec["phi"] == prob.f(x)
                assert rec["grad_norm"] == float(np.linalg.norm(prob.grad(x)))
        assert 0 < unmeasured_ends < 10


class TestStackedLineSearch:
    """A stacked problem's run is bitwise the run of the same problem one point at a time."""

    @pytest.mark.parametrize("name", ["srosenbr", "genrose", "extrosnb"])
    @pytest.mark.parametrize("linesearch", [LineSearchConfig(eps_armijo=None),
                                            LineSearchConfig(eps_armijo=None, max_backtracks=3)])
    def test_same_run_as_one_point_at_a_time(self, name, linesearch):
        problem = get_problem(name, 32)
        stacked, stacked_xs = iterates(problem)
        one_point, one_point_xs = iterates(dataclasses.replace(problem, stacked_f=False))
        ended_in_a_search = exhausted = 0
        for budget in range(150, 162):
            for noise in (NoiseSpec(0.0, 0.0), NoiseSpec(1e-4, 1e-2)):
                for run in (minimize, minimize_baseline_bfgs):
                    cfg = RunConfig(noise=noise, linesearch=linesearch, budget_evals=budget,
                                    seed=budget)
                    stacked_xs.clear()
                    one_point_xs.clear()
                    got, want = run(stacked, cfg), run(one_point, cfg)
                    for attr in RESULT_FIELDS:
                        assert getattr(got, attr) == getattr(want, attr), attr
                    assert got.x_best.tobytes() == want.x_best.tobytes()
                    # every field of every record, bit for bit, and every iterate
                    assert got.records.tobytes() == want.records.tobytes()
                    assert [x.tobytes() for x in stacked_xs] == [x.tobytes() for x in one_point_xs]
                    recs = record_dicts(got)
                    # the budget ran out inside a search whose block was > 1
                    ended_in_a_search += (recs[-1]["alpha"] is None and len(recs) > 1
                                          and recs[-2]["n_trials"] > 1)
                    exhausted += got.n_zero_steps > 0
        assert ended_in_a_search > 0
        if linesearch.max_backtracks == 3:
            assert exhausted > 0


class TestRunConfig:
    def test_needs_some_budget(self):
        with pytest.raises(ValueError):
            RunConfig()

    def test_rejects_zero_eval_budget(self):
        with pytest.raises(ValueError):
            RunConfig(budget_evals=0)

    def test_hessian_diagnostics_need_records(self):
        with pytest.raises(ValueError, match="record_hessian_diagnostics needs record_iterations"):
            RunConfig(budget_iters=1, record_iterations=False, record_hessian_diagnostics=True)
        assert RunConfig(budget_iters=1, record_hessian_diagnostics=True).record_iterations

    def test_unset_armijo_slack_is_the_run_eps_f(self):
        config = RunConfig(linesearch=LineSearchConfig(eps_armijo=None),
                           noise=NoiseSpec(eps_f=1e-3), budget_iters=1)
        assert config.linesearch.eps_armijo == 1e-3
        # resolved once, like a scaled policy: replace keeps the resolved slack
        renoised = dataclasses.replace(config, noise=NoiseSpec(eps_f=0.5))
        assert renoised.linesearch.eps_armijo == 1e-3

    def test_set_armijo_slack_kept(self):
        noise = NoiseSpec(eps_f=1e-3)
        assert RunConfig(noise=noise, budget_iters=1).linesearch.eps_armijo == 0.0
        config = RunConfig(linesearch=LineSearchConfig(eps_armijo=0.5), noise=noise, budget_iters=1)
        assert config.linesearch.eps_armijo == 0.5

    def test_h0_shape_checked(self):
        with pytest.raises(BadDimensionError, match="h0"):
            minimize(quad2(), RunConfig(budget_iters=1, h0=np.eye(3)))

    def test_h0_identity_default_vs_explicit(self):
        prob_a, xs_a = iterates(quad2())
        prob_b, xs_b = iterates(quad2())
        minimize(prob_a, RunConfig(budget_iters=5, seed=3))
        minimize(prob_b, RunConfig(budget_iters=5, seed=3, h0=np.eye(2)))
        np.testing.assert_array_equal(xs_a[-1], xs_b[-1])

    @pytest.mark.parametrize("run", [minimize, minimize_baseline_bfgs])
    def test_h0_must_be_exactly_symmetric(self, run):
        h0 = np.array([[1.0, 0.25], [np.nextafter(0.25, 1.0), 1.0]])
        with pytest.raises(DegenerateInputError, match="h0 must be exactly symmetric"):
            run(quad2(), RunConfig(budget_iters=1, h0=h0))

    @pytest.mark.parametrize("run", [minimize, minimize_baseline_bfgs])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_h0_must_be_finite(self, run, bad):
        # a non-finite diagonal entry is symmetric, so the symmetry check alone passed it
        with pytest.raises(NonFiniteError, match="h0 must be finite"):
            run(get_problem("rosenbrock"), RunConfig(budget_evals=200, h0=[[bad, 0.0], [0.0, 1.0]]))

    def test_h0_left_untouched(self):
        # the run updates its own copy of h0 in place
        h0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        trace = minimize(quad2(), RunConfig(budget_iters=5, h0=h0))
        assert record_dicts(trace)[-1]["trace_h"] != 3.0
        np.testing.assert_array_equal(h0, [[2.0, 0.5], [0.5, 1.0]])


class TestInPlaceUpdate:
    @pytest.mark.parametrize("run", [minimize, minimize_baseline_bfgs])
    def test_update_allocates_no_matrix(self, run, monkeypatch):
        # the driver's update writes into H and the run's scratch: the
        # kernel's two-term einsum (or, where einsum would fuse that sum,
        # its two single-term einsums) needs no ufunc buffers, and the
        # finiteness check writes its mask into scratch.  A call allocates
        # a few length-n vectors and nothing of size n x n
        n = 256
        allocated = []
        update = optimizer.spbfgs_update

        def measured(*args, **kwargs):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = update(*args, **kwargs)
            allocated.append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(optimizer, "spbfgs_update", measured)
        tracemalloc.start()
        try:
            trace = run(get_problem("srosenbr", n), RunConfig(budget_iters=10))
        finally:
            tracemalloc.stop()
        assert not trace.failed
        assert len(allocated) >= 5
        assert max(allocated) < 64 * n


def fixed_step_config(alpha, noise, n_iters, seed):
    """minimize as gradient descent with constant step alpha and H = I."""
    return RunConfig(policy=PenaltyPolicy(kind="constant", beta=0.0),
                     linesearch=LineSearchConfig(alpha0=alpha, max_backtracks=1,
                                                 eps_armijo=math.inf),
                     noise=noise, budget_iters=n_iters, seed=seed)


class TestFixedStepConfiguration:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_records_replay_hand_iteration(self, seed):
        # at eps_f = 0 only the gradients draw from the run's Generator
        prob = quad2()
        spied, xs = iterates(prob)
        alpha, eps_g, n_iters = 0.1, 0.5, 25
        trace = minimize(spied, fixed_step_config(alpha, NoiseSpec(0.0, eps_g), n_iters, seed))
        assert len(trace.records) == len(xs) == n_iters + 1
        rng = np.random.default_rng(seed)
        x = prob.x0.copy()
        for rec, rec_x in zip(record_dicts(trace), xs):
            assert rec_x.tobytes() == x.tobytes()
            assert np.float64(rec["phi"]).tobytes() == np.float64(prob.f(x)).tobytes()
            if rec["k"] < n_iters:
                assert (rec["alpha"], rec["n_trials"], rec["trace_h"]) == (alpha, 1, 2.0)
            x = x - alpha * (prob.grad(x) + sample_ball(rng, prob.n, eps_g))

    def test_descends_noiseless(self):
        # slowest mode contracts by 0.9 per step: 120 steps reach ~1e-11
        trace = minimize(quad2(), fixed_step_config(0.1, NoiseSpec(), 120, seed=0))
        phi = trace.records["phi"]
        assert phi[-1] < 1e-6 * phi[0]
