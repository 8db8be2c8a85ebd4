"""Benchmark harness: seeding, statistics, CSV output, config files, CLI."""

import csv
import dataclasses
import importlib
import inspect
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spbfgs.bench
import spbfgs.verify
from spbfgs.bench import (
    TRACE_COLUMNS,
    TRACE_RECORD_COLUMNS,
    ExperimentSpec,
    ProblemRef,
    RunOutcome,
    SummaryRow,
    SummaryStats,
    delta_opt,
    resolve_cell,
    run_experiment,
    run_one,
    run_seed,
    summarize,
    write_summary_csv,
    write_traces_csv,
)
from spbfgs.cli import main as cli_main
from spbfgs.config import load_experiment
from spbfgs.errors import ConfigError, EmptyCellError
from spbfgs.linesearch import LineSearchConfig
from spbfgs.noise import NoiseSpec
from spbfgs.optimizer import ACTIONS, RECORD_DTYPE, RunConfig, _record_array
from spbfgs.policy import PenaltyPolicy, propose_beta
from spbfgs.problems import Problem, get_problem


class TestDeltaOpt:
    def test_hand_values(self):
        assert delta_opt(100.0, 0.0) == 2.0
        assert delta_opt(1.5, 0.5) == 0.0
        assert delta_opt(1e-8, 0.0) == -8.0

    def test_floor(self):
        assert delta_opt(0.0, 0.0) == -300.0
        assert delta_opt(1e-301, 0.0) == -300.0
        assert delta_opt(0.5, 1.0) == -300.0  # below phi_star clamps too

    def test_nan_and_inf_pass_through(self):
        assert math.isnan(delta_opt(math.nan, 0.0))
        assert delta_opt(math.inf, 0.0) == math.inf


class TestSummarize:
    def test_hand_example(self):
        st = summarize([-2.0, -4.0, -6.0], [10, 20, 30])
        assert st.n == 3
        assert st.mean == -4.0
        assert st.median == -4.0
        assert st.vmin == -6.0
        assert st.vmax == -2.0
        assert st.var == 4.0  # Bessel: (4 + 0 + 4) / 2
        assert st.mean_iters == 20.0

    def test_single_run_has_no_variance(self):
        st = summarize([-3.0], [7])
        assert st.n == 1
        assert st.var is None

    def test_empty_cell(self):
        with pytest.raises(EmptyCellError):
            summarize([], [])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            summarize([1.0], [1, 2])


class TestRunSeed:
    def test_deterministic(self):
        a = run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-2), 5)
        b = run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-2), 5)
        assert isinstance(a, np.random.SeedSequence)
        assert a.entropy == b.entropy
        ga = np.random.default_rng(a).random(4)
        gb = np.random.default_rng(b).random(4)
        np.testing.assert_array_equal(ga, gb)

    def test_every_coordinate_matters(self):
        base = run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-2), 5).entropy
        variants = [
            run_seed(1, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-2), 5),
            run_seed(0, "beale", "spbfgs", NoiseSpec(0.0, 1e-2), 5),
            run_seed(0, "rosenbrock", "bfgs", NoiseSpec(0.0, 1e-2), 5),
            run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(1e-8, 1e-2), 5),
            run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-3), 5),
            run_seed(0, "rosenbrock", "spbfgs", NoiseSpec(0.0, 1e-2), 6),
        ]
        assert all(v.entropy != base for v in variants)


class TestResolveCell:
    def test_absolute_mode_is_identity(self):
        cell = NoiseSpec(1e-3, 1e-2)
        prob = ProblemRef("rosenbrock").instantiate()
        assert resolve_cell(prob, cell, "absolute") == cell

    def test_relative_mode_scales_by_start_point(self):
        def f(x):
            return 2.0

        def grad(x):
            return np.array([3.0, 0.0])

        prob = Problem("flat", 2, f, grad, np.zeros(2), 0.0)
        out = resolve_cell(prob, NoiseSpec(0.1, 0.5), "relative")
        assert out.eps_f == pytest.approx(0.2)
        assert out.eps_g == pytest.approx(1.5)


def run_config(policy, eps_g):
    return RunConfig(policy=policy, noise=NoiseSpec(0.0, eps_g), budget_iters=1)


class TestScaledPolicy:
    """kind = scaled, resolved against each run's gradient noise by RunConfig."""

    def test_scaled_resolution(self):
        scaled = PenaltyPolicy(kind="scaled", scale=1e8, offset=1e-10)
        for pol in (scaled.resolve(1e-4), run_config(scaled, 1e-4).policy):
            assert pol.kind == "linear"
            assert pol.step_scale == 1e12
            assert pol.offset == 1e-10

    def test_scaled_falls_back_to_classic_at_zero_noise(self):
        default = ExperimentSpec.policy
        assert (default.kind, default.scale, default.offset) == ("scaled", 1e8, 1e-10)
        assert default.resolve(0.0).kind == "constant-infinity"
        assert run_config(default, 0.0).policy.kind == "constant-infinity"

    def test_direct_kinds_pass_through(self):
        pol = PenaltyPolicy(kind="linear", step_scale=2.0, offset=0.5)
        assert pol.resolve(123.0) is pol
        assert run_config(pol, 123.0).policy is pol
        pol = PenaltyPolicy(kind="constant", beta=7.0)
        assert run_config(pol, 0.0).policy is pol

    def test_validation_is_eager(self):
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="scaled", scale=0.0)
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="scaled", scale=math.inf)
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="constant", beta=-1.0)
        with pytest.raises(ValueError):
            PenaltyPolicy(kind="bogus")

    def test_overflowing_step_scale_is_rejected(self):
        scaled = PenaltyPolicy(kind="scaled", scale=1e8)
        assert scaled.resolve(1e-300).step_scale == 1e308
        with pytest.raises(ValueError):
            scaled.resolve(1e-320)
        with pytest.raises(ValueError):
            run_config(scaled, 1e-320)
        with pytest.raises(ValueError):
            ExperimentSpec(problems=(ProblemRef("cube"),), cells=((0.0, 1e-320),))

    def test_unresolved_scaled_proposes_nothing(self):
        with pytest.raises(ValueError):
            propose_beta(PenaltyPolicy(kind="scaled", scale=1.0), np.ones(2))


class TestSummaryCsv:
    def test_exact_bytes(self, tmp_path):
        rows = [
            SummaryRow("rosenbrock", "spbfgs", NoiseSpec(0.0, 0.01),
                       SummaryStats(2, -10.5, -10.5, -11.0, -10.0, 0.5, 12.5)),
            SummaryRow("beale", "bfgs", NoiseSpec(1e-06, 0.0001),
                       SummaryStats(1, -3.0, -3.0, -3.0, -3.0, None, 40.0)),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(path, rows)
        expected = (
            "problem,method,eps_f,eps_g,n_runs,mean_dopt,median_dopt,"
            "min_dopt,max_dopt,var_dopt,mean_iters\n"
            "rosenbrock,spbfgs,0.0,0.01,2,-10.5,-10.5,-11.0,-10.0,0.5,12.5\n"
            "beale,bfgs,1e-06,0.0001,1,-3.0,-3.0,-3.0,-3.0,,40.0\n"
        )
        assert path.read_text() == expected

    def test_numpy_scalars_write_their_values(self, tmp_path):
        # numpy 2's repr of np.float64(0.1) is "np.float64(0.1)"; csv.writer writes 0.1
        stats = SummaryStats(np.int64(5), np.float64(0.1), np.float64(-2.5), np.float64(-3.0),
                             np.float64(1e-300), np.float64(0.25), np.float64(12.0))
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [SummaryRow("rosenbrock", "spbfgs", NoiseSpec(1e-4, 1e-4),
                                            stats)])
        assert path.read_text().splitlines()[1] == \
            "rosenbrock,spbfgs,0.0001,0.0001,5,0.1,-2.5,-3.0,1e-300,0.25,12.0"

    def test_nan_spelled_out(self, tmp_path):
        rows = [SummaryRow("cube", "spbfgs", NoiseSpec(),
                           SummaryStats(1, math.nan, -1.0, -1.0, -1.0, None, 5.0))]
        path = tmp_path / "s.csv"
        write_summary_csv(path, rows)
        assert ",nan," in path.read_text()


def small_spec(tmp_path, **overrides):
    base = dict(
        problems=(ProblemRef("rosenbrock"),),
        methods=("spbfgs", "bfgs"),
        cells=(NoiseSpec(0.0, 0.0), NoiseSpec(1e-6, 1e-4)),
        replicates=3,
        budget_evals=300,
        out_dir=str(tmp_path / "results"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def run_cli_spec(monkeypatch, tmp_path, argv, env=None):
    """The spec that `spbfgs-bench` argv hands to run_experiment, under env.

    The CLI runs with tmp_path/cwd as its working directory, so a patch that
    misses, and lets a real sweep run, writes its results there; the test
    then fails unless exactly one spec reached the patched run_experiment.
    """
    for name in ("SPBFGS_BENCH_OUT_DIR", "SPBFGS_BENCH_WORKERS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in (env or {}).items():
        monkeypatch.setenv(name, value)
    (tmp_path / "cwd").mkdir(exist_ok=True)
    monkeypatch.chdir(tmp_path / "cwd")
    specs = []
    monkeypatch.setattr("spbfgs.bench.run_experiment",
                        lambda spec: specs.append(spec) or spbfgs.bench.ExperimentResult())
    assert cli_main(argv) == 0
    assert len(specs) == 1, (f"the CLI reached the patched spbfgs.bench.run_experiment "
                             f"{len(specs)} times, not once")
    return specs[0]


class TestRunOne:
    def test_noiseless_run(self, tmp_path):
        spec = small_spec(tmp_path)
        out = run_one(spec, ProblemRef("rosenbrock"), "spbfgs", NoiseSpec(0.0, 0.0), 0)
        assert out.problem == "rosenbrock"
        assert not out.failed
        assert out.dopt <= -8.0
        assert out.n_iterations > 0
        assert out.trace_rows == ()

    def test_traces_collected_when_asked(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        out = run_one(spec, ProblemRef("rosenbrock"), "bfgs", NoiseSpec(0.0, 0.0), 1)
        assert len(out.trace_rows) == out.n_iterations + 1
        assert out.trace_rows["k"].tolist() == list(range(out.n_iterations + 1))
        assert out.trace_rows["evals"][-1] <= spec.budget_evals

    def test_shrink_at_the_smallest_factor_finishes(self, tmp_path):
        # rep 20 of this sweep meets s.y = -4.48e-05, whose shrunk beta
        # 22303.24 rounds s.y + 1/beta to 0: the run ended the sweep with a
        # SingularDenominatorError before resolve_beta checked that beta
        path = tmp_path / "shrink.ini"
        path.write_text("[experiment]\nproblems = sineval\nmethods = spbfgs\nreplicates = 21\n\n"
                        "[noise]\nmode = relative\ncells = 1e-4, 1e-2\n\n"
                        "[policy]\nkind = constant\nbeta = 1e6\nrecovery = shrink\n"
                        "shrink_factor = 1.0000000000000002\n")
        spec = load_experiment(path)
        out = run_one(spec, ProblemRef("sineval"), "spbfgs", NoiseSpec(1e-4, 1e-2), 20)
        assert not out.failed and out.n_iterations > 0

    @pytest.mark.parametrize("record_traces", [False, True])
    def test_records_kept_only_for_traces(self, tmp_path, monkeypatch, record_traces):
        seen = []
        minimize = spbfgs.bench.minimize

        def spy(problem, config):
            seen.append(config.record_iterations)
            return minimize(problem, config)

        monkeypatch.setattr(spbfgs.bench, "minimize", spy)
        spec = small_spec(tmp_path, record_traces=record_traces)
        out = run_one(spec, ProblemRef("rosenbrock"), "spbfgs", NoiseSpec(1e-6, 1e-4), 0)
        assert seen == [record_traces]
        assert len(out.trace_rows) == (out.n_iterations + 1 if record_traces else 0)

    def test_trace_columns_come_from_record_fields(self, tmp_path):
        assert TRACE_COLUMNS == (
            "problem", "method", "eps_f", "eps_g", "rep", "k", "phi", "grad_norm",
            "f_measured", "alpha", "beta", "sty", "curvature_failed", "trace_h", "evals",
        )
        assert TRACE_COLUMNS[5:] == TRACE_RECORD_COLUMNS
        assert set(TRACE_RECORD_COLUMNS) <= set(RECORD_DTYPE.names)
        spec = small_spec(tmp_path, record_traces=True)
        out = run_one(spec, ProblemRef("beale"), "bfgs", NoiseSpec(1e-6, 1e-4), 2)
        rows = out.trace_rows
        assert rows.dtype == RECORD_DTYPE
        assert (out.problem, out.method, out.cell, out.rep) == (
            "beale", "bfgs", NoiseSpec(1e-6, 1e-4), 2)
        assert rows["k"].tolist()[1] == 1
        assert isinstance(rows["curvature_failed"].tolist()[1], bool)

    @pytest.mark.parametrize("linesearch, expected", [
        (LineSearchConfig(eps_armijo=None), 1e-3),  # the spec's default: the cell's eps_f
        (LineSearchConfig(eps_armijo=0.5), 0.5),
        (LineSearchConfig(), 0.0),
    ])
    def test_armijo_slack(self, tmp_path, monkeypatch, linesearch, expected):
        seen = []
        minimize = spbfgs.bench.minimize

        def spy(problem, config):
            seen.append(config.linesearch.eps_armijo)
            return minimize(problem, config)

        monkeypatch.setattr(spbfgs.bench, "minimize", spy)
        spec = small_spec(tmp_path, linesearch=linesearch, cells=((1e-3, 1e-3),))
        run_one(spec, spec.problems[0], "spbfgs", spec.cells[0], 0)
        assert seen == [expected]

    @pytest.mark.parametrize("method, driver", [("spbfgs", "minimize"),
                                                ("bfgs", "minimize_baseline_bfgs")])
    def test_runs_the_spec_run_config(self, tmp_path, monkeypatch, method, driver):
        seen = []
        for name in ("minimize", "minimize_baseline_bfgs"):
            def spy(problem, config, name=name, run=getattr(spbfgs.bench, name)):
                seen.append((name, config))
                return run(problem, config)

            monkeypatch.setattr(spbfgs.bench, name, spy)
        spec = small_spec(tmp_path, noise_mode="relative", budget_iters=40, record_traces=True)
        cell = spec.cells[1]
        run_one(spec, ProblemRef("rosenbrock"), method, cell, 2)
        [(name, config)] = seen
        assert name == driver
        expected = spec.run_config(get_problem("rosenbrock"), method, cell, 2)
        for f in dataclasses.fields(RunConfig):
            got, want = getattr(config, f.name), getattr(expected, f.name)
            if f.name == "seed":  # a SeedSequence compares by identity
                got, want = got.entropy, want.entropy
            assert got == want, f.name

    def test_replicates_differ_under_noise(self, tmp_path):
        spec = small_spec(tmp_path)
        cell = NoiseSpec(1e-6, 1e-4)
        a = run_one(spec, ProblemRef("rosenbrock"), "spbfgs", cell, 0)
        b = run_one(spec, ProblemRef("rosenbrock"), "spbfgs", cell, 1)
        assert a.dopt != b.dopt


def _typed(row):
    """A row as (type, repr) pairs: equal only when equal type for type, -0.0 and nan included."""
    return [(type(v), repr(v)) for v in row]


# the driver's row tuples hold one value per RECORD_DTYPE field that is not a _none field
VALUE_NAMES = [name for name in RECORD_DTYPE.names if not name.endswith("_none")]


def _tuple_rows(run_values, records):
    """traces.csv's rows as 15-tuples of Python objects: the run's values, then the record's."""
    picks = [VALUE_NAMES.index(column) for column in TRACE_RECORD_COLUMNS]
    return [run_values + tuple(rec[i] for i in picks) for rec in records]


def _write_tuple_rows(path, rows):
    """traces.csv as written from tuple rows by plain csv.writer, bools as ints: the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([int(v) if isinstance(v, bool) else v for v in row])


def _field_values(rows, column):
    """One trace field as Python objects, None where its None field is set."""
    values = rows[column].tolist()
    if f"{column}_none" in rows.dtype.names:
        values = [None if none else v for v, none in zip(values, rows[f"{column}_none"].tolist())]
    return values


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1.7976931348623157e308, 0.1, 1e-6]
floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
ints = st.one_of(st.sampled_from([0, 1, 2**53, -2**53]), st.integers(-2**53, 2**53))
# the driver's row tuples: values in VALUE_NAMES order, None where the step has none
records = st.tuples(
    ints, floats, floats, floats, ints,  # k, f_measured, phi, grad_norm, evals
    st.none() | floats, st.none() | floats, st.none() | ints,  # alpha, f_accepted, n_trials
    st.none() | floats, st.none() | floats,  # beta, sty
    st.sampled_from(ACTIONS), st.booleans(),  # action, curvature_failed
    st.none() | floats, st.none() | st.booleans())  # trace_h, pd_ok
# what a valid NoiseSpec holds: finite, >= 0, -0.0 included
cell_levels = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308, 1e-6]),
                        st.floats(min_value=0.0, allow_infinity=False))
run_values = st.tuples(st.sampled_from(["rosenbrock", "a,b", 'q"x', ""]),
                       st.sampled_from(["spbfgs", "bfgs"]), cell_levels, cell_levels, ints)


class TestTraceRows:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(runs=st.lists(st.tuples(run_values, st.lists(records, max_size=6)), max_size=3))
    def test_rows_and_bytes_match_tuple_rows(self, tmp_path_factory, runs):
        outcomes, expected = [], []
        for values, recs in runs:
            rows = _record_array(recs)
            assert rows.dtype == RECORD_DTYPE and len(rows) == len(recs)
            for i, name in enumerate(VALUE_NAMES):
                got = _field_values(rows, name)
                if name == "action":
                    got = [ACTIONS[code] for code in got]
                assert _typed(got) == _typed([rec[i] for rec in recs]), name
            problem, method, eps_f, eps_g, rep = values
            outcomes.append(RunOutcome(problem=problem, method=method,
                                       cell=NoiseSpec(eps_f, eps_g), rep=rep, dopt=0.0,
                                       n_iterations=0, failed=False, trace_rows=rows))
            expected += _tuple_rows(values, recs)
        folder = tmp_path_factory.mktemp("traces")
        write_traces_csv(folder / "columns.csv", outcomes)
        _write_tuple_rows(folder / "tuples.csv", expected)
        assert (folder / "columns.csv").read_bytes() == (folder / "tuples.csv").read_bytes()

    def test_pickle_round_trip(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        out = run_one(spec, ProblemRef("beale"), "spbfgs", NoiseSpec(1e-6, 1e-4), 1)
        back = pickle.loads(pickle.dumps(out))
        assert len(back.trace_rows) == len(out.trace_rows) > 1
        assert back.trace_rows.dtype == out.trace_rows.dtype
        for column in back.trace_rows.dtype.names:
            assert _typed(back.trace_rows[column].tolist()) == \
                _typed(out.trace_rows[column].tolist())
        assert dataclasses.replace(back, trace_rows=()) == dataclasses.replace(out, trace_rows=())

    def test_outcome_holds_few_bytes_per_row(self, tmp_path):
        # tuple rows held ~360 B per row; a packed row holds 98 B (8 per
        # number, 1 per action, bool or None field) plus a fixed cost per run
        spec = small_spec(tmp_path, record_traces=True, budget_evals=2000)
        args = (ProblemRef("cube"), "spbfgs", NoiseSpec(0.0, 0.0), 0)
        run_one(spec, *args)  # first-call allocations are not the outcome's
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = run_one(spec, *args)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(out.trace_rows) > 500
        assert held / len(out.trace_rows) <= 120


class TestExperimentSpec:
    def test_coerces_cells_and_sequences(self):
        spec = ExperimentSpec(problems=[ProblemRef("cube")], methods=["spbfgs"],
                              cells=[(0.0, 1e-2)])
        assert spec.cells == (NoiseSpec(0.0, 1e-2),)
        assert isinstance(spec.problems, tuple)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=(ProblemRef("cube"),), methods=("newton",))

    def test_rejects_empty_problems(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=())

    def test_rejects_empty_cells(self):
        # no cell would run no run and write a header-only summary
        with pytest.raises(ValueError, match="at least one noise cell"):
            ExperimentSpec(problems=(ProblemRef("cube"),), cells=())

    def test_rejects_budgetless(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=(ProblemRef("cube"),), budget_evals=None)

    @pytest.mark.parametrize("ref", [ProblemRef("srosenbr", 3), ProblemRef("beale", 4),
                                     ProblemRef("warp")])
    def test_rejects_bad_problem_before_running(self, ref):
        with pytest.raises(ValueError):
            ExperimentSpec(problems=(ref,))

    def test_run_config_is_the_sweep_run(self, tmp_path):
        spec = small_spec(tmp_path, noise_mode="relative", budget_iters=40)
        problem, cell = get_problem("rosenbrock"), spec.cells[1]
        config = spec.run_config(problem, "bfgs", cell, 2)
        assert config.noise == resolve_cell(problem, cell, "relative") != cell
        assert config.policy == spec.policy.resolve(config.noise.eps_g)
        assert config.linesearch == dataclasses.replace(spec.linesearch,
                                                        eps_armijo=config.noise.eps_f)
        assert (config.budget_evals, config.budget_iters) == (300, 40)
        assert not config.record_iterations and not config.record_hessian_diagnostics
        assert config.h0 is None
        assert config.seed.entropy == run_seed(0, "rosenbrock", "bfgs", cell, 2).entropy


class TestRunExperiment:
    def test_repeat_is_byte_identical(self, tmp_path):
        spec1 = small_spec(tmp_path, out_dir=str(tmp_path / "a"))
        spec2 = small_spec(tmp_path, out_dir=str(tmp_path / "b"))
        r1 = run_experiment(spec1)
        r2 = run_experiment(spec2)
        assert r1.n_runs == 12
        assert r1.n_failed == 0 and r1.n_dropped == 0
        b1 = (tmp_path / "a" / "summary.csv").read_bytes()
        b2 = (tmp_path / "b" / "summary.csv").read_bytes()
        assert b1 == b2
        assert len(r1.rows) == 4  # 1 problem x 2 methods x 2 cells

    def test_workers_do_not_change_results(self, tmp_path):
        # the workers send their outcomes back pickled, trace rows included
        serial = small_spec(tmp_path, replicates=2, budget_evals=200, record_traces=True,
                            out_dir=str(tmp_path / "serial"))
        parallel = small_spec(tmp_path, replicates=2, budget_evals=200, record_traces=True,
                              out_dir=str(tmp_path / "parallel"), workers=2)
        run_experiment(serial)
        run_experiment(parallel)
        for name in ("summary.csv", "traces.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == \
                (tmp_path / "parallel" / name).read_bytes()

    def test_workers_are_spawned(self, tmp_path, monkeypatch):
        # forking a process that already runs numpy's BLAS threads can deadlock the child
        import concurrent.futures

        class Recorded(Exception):
            pass

        seen = []

        def spy(max_workers, mp_context=None):
            seen.append((max_workers, mp_context and mp_context.get_start_method()))
            raise Recorded  # no process is started

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        with pytest.raises(Recorded):
            run_experiment(small_spec(tmp_path, replicates=1, workers=2))
        assert seen == [(2, "spawn")]

    def test_serial_sweep_never_imports_the_process_pool(self, tmp_path):
        # a fresh interpreter: this one may have imported it for workers = 2
        src = str(Path(spbfgs.bench.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from spbfgs.bench import ExperimentSpec, ProblemRef, run_experiment\n"
                "run_experiment(ExperimentSpec(problems=(ProblemRef('cube'),), replicates=1,\n"
                f"                             budget_evals=50, out_dir={str(tmp_path)!r}))\n"
                "print('concurrent.futures.process' in sys.modules)\n")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False\n"
        assert (tmp_path / "summary.csv").exists()

    def test_traces_written(self, tmp_path):
        spec = small_spec(tmp_path, replicates=1, cells=(NoiseSpec(0.0, 0.0),),
                          record_traces=True)
        result = run_experiment(spec)
        assert result.traces_path is not None
        lines = (tmp_path / "results" / "traces.csv").read_text().splitlines()
        assert lines[0].startswith("problem,method,eps_f,eps_g,rep,k,phi")
        assert len(lines) > 2

    def test_relative_cells_keep_configured_factors_in_csv(self, tmp_path):
        spec = small_spec(tmp_path, noise_mode="relative", replicates=1,
                          cells=(NoiseSpec(1e-4, 1e-4),), budget_evals=150)
        run_experiment(spec)
        text = (tmp_path / "results" / "summary.csv").read_text()
        assert ",0.0001,0.0001," in text

    def test_env_overrides(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "env_out"
        monkeypatch.setenv("SPBFGS_BENCH_OUT_DIR", str(target))
        monkeypatch.setenv("SPBFGS_BENCH_WORKERS", "1")
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = cube\nreplicates = 1\n"
                        f"out_dir = {tmp_path / 'config_out'}\nworkers = 2\n\n"
                        "[budget]\nevals = 100\n")
        assert cli_main(["run", str(path)]) == 0
        assert f"summary: {target / 'summary.csv'}" in capsys.readouterr().out
        assert (target / "summary.csv").exists()
        assert not (tmp_path / "config_out").exists()

    @pytest.mark.parametrize("workers", ["abc", "0"])
    def test_bad_env_workers_exits_2(self, tmp_path, monkeypatch, capsys, workers):
        monkeypatch.setenv("SPBFGS_BENCH_WORKERS", workers)
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\nproblems = cube\nout_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_numpy_float_cells_write_the_python_float_bytes(self, tmp_path):
        # a cell built with np.logspace once seeded its runs from
        # repr(np.float64(1e-06)) and wrote that repr to both CSVs
        written = []
        for level in (float, np.float64):
            out = tmp_path / level.__name__
            run_experiment(ExperimentSpec(problems=(ProblemRef("cube"),), methods=("spbfgs",),
                                          cells=((level(1e-6), level(1e-4)),), replicates=2,
                                          budget_evals=100, record_traces=True,
                                          out_dir=str(out)))
            written.append([(out / name).read_bytes() for name in ("summary.csv", "traces.csv")])
        assert written[1] == written[0]
        assert b"cube,spbfgs,1e-06,0.0001," in written[0][0]

    def test_run_experiment_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPBFGS_BENCH_OUT_DIR", str(tmp_path / "env_out"))
        spec = small_spec(tmp_path, replicates=1, cells=(NoiseSpec(0.0, 0.0),))
        result = run_experiment(spec)
        assert result.summary_path == str(tmp_path / "results" / "summary.csv")


FULL_CONFIG = """
[experiment]
problems = rosenbrock, srosenbr:6
methods = spbfgs, bfgs
replicates = 5
master_seed = 11
out_dir = {out}

[noise]
mode = absolute
cells = 0, 0.01; 1e-6, 1e-4

[budget]
evals = 400

[linesearch]
max_backtracks = 45
eps_armijo = auto

[policy]
kind = scaled
scale = 1e8
offset = 1e-10
"""


class TestConfigFile:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(FULL_CONFIG.format(out=tmp_path / "out"))
        spec = load_experiment(path)
        assert spec.problems == (ProblemRef("rosenbrock"), ProblemRef("srosenbr", 6))
        assert spec.methods == ("spbfgs", "bfgs")
        assert spec.cells == (NoiseSpec(0.0, 0.01), NoiseSpec(1e-6, 1e-4))
        assert spec.replicates == 5
        assert spec.master_seed == 11
        assert spec.budget_evals == 400
        assert spec.budget_iters is None
        assert spec.linesearch.eps_armijo is None
        assert spec.policy.kind == "scaled"
        assert spec.policy.scale == 1e8

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "utf8.ini"
        path.write_bytes("# caf\u00e9 \u2014 r\u00e9sum\u00e9\n[experiment]\nproblems = cube"
                         "\nout_dir = r\u00e9sultats\n".encode("utf-8"))
        assert load_experiment(path).out_dir == "r\u00e9sultats"

    def test_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\n")
        spec = load_experiment(path)
        assert spec.methods == ("spbfgs", "bfgs")
        assert spec.replicates == 30
        assert spec.cells == (NoiseSpec(0.0, 0.0),)
        assert spec.budget_evals == 2000
        assert spec.linesearch.max_backtracks == 45
        assert spec.linesearch.tau == 0.5
        assert spec.linesearch.eps_armijo is None

    def test_keys_left_out_keep_the_spec_defaults(self, tmp_path):
        path = tmp_path / "min.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\n")
        assert load_experiment(path) == ExperimentSpec(problems=(ProblemRef("rosenbrock"),))

    def test_explicit_armijo_slack(self, tmp_path):
        path = tmp_path / "e.ini"
        path.write_text("[experiment]\nproblems = cube\n\n"
                        "[linesearch]\neps_armijo = 0.5\n")
        spec = load_experiment(path)
        assert spec.linesearch.eps_armijo == 0.5

    def test_inline_comments(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nproblems = cube\nreplicates = 5  # quick\n")
        assert load_experiment(path).replicates == 5

    def test_linear_without_offset_keeps_bench_offset(self, tmp_path):
        path = tmp_path / "l.ini"
        path.write_text("[experiment]\nproblems = cube\n\n"
                        "[policy]\nkind = linear\nstep_scale = 3\n")
        pol = load_experiment(path).policy
        assert (pol.kind, pol.step_scale, pol.offset) == ("linear", 3.0, 1e-10)

    def test_constant_beta_inf(self, tmp_path):
        path = tmp_path / "b.ini"
        path.write_text("[experiment]\nproblems = cube\n\n"
                        "[policy]\nkind = constant\nbeta = inf\n")
        assert load_experiment(path).policy.beta == math.inf

    @pytest.mark.parametrize("body,needle", [
        ("[experiment]\nproblems = warp\n", "[experiment] problems"),
        ("[experiment]\nproblems = cube\n\n[physics]\ng = 9.8\n", "unknown section"),
        ("[experiment]\nproblems = cube\nspeed = fast\n", "[experiment] speed"),
        ("[experiment]\nproblems = cube\n\n[linesearch]\nalpha0 = fast\n",
         "[linesearch] alpha0"),
        ("[experiment]\nproblems = cube\n\n[noise]\ncells = 1; 2, 3\n", "[noise] cells"),
        ("[experiment]\nproblems = cube\n\n[noise]\ncells = a, 0\n",
         "[noise] cells: expected a number, got 'a'"),
        ("[experiment]\nproblems = cube\nmethods = newton\n", "[experiment] methods"),
        ("[noise]\ncells = 0, 0\n", "problems is required"),
        ("[experiment]\nproblems = cube\n\n[policy]\nkind = bogus\n", "[policy]"),
        ("[experiment]\nproblems = cube\n\n[policy]\nkind = linear\nthreshold = -1\n",
         "[policy]"),
        ("[experiment]\nproblems = cube\nreplicates = 0\n", "replicates"),
        ("[experiment]\nproblems = rosenbrock:\n",
         "[experiment] problems: expected an integer, got ''"),
        ("[experiment]\nproblems = cube, srosenbr :\n",
         "[experiment] problems: expected an integer, got ''"),
    ])
    def test_error_reporting(self, tmp_path, body, needle):
        path = tmp_path / "bad.ini"
        path.write_text(body)
        with pytest.raises(ConfigError) as err:
            load_experiment(path)
        assert needle in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            load_experiment(tmp_path / "absent.ini")
        assert "cannot read" in str(err.value)


def fenced_block_after(text, marker):
    """The lines of the first ``` block after marker in text."""
    rest = text[text.index(marker):]
    start = rest.index("```")
    start = rest.index("\n", start) + 1
    return rest[start:rest.index("```", start)]


class TestReadme:
    def test_shown_output_is_what_the_code_prints(self, capsys):
        # the README must describe what the code actually does
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        library_use = readme[readme.index("## Library use"):]
        code = fenced_block_after(library_use, "```python")
        exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out == fenced_block_after(library_use, "\nprints\n")
        assert cli_main(["list-problems"]) == 0
        assert capsys.readouterr().out == fenced_block_after(
            readme, "`spbfgs-bench list-problems` prints")


class TestCli:
    def test_list_problems(self, capsys):
        assert cli_main(["list-problems"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 13  # header + 12 problems
        assert any(line.startswith("rosenbrock") for line in lines)

    def test_verify_passes(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") >= 5

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_stdout_exits_quietly(self, unbuffered):
        # `spbfgs-bench verify | head -2`, with the reader gone before the
        # first line: no traceback, exit 1, whether stdout is line-written
        # (PYTHONUNBUFFERED) or flushed at the end
        src = str(Path(spbfgs.verify.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "spbfgs.cli", "verify"], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1

    def test_verify_reports_a_broken_check(self, capsys, monkeypatch):
        update = spbfgs.verify.spbfgs_update
        monkeypatch.setattr("spbfgs.verify.spbfgs_update",
                            lambda *args: update(*args) + 1e-6)
        assert cli_main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL closed form matches the penalized QP oracle: max |closed - oracle| = " \
            "1.000e-06" in out

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-file"])
    def test_run_out_dir_not_a_directory_exits_2(self, tmp_path, capsys, monkeypatch, below):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory")
        monkeypatch.setattr("spbfgs.bench.run_one",
                            lambda *args: pytest.fail("a run started"))
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\nworkers = 1\n")
        out_dir = blocker / below
        assert cli_main(["run", str(path), "--out-dir", str(out_dir)]) == 2
        assert capsys.readouterr().err.startswith(f"error: [experiment] out_dir = {out_dir}: ")

    @pytest.mark.parametrize("name, argv", [("summary.csv", []), ("traces.csv", ["--trace"])],
                             ids=["summary", "traces"])
    def test_run_unwritable_output_exits_2(self, tmp_path, capsys, monkeypatch, name, argv):
        # each ran the whole sweep, then ended in an IsADirectoryError traceback
        out_dir = tmp_path / "out"
        (out_dir / name).mkdir(parents=True)
        (out_dir / "old.csv").write_text("kept\n")
        calls = []
        monkeypatch.setattr("spbfgs.bench.run_one", lambda *args: calls.append(args))
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\nworkers = 1\n")
        assert cli_main(["run", str(path), "--out-dir", str(out_dir), *argv]) == 2
        assert calls == []
        assert capsys.readouterr().err.startswith(
            f"error: [experiment] out_dir = {out_dir}: cannot write {name} there (")
        assert (out_dir / "old.csv").read_text() == "kept\n"

    def test_run_keeps_old_outputs_until_the_sweep_has_run(self, tmp_path, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in ("summary.csv", "traces.csv"):
            (out_dir / name).write_text("old\n")
        seen = []
        run_one = spbfgs.bench.run_one

        def spy(*args):
            seen.append([(out_dir / name).read_text() for name in ("summary.csv", "traces.csv")])
            return run_one(*args)

        monkeypatch.setattr("spbfgs.bench.run_one", spy)
        spec = small_spec(tmp_path, replicates=1, budget_evals=50, record_traces=True,
                          out_dir=str(out_dir))
        run_experiment(spec)
        assert seen == [["old\n", "old\n"]] * 4
        assert (out_dir / "summary.csv").read_text().startswith("problem,method,")
        assert (out_dir / "traces.csv").read_text().startswith("problem,method,")

    def test_run_config_not_utf8_exits_2(self, tmp_path, capsys):
        # a Latin-1 comment ended in a UnicodeDecodeError traceback
        path = tmp_path / "latin1.ini"
        path.write_bytes("# caf\u00e9\n[experiment]\nproblems = cube\n".encode("latin-1"))
        assert cli_main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: not UTF-8 text (")
        assert not (tmp_path / "out").exists()

    def test_run_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\nreplicates = 2\n"
                        f"out_dir = {tmp_path / 'out'}\n\n[budget]\nevals = 200\n")
        assert cli_main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "4 runs" in out
        summary = tmp_path / "out" / "summary.csv"
        assert summary.exists()
        assert len(summary.read_text().splitlines()) == 3  # header + 2 cells

    def test_run_overrides(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = cube\nreplicates = 9\n\n"
                        "[budget]\nevals = 150\n")
        code = cli_main(["run", str(path), "--replicates", "1", "--seed", "3",
                         "--out-dir", str(tmp_path / "o"), "--trace"])
        assert code == 0
        assert (tmp_path / "o" / "summary.csv").exists()
        assert (tmp_path / "o" / "traces.csv").exists()
        assert "2 runs" in capsys.readouterr().out

    def test_run_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nproblems = warp\n")
        assert cli_main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["srosenbr:3", "beale:4", "rosenbrock:"])
    def test_run_bad_problem_size_exits_2(self, tmp_path, capsys, problem):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblems = {problem}\nout_dir = {tmp_path / 'out'}\n")
        assert cli_main(["run", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    @pytest.mark.parametrize("lines, repeat", [
        ("problems = srosenbr, srosenbr:4", "problem 'srosenbr'"),
        ("problems = rosenbrock, rosenbrock", "problem 'rosenbrock'"),
        ("problems = cube\nmethods = spbfgs, spbfgs", "method 'spbfgs'"),
        ("problems = cube\n[noise]\ncells = 1e-4, 1e-4; 1e-4, 0.0001", "cell (0.0001, 0.0001)"),
    ], ids=["problem-by-name", "problem", "method", "cell-by-repr"])
    def test_run_repeated_entry_exits_2(self, tmp_path, capsys, monkeypatch, lines, repeat):
        # each wrote summary rows that could not be told apart; srosenbr at
        # two sizes also drew both runs from one seed stream
        monkeypatch.setattr("spbfgs.bench.run_one", lambda *args: pytest.fail("a run started"))
        path = tmp_path / "repeat.ini"
        path.write_text(f"[experiment]\nout_dir = {tmp_path / 'out'}\n{lines}\n")
        assert cli_main(["run", str(path)]) == 2
        assert f"error: {repeat} is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_run_reports_failure_reasons(self, tmp_path, capsys, monkeypatch):
        def breaking_problem(name, n=None):
            calls = [0]

            def grad(x):
                calls[0] += 1
                return 2.0 * x if calls[0] < 4 else np.full_like(x, np.nan)

            return Problem(name, 2, lambda x: float(x @ x), grad, np.ones(2), 0.0)

        monkeypatch.setattr("spbfgs.bench.get_problem", breaking_problem)
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = rosenbrock\nmethods = spbfgs\n"
                        f"replicates = 2\nout_dir = {tmp_path / 'out'}\n\n"
                        "[budget]\nevals = 50\n")
        assert cli_main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "2 failed runs" in err
        for rep in (0, 1):
            assert (f"failed: rosenbrock spbfgs eps_f=0.0 eps_g=0.0 rep {rep}: "
                    "non-finite state at iteration") in err

    @pytest.mark.parametrize("argv,env,section,line", [
        (["--seed", "3"], {}, "experiment", "master_seed = 3"),
        (["--out-dir", "elsewhere"], {}, "experiment", "out_dir = elsewhere"),
        (["--replicates", "2"], {}, "experiment", "replicates = 2"),
        (["--budget-evals", "50"], {}, "budget", "evals = 50"),
        (["--budget-iters", "7"], {}, "budget", "iters = 7"),
        (["--trace"], {}, "experiment", "record_traces = true"),
        ([], {"SPBFGS_BENCH_OUT_DIR": "elsewhere"}, "experiment", "out_dir = elsewhere"),
        ([], {"SPBFGS_BENCH_WORKERS": "2"}, "experiment", "workers = 2"),
    ], ids=["--seed", "--out-dir", "--replicates", "--budget-evals", "--budget-iters",
            "--trace", "SPBFGS_BENCH_OUT_DIR", "SPBFGS_BENCH_WORKERS"])
    def test_override_is_its_config_key(self, tmp_path, monkeypatch, argv, env, section, line):
        base = "[experiment]\nproblems = cube\n"
        keyed = base + (line if section == "experiment" else f"\n[{section}]\n{line}") + "\n"
        (tmp_path / "base.ini").write_text(base)
        (tmp_path / "keyed.ini").write_text(keyed)
        by_file = run_cli_spec(monkeypatch, tmp_path, ["run", str(tmp_path / "keyed.ini")])
        base_argv = ["run", str(tmp_path / "base.ini")]
        by_override = run_cli_spec(monkeypatch, tmp_path, base_argv + argv, env)
        assert by_override == by_file != ExperimentSpec(problems=(ProblemRef("cube"),))

    def test_budget_iters_flag_sets_iters_only(self, tmp_path, monkeypatch):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = cube\n")
        spec = run_cli_spec(monkeypatch, tmp_path, ["run", str(path), "--budget-iters", "7"])
        assert (spec.budget_evals, spec.budget_iters) == (None, 7)
        path.write_text("[experiment]\nproblems = cube\n\n[budget]\nevals = 100\n")
        spec = run_cli_spec(monkeypatch, tmp_path, ["run", str(path), "--budget-iters", "7"])
        assert (spec.budget_evals, spec.budget_iters) == (100, 7)

    @pytest.mark.parametrize("budget,argv", [
        ("evals = 0", []),
        ("iters = -1", []),
        ("", ["--budget-evals", "0"]),
        ("", ["--budget-iters", "-1"]),
    ], ids=["evals=0", "iters=-1", "--budget-evals=0", "--budget-iters=-1"])
    def test_bad_budget_exits_2_before_any_run(self, tmp_path, capsys, budget, argv):
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblems = cube\nout_dir = {tmp_path / 'out'}\n\n"
                        f"[budget]\n{budget}\n")
        assert cli_main(["run", str(path), *argv]) == 2
        assert "error: budget_" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body,needle", [
        ("[policy]\nkind = linear\nstep_scale = inf\n", "must be finite"),
        ("[policy]\nkind = thresholded\nstep_scale = 1e308\nthreshold = inf\n",
         "must be finite"),
        ("[noise]\ncells = 0.0, 1e-320\n", "cube, cell 0.0, 1e-320: scaled policy"),
        ("[noise]\nmode = relative\ncells = 0.0, 1e-320\n",
         "cube, cell 0.0, 1e-320: scaled policy"),
        ("[noise]\nmode = relative\ncells = 1e308, 0\n",
         "cube, cell 1e+308, 0.0: eps_f must be finite"),
        ("[policy]\nkind = linear\nskip_zeta = 2\n", "[policy] skip_zeta"),
    ], ids=["linear-step_scale=inf", "thresholded-threshold=inf", "scaled-absolute-overflow",
            "scaled-relative-overflow", "relative-eps_f-overflow", "linear-skip_zeta=2"])
    def test_bad_policy_or_cell_exits_2_before_any_run(self, tmp_path, capsys, body, needle):
        # each crashed mid-sweep: a nan beta (inf * 0 at a zero step, or
        # inf - inf), or a relative cell resolving to an infinite noise level;
        # a field out of range that the kind does not use ran with exit 0
        path = tmp_path / "bad.ini"
        path.write_text(f"[experiment]\nproblems = cube\nout_dir = {tmp_path / 'out'}\n\n"
                        f"[budget]\nevals = 300\n\n{body}")
        assert cli_main(["run", str(path)]) == 2
        assert needle in capsys.readouterr().err
        assert not (tmp_path / "out" / "summary.csv").exists()

    def test_bad_variable_is_named(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SPBFGS_BENCH_WORKERS", "abc")
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = cube\n")
        assert cli_main(["run", str(path)]) == 2
        assert "SPBFGS_BENCH_WORKERS" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, key", [("--seed", "[experiment] master_seed"),
                                           ("--replicates", "[experiment] replicates"),
                                           ("--budget-evals", "[budget] evals"),
                                           ("--budget-iters", "[budget] iters")])
    def test_bad_flag_is_named(self, tmp_path, capsys, flag, key):
        # the config table's parser reports it, as for a variable or a file entry
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nproblems = cube\n")
        assert cli_main(["run", str(path), flag, "abc"]) == 2
        assert f"{key} (from {flag}): expected an integer, got 'abc'" in capsys.readouterr().err

    def test_run_missing_config_exits_2(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli_main([])
        assert err.value.code == 2


class TestBenchmarkContract:
    """What perfbench/ relies on; a break shows there only as outputs_incorrect.

    The driver calls baseline_update_ok only through resolve_beta, yet
    perfbench/tracer.py still wraps spbfgs.optimizer.baseline_update_ok, and
    perfbench/run.py looks every wrapped name up before a workload's first
    sweep.  So the name stays in spbfgs.optimizer until the tracer drops it
    from OPTIMIZER_NAMES, and it must be the policy's own function, not a
    stub kept for the lookup.
    """

    def test_tracer_targets_exist(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            tracer = importlib.import_module("tracer")
            missing = [(owner.__name__, attr) for owner, attr in tracer.targets(spbfgs)
                       if not hasattr(owner, attr)]
        finally:
            sys.modules.pop("tracer", None)
        assert missing == []
        for name in ("baseline_update_ok", "resolve_beta", "propose_beta"):
            assert getattr(spbfgs.optimizer, name) is getattr(spbfgs.policy, name)

    def test_run_one_takes_the_tracer_arguments(self):
        # perfbench/tracer.py's new_run passes these positionally, in this order
        params = inspect.signature(run_one).parameters.values()
        assert [p.name for p in params] == ["spec", "problem_ref", "method", "cell", "rep"]
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}

    def test_trace_rows_count_the_lines_written(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        outcomes = [run_one(spec, ProblemRef(name), "bfgs", NoiseSpec(1e-6, 1e-4), 0)
                    for name in ("rosenbrock", "beale")]
        for i, out in enumerate(outcomes):
            write_traces_csv(tmp_path / f"{i}.csv", [out])
            assert len((tmp_path / f"{i}.csv").read_text().splitlines()) == 1 + len(out.trace_rows)
        write_traces_csv(tmp_path / "all.csv", outcomes)
        assert len((tmp_path / "all.csv").read_text().splitlines()) == \
            1 + sum(len(o.trace_rows) for o in outcomes)

    def test_traced_outcome_compares_and_hashes(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        args = (spec, ProblemRef("rosenbrock"), "spbfgs", NoiseSpec(1e-6, 1e-4), 0)
        out, again = run_one(*args), run_one(*args)
        assert len(out.trace_rows) > 1
        assert out == again and hash(out) == hash(again)
        assert out != dataclasses.replace(out, rep=1)

    def test_traced_outcome_survives_pickle_and_replace(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        out = run_one(spec, ProblemRef("beale"), "bfgs", NoiseSpec(1e-6, 1e-4), 0)
        back = pickle.loads(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
        assert back == out and len(back.trace_rows) == len(out.trace_rows) > 1
        assert back.trace_rows.tobytes() == out.trace_rows.tobytes()
        dropped = dataclasses.replace(back, trace_rows=())
        assert dropped == out and len(dropped.trace_rows) == 0

    def test_trace_fields_are_one_record_dtype(self):
        # 8 B per int or float, 1 B per action or bool, one bool None field
        # per column that can hold no value; traces.csv writes a subset
        names = RECORD_DTYPE.names
        assert set(TRACE_RECORD_COLUMNS) <= set(names)
        nones = [name for name in names if name.endswith("_none")]
        assert nones == [f"{name}_none" for name in ("alpha", "f_accepted", "n_trials", "beta",
                                                      "sty", "trace_h", "pd_ok")]
        assert all(RECORD_DTYPE[name] == np.dtype(bool) for name in nones)
        assert {RECORD_DTYPE[name].kind for name in TRACE_RECORD_COLUMNS} == {"i", "f", "b"}
        assert RECORD_DTYPE["action"] == np.dtype(np.int8) and ACTIONS[0] is None
        assert RECORD_DTYPE.itemsize == 98

    def test_trace_rows_can_be_dropped(self, tmp_path):
        spec = small_spec(tmp_path, record_traces=True)
        out = run_one(spec, ProblemRef("rosenbrock"), "spbfgs", NoiseSpec(0.0, 0.0), 0)
        dropped = dataclasses.replace(out, trace_rows=())
        assert len(dropped.trace_rows) == 0 and dropped.dopt == out.dopt
        write_traces_csv(tmp_path / "traces.csv", [dropped])
        assert (tmp_path / "traces.csv").read_text().splitlines() == [",".join(TRACE_COLUMNS)]
