"""Experiment harness: seeded sweeps over problems x methods x noise cells.

Accuracy of a run is reported as

    delta_opt = log10(phi_best - phi_star),

where phi_best is the smallest TRUE value measured at any evaluated point
(line-search trials included) and phi_star the problem's known minimum;
gaps at or below 1e-300 are floored to -300.  Per-cell statistics use the
Bessel-corrected sample variance.

Replicate r of a cell draws its noise from a stream derived by hashing
(master_seed, problem, method, cell, r), so results do not depend on
execution order and independent runs may execute in parallel; repeating an
experiment with the same master seed yields a byte-identical summary CSV.

Summary CSV schema (fixed):

    problem,method,eps_f,eps_g,n_runs,mean_dopt,median_dopt,min_dopt,
    max_dopt,var_dopt,mean_iters

In relative noise mode the eps_f/eps_g columns carry the configured
relative factors; the resolved absolute levels scale with |phi(x0)| and
||grad phi(x0)|| per problem.  ExperimentSpec.run_config builds each run's
RunConfig, which resolves the spec's policy and Armijo slack
(eps_armijo = None, the default) against them.
Optional long-format per-iteration traces (one row per iteration per run)
support convergence and penalty plots.  A traced run keeps the driver's
records, one packed optimizer.RECORD_DTYPE row (98 B) per iterate;
traces.csv is written from them one run and one field at a time, each row
led by the run's five values from its RunOutcome.
"""

import csv
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .errors import ConfigError, EmptyCellError
from .linesearch import LineSearchConfig
from .noise import NoiseSpec
from .optimizer import RunConfig, minimize, minimize_baseline_bfgs
from .policy import PenaltyPolicy
from .problems import get_problem

METHODS = ("spbfgs", "bfgs")

SUMMARY_COLUMNS = (
    "problem", "method", "eps_f", "eps_g", "n_runs",
    "mean_dopt", "median_dopt", "min_dopt", "max_dopt", "var_dopt", "mean_iters",
)

# Trace CSV: five columns name the run, then the record fields it writes,
# each one a field of the run's records; both the header and every row
# derive from these.
TRACE_RUN_COLUMNS = ("problem", "method", "eps_f", "eps_g", "rep")
TRACE_RECORD_COLUMNS = ("k", "phi", "grad_norm", "f_measured", "alpha", "beta", "sty",
                        "curvature_failed", "trace_h", "evals")
TRACE_COLUMNS = TRACE_RUN_COLUMNS + TRACE_RECORD_COLUMNS


def delta_opt(phi_best, phi_star):
    """log10 of the true optimality gap, floored at -300."""
    gap = phi_best - phi_star
    if gap <= 1e-300:
        return -300.0
    return math.log10(gap)


@dataclass(frozen=True)
class SummaryStats:
    """Per-cell statistics over replicate delta_opt values."""

    n: int
    mean: float
    median: float
    vmin: float
    vmax: float
    var: Optional[float]  # Bessel-corrected; None when n < 2
    mean_iters: float


def summarize(dopts, iters):
    """Statistics over one cell's replicates; raises EmptyCellError on none."""
    if len(dopts) == 0:
        raise EmptyCellError("no runs to summarize")
    if len(dopts) != len(iters):
        raise ValueError("dopts and iters must have equal length")
    arr = np.asarray(dopts, dtype=float)
    var = float(np.var(arr, ddof=1)) if arr.shape[0] > 1 else None
    return SummaryStats(
        n=arr.shape[0],
        mean=float(np.mean(arr)),
        median=float(np.median(arr)),
        vmin=float(np.min(arr)),
        vmax=float(np.max(arr)),
        var=var,
        mean_iters=float(np.mean(np.asarray(iters, dtype=float))),
    )


@dataclass(frozen=True)
class ProblemRef:
    """A built-in problem name plus an optional size override."""

    name: str
    n: Optional[int] = None

    def instantiate(self):
        return get_problem(self.name, self.n)


def _reject_repeat(kind, keys):
    """ValueError naming the first key that repeats: its rows could not be told apart."""
    seen = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"{kind} {key} is listed twice; a summary row is keyed by it, "
                             "so the repeats could not be told apart")
        seen.add(key)


@dataclass(frozen=True)
class ExperimentSpec:
    problems: Tuple[ProblemRef, ...]
    methods: Tuple[str, ...] = METHODS
    cells: Tuple[NoiseSpec, ...] = (NoiseSpec(0.0, 0.0),)
    noise_mode: str = "absolute"  # or "relative": scales by |phi(x0)|, ||grad phi(x0)||
    replicates: int = 30
    master_seed: int = 0
    budget_evals: Optional[int] = 2000
    budget_iters: Optional[int] = None
    linesearch: LineSearchConfig = LineSearchConfig(eps_armijo=None)  # None: the cell's eps_f
    policy: PenaltyPolicy = PenaltyPolicy(kind="scaled", scale=1e8, offset=1e-10)
    out_dir: str = "results"
    record_traces: bool = False
    workers: int = 1

    def __post_init__(self):
        # Accept lists and bare (eps_f, eps_g) pairs; store canonical tuples.
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self,
            "cells",
            tuple(c if isinstance(c, NoiseSpec) else NoiseSpec(*c) for c in self.cells),
        )
        if len(self.problems) == 0:
            raise ValueError("experiment needs at least one problem")
        instances = []
        for ref in self.problems:
            try:
                instances.append(ref.instantiate())  # sizes are checked here, not mid-sweep
            except KeyError as exc:
                raise ValueError(exc.args[0]) from exc
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}, expected subset of {METHODS}")
        if len(self.methods) == 0:
            raise ValueError("experiment needs at least one method")
        if len(self.cells) == 0:
            raise ValueError("experiment needs at least one noise cell")
        # run_seed and the summary key a run by the problem's name (not its
        # n) and a cell by the reprs of its two levels, so these must differ
        _reject_repeat("problem", [repr(problem.name) for problem in instances])
        _reject_repeat("method", [repr(m) for m in self.methods])
        _reject_repeat("cell", [f"({cell.eps_f!r}, {cell.eps_g!r})" for cell in self.cells])
        if self.noise_mode not in ("absolute", "relative"):
            raise ValueError(f"noise_mode must be absolute or relative, got {self.noise_mode!r}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        # RunConfig owns the budget rule; applied here, it fails before any run
        RunConfig(budget_evals=self.budget_evals, budget_iters=self.budget_iters)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # building each (problem, cell)'s first run here makes anything a run's
        # config rejects, such as an overflowing noise level or scale / eps_g,
        # a config error before any run, not a failure mid-sweep
        for problem in instances:
            for cell in self.cells:
                try:
                    self.run_config(problem, self.methods[0], cell, 0)
                except ValueError as exc:
                    raise ValueError(f"{problem.name}, cell {cell.eps_f!r}, {cell.eps_g!r}: "
                                     f"{exc}") from exc

    def run_config(self, problem, method, cell, rep):
        """The RunConfig of sweep run (problem, method, cell, rep); problem is a built Problem."""
        return RunConfig(
            policy=self.policy,
            linesearch=self.linesearch,
            noise=resolve_cell(problem, cell, self.noise_mode),
            budget_evals=self.budget_evals,
            budget_iters=self.budget_iters,
            seed=run_seed(self.master_seed, problem.name, method, cell, rep),
            record_iterations=self.record_traces,
        )


@dataclass(frozen=True)
class RunOutcome:
    problem: str
    method: str
    cell: NoiseSpec
    rep: int
    dopt: float
    n_iterations: int
    failed: bool
    failure: Optional[str] = None
    # the run's records (RECORD_DTYPE rows); () when it kept none.  Not
    # compared or hashed: an array has no single truth value and no hash.
    trace_rows: Union[np.ndarray, Tuple[()]] = field(default=(), compare=False)


@dataclass
class SummaryRow:
    problem: str
    method: str
    cell: NoiseSpec
    stats: SummaryStats


@dataclass
class ExperimentResult:
    rows: List[SummaryRow] = field(default_factory=list)
    n_runs: int = 0
    failed: List[RunOutcome] = field(default_factory=list)  # in job order
    n_dropped: int = 0  # runs with no finite measurement at all
    summary_path: Optional[str] = None
    traces_path: Optional[str] = None

    @property
    def n_failed(self):
        return len(self.failed)


def run_seed(master_seed, problem_name, method, cell, rep):
    """Deterministic, order-independent seed material for one run."""
    key = f"{master_seed}|{problem_name}|{method}|{cell.eps_f!r}|{cell.eps_g!r}|{rep}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    words = [int.from_bytes(digest[i:i + 4], "big") for i in range(0, 16, 4)]
    return np.random.SeedSequence(words)


def resolve_cell(problem, cell, noise_mode):
    """The cell's absolute noise levels for this problem."""
    if noise_mode == "absolute":
        return cell
    phi0 = abs(float(problem.f(problem.x0)))
    g0 = float(np.linalg.norm(problem.grad(problem.x0)))
    return NoiseSpec(cell.eps_f * phi0, cell.eps_g * g0)


def run_one(spec, problem_ref, method, cell, rep):
    """Execute a single replicate and reduce it to a RunOutcome."""
    problem = problem_ref.instantiate()
    config = spec.run_config(problem, method, cell, rep)
    trace = (minimize if method == "spbfgs" else minimize_baseline_bfgs)(problem, config)
    rows = trace.records if len(trace.records) else ()
    return RunOutcome(
        problem=problem.name,
        method=method,
        cell=cell,
        rep=rep,
        dopt=delta_opt(trace.phi_best, problem.phi_star),
        n_iterations=trace.n_iterations,
        failed=trace.failed,
        failure=trace.failure,
        trace_rows=rows,
    )


def write_summary_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for row in rows:
            st = row.stats
            writer.writerow([row.problem, row.method, row.cell.eps_f, row.cell.eps_g, st.n,
                             st.mean, st.median, st.vmin, st.vmax, st.var, st.mean_iters])


# How a value of each dtype kind is written: as csv.writer writes its Python value, bools as 1/0
_TEXT = {"i": str, "f": repr, "b": lambda v: "1" if v else "0"}


def _text_columns(rows):
    """Each of rows' TRACE_RECORD_COLUMNS as the list of its traces.csv fields."""
    for column in TRACE_RECORD_COLUMNS:
        values = rows[column]
        text = list(map(_TEXT[values.dtype.kind], values.tolist()))
        none = f"{column}_none"
        if none in rows.dtype.names:
            for i in np.flatnonzero(rows[none]).tolist():
                text[i] = ""  # None
        yield text


def write_traces_csv(path, outcomes):
    """traces.csv: the header, then every row of each outcome, one outcome at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for outcome in outcomes:
            rows = outcome.trace_rows
            if not len(rows):
                continue
            # the run values lead every row; csv quotes them as the header's writer would
            run_values = (outcome.problem, outcome.method, outcome.cell.eps_f,
                          outcome.cell.eps_g, outcome.rep)  # TRACE_RUN_COLUMNS
            lead = io.StringIO()
            csv.writer(lead, lineterminator=",").writerow(run_values)
            lead = lead.getvalue()
            fh.writelines(lead + ",".join(fields) + "\n" for fields in zip(*_text_columns(rows)))


def run_experiment(spec):
    """Run the full sweep, write CSVs under spec.out_dir, return the result.

    spec.out_dir and each CSV the sweep writes are created before the first
    run; ConfigError if one cannot be.  An existing CSV is overwritten only
    once the sweep has run.
    """
    out = Path(spec.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"[experiment] out_dir = {spec.out_dir}: cannot create a "
                          f"directory there ({exc.strerror})") from exc
    summary_path = out / "summary.csv"
    traces_path = out / "traces.csv" if spec.record_traces else None
    for path in filter(None, (summary_path, traces_path)):
        try:
            open(path, "ab").close()  # creates the file, truncates nothing
        except OSError as exc:
            raise ConfigError(f"[experiment] out_dir = {spec.out_dir}: cannot write "
                              f"{path.name} there ({exc.strerror})") from exc
    # in (problem, method, cell, replicate) order: a cell's replicates are consecutive
    jobs = [
        (problem_ref, method, cell, rep)
        for problem_ref in spec.problems
        for method in spec.methods
        for cell in spec.cells
        for rep in range(spec.replicates)
    ]
    if spec.workers > 1:
        # imported only here: the process pool's module costs a process ~1 MB of
        # RSS and ~25 ms of start-up, and workers = 1 never uses it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # spawned, not forked: numpy's BLAS threads already run in this process
        with ProcessPoolExecutor(max_workers=spec.workers,
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            outcomes = list(pool.map(run_one, [spec] * len(jobs), *zip(*jobs), chunksize=4))
    else:
        outcomes = [run_one(spec, *job) for job in jobs]

    result = ExperimentResult(n_runs=len(outcomes), failed=[o for o in outcomes if o.failed])
    for i in range(0, len(outcomes), spec.replicates):
        group = outcomes[i:i + spec.replicates]
        kept = [o for o in group if math.isfinite(o.dopt)]
        result.n_dropped += len(group) - len(kept)
        if kept:
            stats = summarize([o.dopt for o in kept], [o.n_iterations for o in kept])
            result.rows.append(SummaryRow(group[0].problem, group[0].method, group[0].cell, stats))
    write_summary_csv(summary_path, result.rows)
    result.summary_path = str(summary_path)
    if traces_path is not None:
        write_traces_csv(traces_path, outcomes)
        result.traces_path = str(traces_path)
    return result
