"""Outside-in span tracer for the benchmark's traced run.

The sweep path looks the wrapped names up at call time (module globals of
spbfgs.optimizer, spbfgs.noise and spbfgs.bench, and the methods of
NoisyOracle), so replacing those attributes puts a span around every call
without changing a file of the program. Problems are wrapped per instance:
bench.get_problem is replaced by a function that returns the problem with
its f and grad wrapped, through dataclasses.replace.

A span is (name, start, end, parent, run id), kept in flat arrays while the
sweep runs. A span's self time is its duration minus the durations of its
direct children; child spans nest inside their parent, so that is the part
of the interval no child covers.
"""

import dataclasses
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

OPTIMIZER_NAMES = {
    "backtrack": "linesearch.backtrack",
    "CurvaturePair": "updates.CurvaturePair",
    "compute_penalty_scalars": "updates.compute_penalty_scalars",
    "spbfgs_update": "updates.spbfgs_update",
    "propose_beta": "policy.propose_beta",
    "resolve_beta": "policy.resolve_beta",
    "baseline_update_ok": "policy.baseline_update_ok",
    "_run": "optimizer._run",
}
POLICY_SPANS = ("policy.propose_beta", "policy.resolve_beta", "policy.baseline_update_ok")


def targets(spbfgs):
    """Every (owner, attribute) the traced run replaces."""
    bench = spbfgs.bench
    return ([(spbfgs.optimizer, attr) for attr in OPTIMIZER_NAMES]
            + [(spbfgs.noise.NoisyOracle, "f"), (spbfgs.noise.NoisyOracle, "grad"),
               (spbfgs.noise, "sample_ball")]
            + [(bench, attr) for attr in ("run_one", "write_summary_csv", "write_traces_csv",
                                          "get_problem")])


def kernel_flops(n):
    """Computed flops of _kernels_py.penalized_rank_two_update at size n.

    A multiply-add counts 2: h @ y is 2n^2, y @ hy is 2n, the coefficient is
    3; three outer products, two scalings and three sums are 8n^2; the
    symmetrizing 0.5 * (out + out.T) is 2n^2.
    """
    return 12 * n * n + 2 * n + 3


def kernel_bytes(n):
    """Computed bytes moved by the same kernel at size n.

    Each numpy operation reads its operands and writes its result once, as
    8-byte doubles, with no reuse from cache: 22 n x n passes and 10 vector
    passes in all.
    """
    return 8 * (22 * n * n + 10 * n)


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    """Spans and counters for one traced sweep or more."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._run_id = -1
        self._patched = []
        self.counts = Counter()
        self.kernel_n = Counter()
        self.run_noiseless = []  # per run id: does its cell draw no noise at all
        self.iterations = 0

    def span(self, name, fn, observe=None):
        """fn wrapped so that each call records a span, then observe(args, result)."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        names, parents, runs, starts, ends, stack = (
            self.name, self.parent, self.run, self.start, self.end, self._stack)

        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            runs.append(self._run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.span(name, original, observe))

    def install(self, spbfgs):
        """Replace every attribute in targets(spbfgs) with its traced form."""
        counts = self.counts
        opt, bench = spbfgs.optimizer, spbfgs.bench

        def on_backtrack(args, result):
            counts["ls.accepted" if result[0] > 0.0 else "ls.exhausted"] += 1

        def on_resolve(args, result):
            counts["policy.decisions"] += 1
            counts["policy.skips"] += result[1] == spbfgs.policy.SKIP

        def on_baseline(args, result):
            counts["policy.decisions"] += 1
            counts["policy.skips"] += not result

        def on_update(args, result):
            self.kernel_n[args[1].n] += 1

        def on_run(args, result):
            counts["records"] += len(result.records)

        observers = {"backtrack": on_backtrack, "resolve_beta": on_resolve,
                     "baseline_update_ok": on_baseline, "spbfgs_update": on_update,
                     "_run": on_run}
        for attr, name in OPTIMIZER_NAMES.items():
            self._patch(opt, attr, name, observers.get(attr))
        self._patch(spbfgs.noise.NoisyOracle, "f", "noise.f")
        self._patch(spbfgs.noise.NoisyOracle, "grad", "noise.grad")
        self._patch(spbfgs.noise, "sample_ball", "noise.ball")
        self._patch(bench, "write_summary_csv", "bench.write_summary_csv")
        self._patch(bench, "write_traces_csv", "bench.write_traces_csv")

        get_problem = bench.get_problem
        self._patched.append((bench, "get_problem", get_problem))

        def traced_get_problem(*args, **kwargs):
            problem = get_problem(*args, **kwargs)
            return dataclasses.replace(problem, f=self.span("problems.f", problem.f),
                                       grad=self.span("problems.grad", problem.grad))

        bench.get_problem = traced_get_problem

        def on_run_one(args, outcome):
            self.iterations += outcome.n_iterations

        run_one = bench.run_one
        self._patched.append((bench, "run_one", run_one))
        traced_run_one = self.span("bench.run_one", run_one, on_run_one)

        def new_run(spec, problem_ref, method, cell, rep):
            self._run_id = len(self.run_noiseless)
            self.run_noiseless.append(cell.noiseless)
            return traced_run_one(spec, problem_ref, method, cell, rep)

        bench.run_one = new_run

    def restore(self):
        """Put every replaced attribute back, last replaced first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self):
        """The spans as numpy arrays: name id, parent id, run id, start, end."""
        # copies, so that the arrays may still grow afterwards
        return (np.frombuffer(self.name, dtype=np.intc).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.run, dtype=np.intc).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy())

    def self_times(self):
        """name id, parent id, run id, duration and self time of every span."""
        name, parent, run, start, end = self.spans()
        dur = end - start
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return name, parent, run, dur, self_t

    def noiseless_ball_draws(self):
        """(ball draws made in runs of a noiseless cell, number of such runs)."""
        name, _, run, _, _ = self.spans()
        noiseless_runs = np.flatnonzero(np.array(self.run_noiseless, dtype=bool))
        ball = self._ids.get("noise.ball", -1)
        return (int(np.count_nonzero((name == ball) & np.isin(run, noiseless_runs))),
                len(noiseless_runs))

    def layer_metrics(self, n_sweeps, sweep_wall_s):
        """Per-layer metrics over every traced sweep: name -> (value, sample count).

        n_sweeps traced sweeps took sweep_wall_s seconds of run_experiment
        wall time in all.
        """
        name, parent, _, dur, self_t = self.self_times()
        k = len(self.names)
        nested = parent >= 0
        calls_by = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_t, minlength=k)
        dur_by = np.bincount(name, weights=dur, minlength=k)
        parent_name = np.where(nested, name[np.where(nested, parent, 0)], -1)
        ids = self._ids

        def calls(n):
            return int(calls_by[ids[n]]) if n in ids else 0

        def self_s(n):
            return float(self_by[ids[n]]) if n in ids else 0.0

        def total_s(n):
            return float(dur_by[ids[n]]) if n in ids else 0.0

        def under(child, parent):
            if child not in ids or parent not in ids:
                return 0
            return int(np.count_nonzero((name == ids[child]) & (parent_name == ids[parent])))

        iters, runs, c = self.iterations, calls("bench.run_one"), self.counts
        run_wall = total_s("bench.run_one")
        true_calls = calls("problems.f") + calls("problems.grad")
        side = true_calls - under("problems.f", "noise.f") - under("problems.grad", "noise.grad")
        trials = under("noise.f", "linesearch.backtrack")
        kernel_calls = sum(self.kernel_n.values())
        top_level = float(dur[~nested].sum())
        m = {
            "problems.f.calls_per_iter": (_ratio(calls("problems.f"), iters), iters),
            "problems.grad.calls_per_iter": (_ratio(calls("problems.grad"), iters), iters),
            "problems.f.us_per_call": (1e6 * _ratio(self_s("problems.f"), calls("problems.f")),
                                       calls("problems.f")),
            "problems.grad.us_per_call": (
                1e6 * _ratio(self_s("problems.grad"), calls("problems.grad")),
                calls("problems.grad")),
            "problems.side_frac": (_ratio(side, true_calls), true_calls),
            "noise.f.calls_per_iter": (_ratio(calls("noise.f"), iters), iters),
            "noise.f.self_us": (1e6 * _ratio(self_s("noise.f"), calls("noise.f")), calls("noise.f")),
            "noise.grad.self_us": (1e6 * _ratio(self_s("noise.grad"), calls("noise.grad")),
                                   calls("noise.grad")),
            "noise.ball.calls_per_iter": (_ratio(calls("noise.ball"), iters), iters),
            "noise.ball.us_per_call": (1e6 * _ratio(self_s("noise.ball"), calls("noise.ball")),
                                       calls("noise.ball")),
            "linesearch.trials_per_call": (_ratio(trials, calls("linesearch.backtrack")),
                                           calls("linesearch.backtrack")),
            "linesearch.accept_frac": (_ratio(c["ls.accepted"], trials), trials),
            "linesearch.exhausted_frac": (_ratio(c["ls.exhausted"], calls("linesearch.backtrack")),
                                          calls("linesearch.backtrack")),
            "linesearch.self_us_per_call": (
                1e6 * _ratio(self_s("linesearch.backtrack"), calls("linesearch.backtrack")),
                calls("linesearch.backtrack")),
            "policy.us_per_call": (
                1e6 * _ratio(sum(self_s(n) for n in POLICY_SPANS), sum(calls(n) for n in POLICY_SPANS)),
                sum(calls(n) for n in POLICY_SPANS)),
            "policy.skip_frac": (_ratio(c["policy.skips"], c["policy.decisions"]),
                                 c["policy.decisions"]),
            "updates.pair.us_per_call": (
                1e6 * _ratio(self_s("updates.CurvaturePair"), calls("updates.CurvaturePair")),
                calls("updates.CurvaturePair")),
            "updates.scalars.us_per_call": (
                1e6 * _ratio(self_s("updates.compute_penalty_scalars"),
                             calls("updates.compute_penalty_scalars")),
                calls("updates.compute_penalty_scalars")),
            "updates.kernel.us_per_call": (
                1e6 * _ratio(self_s("updates.spbfgs_update"), calls("updates.spbfgs_update")),
                calls("updates.spbfgs_update")),
            "updates.kernel.calls_per_iter": (_ratio(calls("updates.spbfgs_update"), iters), iters),
            "updates.kernel.share": (_ratio(self_s("updates.spbfgs_update"), run_wall), runs),
            "updates.kernel.flops_per_call": (
                _ratio(sum(kernel_flops(n) * k for n, k in self.kernel_n.items()), kernel_calls),
                kernel_calls),
            "updates.kernel.bytes_per_call": (
                _ratio(sum(kernel_bytes(n) * k for n, k in self.kernel_n.items()), kernel_calls),
                kernel_calls),
            "optimizer.self_us_per_iter": (1e6 * _ratio(self_s("optimizer._run"), iters), iters),
            "optimizer.records_per_run": (_ratio(c["records"], calls("optimizer._run")),
                                          calls("optimizer._run")),
            "bench.harness_us_per_run": (1e6 * _ratio(self_s("bench.run_one"), runs), runs),
            "bench.summary_ms": (1e3 * _ratio(total_s("bench.write_summary_csv"), n_sweeps),
                                 n_sweeps),
            "bench.traces_ms": (1e3 * _ratio(total_s("bench.write_traces_csv"), n_sweeps), n_sweeps),
            "trace.unattributed_frac": (_ratio(sweep_wall_s - top_level, sweep_wall_s), n_sweeps),
        }
        return m
