"""Benchmark of the spbfgs sweep path, end to end and per layer.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in-process through the public path: a config file
written here, spbfgs.config.load_experiment, spbfgs.bench.run_experiment,
with workers = 1. The same sweep is repeated at the same seed for
--seconds (two sweeps at least), and timings are pooled over the repeats.

--trace 0 measures the untraced sweep; its only hook is a timer around
each spbfgs.bench.run_one call. --trace 1 alternates untraced and traced
sweeps; the traced ones wrap the functions each module exposes to the
driver (see tracer.py) and give the per-layer metrics, and the untraced
ones give the tracing overhead and the summary that the traced sweep must
reproduce byte for byte. Set-up time is measured in fresh interpreters
(setup_probe.py), by probes spread evenly over the run; they run between
run_one calls, outside the timers, and their time is left out of the
sweep's wall time.

Output: every metric by name, unit and sample count, the output checks,
and as the last line one JSON object with the metrics BENCHMARK.json lists
for the mode. Several workloads ("a,b" or "all") run one child process
each. Exit status: 0, 1 when an output check fails, 2 on a usage error or
when the checkout has no program source.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tr
from workloads import OUT, ROOT, WORKLOADS, import_program, start_gaps, write_config

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_PROBES = 12
MIN_RUN_SAMPLES = 100  # so that ten samples lie beyond run_ms.p90
HERE = Path(__file__).resolve().parent


@dataclasses.dataclass
class Sweep:
    traced: bool
    load_s: float
    wall_s: float
    result: object  # spbfgs.bench.ExperimentResult
    summary: bytes
    runs: list  # (seconds, RunOutcome) per run_one call, in call order


def run_sweep(spbfgs, config_path, tracer=None, between_runs=None):
    """Load the config and run the experiment once, timing each run_one call.

    between_runs, if given, is called before each run_one call, outside its
    timer, and returns the seconds it took; they are left out of wall_s.
    """
    bench = spbfgs.bench
    t0 = perf_counter()
    spec = spbfgs.config.load_experiment(config_path)
    load_s = perf_counter() - t0
    if tracer is not None:
        tracer.install(spbfgs)
    run_one = bench.run_one
    runs = []
    paused = 0.0

    def timed_run_one(*args):
        nonlocal paused
        if between_runs is not None:
            paused += between_runs()
        start = perf_counter()
        outcome = run_one(*args)
        runs.append((perf_counter() - start, outcome))
        return outcome

    bench.run_one = timed_run_one
    try:
        t0 = perf_counter()
        result = bench.run_experiment(spec)
        wall_s = perf_counter() - t0 - paused
    finally:
        bench.run_one = run_one
        if tracer is not None:
            tracer.restore()
    return Sweep(tracer is not None, load_s, wall_s, result,
                 Path(result.summary_path).read_bytes(), runs)


def measure_setup(workload, seed, out_dir):
    """Seconds from starting a fresh interpreter to its first run_one call."""
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed), str(out_dir)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(child.stdout.strip()) - started


class SetupProbes:
    """SETUP_PROBES set-up probes, due at even times over `seconds` from now.

    The host's speed drifts over tens of seconds, so the probes are spread
    over the whole run, and setup_s is their minimum: start-up noise only
    ever adds time.
    """

    def __init__(self, workload, seed, out_dir, seconds):
        self.probe = lambda: measure_setup(workload, seed, out_dir)
        now = perf_counter()
        self.due = [now + k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
        self.values = []

    def run_due(self):
        """Run the probes whose time has come; return the seconds they took."""
        t0 = perf_counter()
        while len(self.values) < SETUP_PROBES and self.due[len(self.values)] <= t0:
            self.values.append(self.probe())
        return perf_counter() - t0

    def finish(self):
        while len(self.values) < SETUP_PROBES:
            self.values.append(self.probe())
        return self.values


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(spbfgs):
    backend = getattr(spbfgs.updates, "active_backend", lambda: "python")()
    return {"python": platform.python_version(), "numpy": np.__version__, "backend": backend,
            "nproc": len(os.sched_getaffinity(0))}


def is_bad(outcome):
    return outcome.failed or not math.isfinite(outcome.dopt)


def check_sweep(spbfgs, workload, sweep, reference):
    """Output checks for one sweep; returns a list of failure messages."""
    problems = []
    result, outcomes = sweep.result, [o for _, o in sweep.runs]
    kind = "traced" if sweep.traced else "untraced"
    if sweep.summary != reference.summary:
        problems.append(f"{kind} summary.csv differs from the first sweep at the same seed")
    if result.n_runs != workload.n_runs or len(outcomes) != workload.n_runs:
        problems.append(f"{kind} sweep ran {result.n_runs} runs, expected {workload.n_runs}")
    rows = list(csv.reader(io.StringIO(sweep.summary.decode())))
    if tuple(rows[0]) != tuple(spbfgs.bench.SUMMARY_COLUMNS):
        problems.append(f"summary.csv header is {rows[0]}")
        return problems
    # Recompute each cell's median delta_opt from the runs themselves.
    groups = {}
    for o in outcomes:
        if math.isfinite(o.dopt):
            groups.setdefault((o.problem, o.method, repr(o.cell.eps_f), repr(o.cell.eps_g)),
                              []).append(o.dopt)
    if len(rows) - 1 != len(groups):
        problems.append(f"summary.csv has {len(rows) - 1} cells, the runs give {len(groups)}")
    for row in rows[1:]:
        dopts = groups.get(tuple(row[:4]), [])
        if len(row) != len(rows[0]) or row[4] != str(len(dopts)) or not dopts or \
                not math.isclose(float(row[6]), statistics.median(dopts), abs_tol=1e-12):
            problems.append(f"summary.csv row {row[:4]} disagrees with its {len(dopts)} runs")
    if result.traces_path is not None:
        with open(result.traces_path) as fh:
            lines = sum(1 for _ in fh)
        expected = 1 + sum(len(o.trace_rows) for o in outcomes)
        if lines != expected:
            problems.append(f"traces.csv has {lines} lines, expected {expected}")
    return problems


def win_rule(summary):
    """(wins, problems): penalized median <= classic median + 0.1, per problem."""
    medians = {(r["problem"], r["method"]): float(r["median_dopt"])
               for r in csv.DictReader(io.StringIO(summary.decode()))}
    names = sorted({p for p, _ in medians})
    wins = sum(medians.get((p, "spbfgs"), math.inf) <= medians.get((p, "bfgs"), math.nan) + 0.1
               for p in names)
    return wins, len(names)


def end_to_end(sweeps, setup_s, gaps, peak_rss_mb):
    """End-to-end metrics from the untraced sweeps: name -> (value, sample count)."""
    untraced = [s for s in sweeps if not s.traced]
    run_ms = [1e3 * t for s in untraced for t, _ in s.runs]
    iter_us = [1e6 * t / o.n_iterations for s in untraced for t, o in s.runs if o.n_iterations]
    outcomes = [o for _, o in sweeps[0].runs]
    m = {
        "setup_s": (min(setup_s), len(setup_s)),
        "runs_per_s": (statistics.median(len(s.runs) / s.wall_s for s in untraced), len(untraced)),
        "run_ms.p50": (statistics.median(run_ms), len(run_ms)),
        "run_ms.p90": (percentile(run_ms, 90), len(run_ms)),
        "iter_us.p50": (statistics.median(iter_us), len(iter_us)),
        "iter_us.p90": (percentile(iter_us, 90), len(iter_us)),
    }
    for method in ("spbfgs", "bfgs"):
        kept = [o for o in outcomes if o.method == method and math.isfinite(o.dopt)]
        m[f"dopt.{method}.median"] = (statistics.median(o.dopt for o in kept), len(kept))
        m[f"digits.{method}.median"] = (
            statistics.median(math.log10(gaps[o.problem]) - o.dopt for o in kept), len(kept))
    m["failed_frac"] = (sum(map(is_bad, outcomes)) / len(outcomes), len(outcomes))
    m["peak_rss_mb"] = (peak_rss_mb, 1)
    return m


def reference_note(env, seed, workload, digest):
    ref = json.loads((HERE / "reference.json").read_text())
    recorded = ref["summary_sha256"].get(workload.name)
    if ref["seed"] != seed or ref["environment"] != env or recorded is None:
        return "no reference for this seed and environment"
    return "matches the reference" if recorded == digest else "DIFFERS from the reference"


def print_metrics(title, metrics, units):
    print(title)
    for name, (value, n) in metrics.items():
        print(f"  {name:32s} {value:>14.6g} {units.get(name, ''):12s} n={n}")


def run_workload(spbfgs, workload, seed, seconds, trace):
    out = OUT / workload.name
    shutil.rmtree(out, ignore_errors=True)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in tr.targets(spbfgs)]
    gaps = start_gaps(spbfgs, workload)
    configs = {False: write_config(workload, seed, out / "untraced"),
               True: write_config(workload, seed, out / "traced")}
    tracer = tr.Tracer() if trace else None

    sweeps, failures = [], []
    began = perf_counter()
    probes = SetupProbes(workload, seed, out / "probe", seconds)
    while True:
        probes.run_due()
        traced = trace and len(sweeps) % 2 == 1
        sweep = run_sweep(spbfgs, configs[traced], tracer if traced else None, probes.run_due)
        sweeps.append(sweep)
        if len(sweeps) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures += check_sweep(spbfgs, workload, sweep, sweeps[0])
        # Checked, so the trace rows can go; kept, they would slow later sweeps.
        sweep.runs = [(t, dataclasses.replace(o, trace_rows=())) for t, o in sweep.runs]
        spent = perf_counter() - began
        samples = sum(len(s.runs) for s in sweeps if not s.traced)
        if len(sweeps) >= 2 and (trace or samples >= MIN_RUN_SAMPLES) \
                and spent + statistics.mean(s.wall_s for s in sweeps) > seconds:
            break
    setup_s = probes.finish()

    failures += [f"{owner.__name__}.{attr} was not restored after the traced run"
                 for owner, attr, original in originals if getattr(owner, attr) is not original]
    if workload.min_wins:
        wins, total = win_rule(sweeps[0].summary)
        if wins < workload.min_wins:
            failures.append(f"c08 win rule holds on {wins}/{total} problems, "
                            f"need {workload.min_wins}")

    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    units.update({"dopt.spbfgs.median": "log10", "dopt.bfgs.median": "log10",
                  "failed_frac": "fraction"})
    e2e = end_to_end(sweeps, setup_s, gaps, peak_rss_mb)
    layers = {}
    if tracer is not None:
        traced = [s for s in sweeps if s.traced]
        untraced = [s for s in sweeps if not s.traced]
        layers = tracer.layer_metrics(len(traced), sum(s.wall_s for s in traced))
        traces = traced[0].result.traces_path
        layers["bench.traces_mb"] = (os.path.getsize(traces) / 1e6 if traces else 0.0, 1)
        layers["config.load_ms"] = (1e3 * statistics.median(s.load_s for s in sweeps), len(sweeps))
        layers["trace.overhead_frac"] = (
            statistics.median(s.wall_s for s in traced)
            / statistics.median(s.wall_s for s in untraced) - 1.0, len(sweeps))
        draws, noiseless_runs = tracer.noiseless_ball_draws()
        if draws:
            failures.append(f"the noise layer drew from the ball {draws} times in a noiseless cell")
        np.savez(out / "spans.npz", *tracer.spans(), names=np.array(tracer.names))

    env = environment(spbfgs)
    digest = hashlib.sha256(sweeps[0].summary).hexdigest()
    n_traced = sum(s.traced for s in sweeps)
    print(f"== {workload.name}  seed {seed}  {len(sweeps) - n_traced} untraced and "
          f"{n_traced} traced sweeps of {workload.n_runs} runs")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print_metrics("end to end (untraced sweeps)", e2e, units)
    if layers:
        print_metrics("per layer (traced sweeps)", layers, units)
        if noiseless_runs:
            print(f"ball draws in the {noiseless_runs} traced runs of a noiseless cell: {draws}")
    if workload.min_wins:
        print(f"c08 win rule: penalized median <= classic + 0.1 on {wins}/{total} problems")
    print(f"summary.csv sha256 {digest}: {reference_note(env, seed, workload, digest)}")
    for message in failures:
        print(f"CHECK FAILED: {message}")
    print("checks: " + ("FAILED" if failures else "ok"))

    runs = [o for s in sweeps for _, o in s.runs]
    (out / "run.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed, "environment": env, "summary_sha256": digest,
        "end_to_end": e2e, "per_layer": layers, "failures": failures,
        "setup_s": setup_s,
        "sweeps": [{"traced": s.traced, "wall_s": s.wall_s, "load_s": s.load_s,
                    "runs": [[t, o.n_iterations] for t, o in s.runs]} for s in sweeps]},
        indent=1))
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    measured = layers if trace else e2e
    return {
        "correct": not failures,
        "attempted": len(runs),
        "failed": sum(map(is_bad, runs)),
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }


def run_many(names, args):
    """One child process per workload, so each has its own peak RSS."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if not lines:
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])
            return child.returncode or 1
        status = max(status, child.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main():
    parser = argparse.ArgumentParser(description="spbfgs sweep benchmark")
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}; known: {', '.join(WORKLOADS)}")
    if len(names) > 1:
        return run_many(names, args)
    spbfgs = import_program()
    result = run_workload(spbfgs, WORKLOADS[names[0]], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
