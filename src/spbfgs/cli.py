"""Command-line entry point.

    spbfgs-bench run CONFIG [overrides]   seeded benchmark sweep -> CSVs
    spbfgs-bench verify                   fast algebraic self-checks
    spbfgs-bench list-problems            built-in problem table

Exit codes: 0 success, 1 failed runs or failed checks, 2 bad usage or
configuration.  For `run`, the environment variables SPBFGS_BENCH_OUT_DIR
and SPBFGS_BENCH_WORKERS override [experiment] out_dir and workers; the
flags override both.
"""

import argparse
import os
import sys
from dataclasses import replace

from . import __version__
from .config import load_experiment
from .errors import ConfigError
from .problems import get_problem, list_problems
from .verify import run_all


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spbfgs-bench",
        description="Benchmark a noise-tolerant quasi-Newton method against classic BFGS.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a [section] key=value config file")
    run_p.add_argument("--seed", type=int, default=None, help="override [experiment] master_seed")
    run_p.add_argument("--out-dir", default=None, help="override [experiment] out_dir")
    run_p.add_argument("--replicates", type=int, default=None,
                       help="override [experiment] replicates")
    run_p.add_argument("--budget-evals", type=int, default=None, help="override [budget] evals")
    run_p.add_argument("--budget-iters", type=int, default=None, help="override [budget] iters")
    run_p.add_argument("--trace", action="store_true",
                       help="also write long-format per-iteration traces.csv")

    sub.add_parser("verify", help="run the seeded self-checks and report one line each")
    sub.add_parser("list-problems", help="list built-in problems")
    return parser


def _cmd_run(args):
    try:
        spec = load_experiment(args.config)
        overrides = {}
        if "SPBFGS_BENCH_OUT_DIR" in os.environ:
            overrides["out_dir"] = os.environ["SPBFGS_BENCH_OUT_DIR"]
        if "SPBFGS_BENCH_WORKERS" in os.environ:
            raw = os.environ["SPBFGS_BENCH_WORKERS"]
            try:
                overrides["workers"] = int(raw)
            except ValueError:
                raise ConfigError(f"SPBFGS_BENCH_WORKERS: not an integer: {raw!r}") from None
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out_dir is not None:
            overrides["out_dir"] = args.out_dir
        if args.replicates is not None:
            overrides["replicates"] = args.replicates
        if args.budget_evals is not None:
            overrides["budget_evals"] = args.budget_evals
        if args.budget_iters is not None:
            overrides["budget_iters"] = args.budget_iters
        if args.trace:
            overrides["record_traces"] = True
        if overrides:
            spec = replace(spec, **overrides)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from .bench import run_experiment  # deferred: keeps --help snappy

    result = run_experiment(spec)
    print(f"{result.n_runs} runs "
          f"({len(spec.problems)} problems x {len(spec.methods)} methods x "
          f"{len(spec.cells)} cells x {spec.replicates} replicates)")
    print(f"summary: {result.summary_path}")
    if result.traces_path:
        print(f"traces:  {result.traces_path}")
    if result.n_failed or result.n_dropped:
        print(f"warning: {result.n_failed} failed runs, "
              f"{result.n_dropped} dropped from statistics", file=sys.stderr)
        for o in result.failed:
            print(f"  failed: {o.problem} {o.method} eps_f={o.cell.eps_f!r} "
                  f"eps_g={o.cell.eps_g!r} rep {o.rep}: {o.failure}", file=sys.stderr)
        return 1
    return 0


def _cmd_list_problems():
    print(f"{'name':<15}{'n':>4}  {'phi_star':>10}  notes")
    for name in list_problems():
        problem = get_problem(name)
        print(f"{problem.name:<15}{problem.n:>4}  {problem.phi_star:>10}  {problem.notes}")
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return 0 if run_all() else 1
    return _cmd_list_problems()


if __name__ == "__main__":
    sys.exit(main())
