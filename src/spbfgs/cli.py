"""Command-line entry point.

    spbfgs-bench run CONFIG [overrides]   seeded benchmark sweep -> CSVs
    spbfgs-bench verify                   fast algebraic self-checks
    spbfgs-bench list-problems            built-in problem table

Exit codes: 0 success, 1 failed runs or failed checks, 2 bad usage or
configuration.  When the reader of stdout goes away early
(`spbfgs-bench verify | head -2`), the command stops quietly with exit 1,
because its output is incomplete.  For `run`, each flag in FLAGS and each
environment variable in VARIABLES sets one config key, parsed and checked
exactly as if it were written in the file.  The file comes first, then the
variables, then the flags; the later source wins.
"""

import argparse
import os
import sys

from . import __version__, bench
from .config import load_experiment
from .errors import ConfigError
from .problems import get_problem, list_problems
from .verify import run_all

# flag -> the [section] key it sets, and its argparse options
FLAGS = {
    "--seed": ("experiment", "master_seed", {}),
    "--out-dir": ("experiment", "out_dir", {}),
    "--replicates": ("experiment", "replicates", {}),
    "--budget-evals": ("budget", "evals", {}),
    "--budget-iters": ("budget", "iters", {}),
    "--trace": ("experiment", "record_traces", {"action": "store_const", "const": "true"}),
}
# environment variable -> the [section] key it sets
VARIABLES = {
    "SPBFGS_BENCH_OUT_DIR": ("experiment", "out_dir"),
    "SPBFGS_BENCH_WORKERS": ("experiment", "workers"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spbfgs-bench",
        description="Benchmark a noise-tolerant quasi-Newton method against classic BFGS.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment described by a config file")
    run_p.add_argument("config", help="path to a [section] key=value config file")
    for flag, (section, key, options) in FLAGS.items():
        metavar = key.upper()
        run_p.add_argument(flag, dest=flag, metavar=metavar,
                           help=f"set [{section}] {key} = {options.get('const', metavar)}",
                           **options)

    sub.add_parser("verify", help="run the seeded self-checks and report one line each")
    sub.add_parser("list-problems", help="list built-in problems")
    return parser


def _cmd_run(args):
    overrides = [(name, section, key, os.environ[name])
                 for name, (section, key) in VARIABLES.items() if name in os.environ]
    overrides += [(flag, section, key, getattr(args, flag))
                  for flag, (section, key, _) in FLAGS.items()
                  if getattr(args, flag) is not None]
    try:
        spec = load_experiment(args.config, overrides)
        result = bench.run_experiment(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        print(f"{problem.name:<15}{problem.n:>4}  {problem.phi_star:>10}  {problem.notes}".rstrip())
    return 0


def _dispatch(args):
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify":
        return 0 if run_all() else 1
    return _cmd_list_problems()


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        status = _dispatch(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at interpreter exit
    except BrokenPipeError:
        # point stdout at devnull, so the exit-time flush of what is still
        # buffered cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
