"""The benchmark's workloads and the config files it writes for them.

Every workload runs both methods in one process with workers = 1. The
benchmark's seed reaches the program only as [experiment] master_seed in
the generated config file, so the same seed gives the same inputs. Each
workload's one-line reason is in BENCHMARK.json.
"""

import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"

# The program's own env overrides would silently change what a config says.
OVERRIDES = ("SPBFGS_BENCH_OUT_DIR", "SPBFGS_BENCH_WORKERS")

ALL_PROBLEMS = ("quadratic_ill", "rosenbrock", "srosenbr", "beale", "cube", "powellsg",
                "helix", "box3", "genrose", "extrosnb", "sineval", "snail")


@dataclass(frozen=True)
class Workload:
    name: str
    problems: tuple  # "name" or "name:n", as the config file takes them
    noise_mode: str
    cells: tuple  # (eps_f, eps_g) pairs
    replicates: int
    record_traces: bool
    min_wins: int = 0  # c08's rule must hold on this many problems; 0 skips the check

    @property
    def n_runs(self):
        return len(self.problems) * 2 * len(self.cells) * self.replicates

    def config_text(self, seed, out_dir):
        cells = "; ".join(f"{f!r}, {g!r}" for f, g in self.cells)
        return (
            "[experiment]\n"
            f"problems = {', '.join(self.problems)}\n"
            "methods = spbfgs, bfgs\n"
            f"replicates = {self.replicates}\n"
            f"master_seed = {seed}\n"
            f"out_dir = {out_dir}\n"
            f"record_traces = {str(self.record_traces).lower()}\n"
            "workers = 1\n"
            "\n[noise]\n"
            f"mode = {self.noise_mode}\n"
            f"cells = {cells}\n"
            "\n[budget]\n"
            "evals = 2000\n"
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-small",
            problems=ALL_PROBLEMS,
            noise_mode="relative",
            cells=((1e-4, 1e-4),),
            replicates=5,
            record_traces=False,
            min_wins=10,
        ),
        Workload(
            name="sweep-large-n",
            problems=("srosenbr:256", "genrose:256", "extrosnb:256"),
            noise_mode="relative",
            cells=((1e-4, 1e-4),),
            replicates=2,
            record_traces=False,
        ),
        Workload(
            name="traced-cells",
            problems=("rosenbrock", "cube", "beale", "box3"),
            noise_mode="absolute",
            cells=((0.0, 0.0), (1e-6, 1e-4), (0.0, 1e-2), (1e-4, 1e-2)),
            replicates=2,
            record_traces=True,
        ),
    )
}


def import_program():
    """Put the checkout's src/ first on sys.path and import the package.

    Exits with status 2 when the checkout has no source tree, so that a
    directory holding only the benchmark never prints a result.
    """
    src = ROOT / "src"
    if not (src / "spbfgs" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}/spbfgs; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    for key in OVERRIDES:
        os.environ.pop(key, None)
    sys.path.insert(0, str(src))
    import spbfgs.bench
    import spbfgs.config
    return spbfgs


def write_config(workload, seed, out_dir):
    """Write the workload's config file into out_dir and return its path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "experiment.ini"
    path.write_text(workload.config_text(seed, out_dir / "results"))
    return path


def start_gaps(spbfgs, workload):
    """phi(x0) - phi_star for each problem of the workload, keyed by name."""
    gaps = {}
    for item in workload.problems:
        name, _, size = item.partition(":")
        problem = spbfgs.problems.get_problem(name, int(size) if size else None)
        gaps[name] = float(problem.f(problem.x0)) - problem.phi_star
    return gaps
