"""Measure one set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed> <out_dir>

Imports the program, writes and loads the workload's config, instantiates
its problems, then enters run_experiment and stops at the first run_one
call. Prints time.monotonic() at that moment; the parent subtracts the
moment it started this process, which gives set-up time from process start.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS, import_program, start_gaps, write_config


class FirstRun(Exception):
    pass


def main():
    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    spbfgs = import_program()
    workload = WORKLOADS[name]
    spec = spbfgs.config.load_experiment(write_config(workload, seed, out_dir))
    start_gaps(spbfgs, workload)

    def first_run(*args):
        raise FirstRun(time.monotonic())

    spbfgs.bench.run_one = first_run
    try:
        spbfgs.bench.run_experiment(spec)
    except FirstRun as reached:
        print(repr(reached.args[0]))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
