"""Rewrite the golden grid's expected files from the current code.

    python tests/golden/regenerate.py            # every <name>.ini
    python tests/golden/regenerate.py traced     # only the named configs

Each <name>.ini next to this script is loaded and run exactly as
tests/test_golden.py does (load_experiment, then run_experiment with the
output redirected to a temporary directory).  Its summary.csv becomes
<name>.csv and, for a config that records traces, its traces.csv becomes
<name>.traces.csv; numpy_version.txt is set to the running numpy.  Run it
only for an intended numerical change, and say in the change's notes why
the bytes moved: a refactor must leave the grid byte-equal.
"""

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

import numpy as np  # noqa: E402

from spbfgs.bench import run_experiment  # noqa: E402
from spbfgs.config import load_experiment  # noqa: E402


def regenerate(name):
    """Run <name>.ini and write its expected files; returns the files written."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = replace(load_experiment(GOLDEN / f"{name}.ini"), out_dir=tmp)
        result = run_experiment(spec)
        if result.n_failed or result.n_dropped:
            raise SystemExit(f"{name}: {result.n_failed} failed and {result.n_dropped} "
                             "dropped runs; the golden test requires none")
        written = [GOLDEN / f"{name}.csv"]
        shutil.copyfile(Path(tmp) / "summary.csv", written[0])
        traces = GOLDEN / f"{name}.traces.csv"
        if spec.record_traces:
            shutil.copyfile(Path(tmp) / "traces.csv", traces)
            written.append(traces)
        elif traces.exists():
            traces.unlink()
    return written


def main(names):
    known = sorted(p.stem for p in GOLDEN.glob("*.ini"))
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise SystemExit(f"no such golden config: {', '.join(unknown)}; known: {', '.join(known)}")
    recorded = (GOLDEN / "numpy_version.txt").read_text().strip()
    if names and np.__version__ != recorded:
        raise SystemExit(f"the grid was recorded with numpy {recorded}, this is {np.__version__}: "
                         "regenerate every config, not some")
    for name in names or known:
        for path in regenerate(name):
            print(f"wrote {path.relative_to(GOLDEN)}")
    (GOLDEN / "numpy_version.txt").write_text(f"{np.__version__}\n")
    print(f"wrote numpy_version.txt ({np.__version__})")


if __name__ == "__main__":
    main(sys.argv[1:])
