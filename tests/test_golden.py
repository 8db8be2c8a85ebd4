"""Golden grid: summary.csv must reproduce the committed bytes exactly.

Each tests/golden/<name>.ini is a small sweep; <name>.csv holds the summary
bytes it produced when the grid was recorded.  A sweep that records traces
also has <name>.traces.csv, the bytes of its traces.csv, side channel
included.  The bytes are pinned to the numpy version in numpy_version.txt
(the float results of the linear algebra may differ between versions), so
the test skips under any other version.  A refactor that keeps the
numerics must leave every file byte-equal; an intended numerical change
regenerates the expected files with tests/golden/regenerate.py, which runs
each config through this same path, and says why.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spbfgs.bench import run_experiment
from spbfgs.config import load_experiment

GOLDEN = Path(__file__).parent / "golden"
RECORDED_NUMPY = (GOLDEN / "numpy_version.txt").read_text().strip()


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.ini")))
def test_summary_bytes(name, tmp_path):
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"golden bytes recorded with numpy {RECORDED_NUMPY}, running {np.__version__}")
    spec = replace(load_experiment(GOLDEN / f"{name}.ini"), out_dir=str(tmp_path))
    result = run_experiment(spec)
    assert result.n_failed == 0 and result.n_dropped == 0
    assert (tmp_path / "summary.csv").read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
    expected_traces = GOLDEN / f"{name}.traces.csv"
    assert spec.record_traces == expected_traces.exists()
    if spec.record_traces:
        assert (tmp_path / "traces.csv").read_bytes() == expected_traces.read_bytes()
