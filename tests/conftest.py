import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


def pytest_report_header(config):
    """numpy's version, the golden grid's, and the OpenBLAS core the run's BLAS calls take.

    The golden bytes hold under one OpenBLAS kernel only, so the log names
    it: a child process imports numpy with OPENBLAS_VERBOSE=2, and OpenBLAS
    then prints the core it selected ("unknown" when it prints none).  -q
    hides the header, so the terminal summary then prints this line.
    """
    recorded = (Path(__file__).parent / "golden" / "numpy_version.txt").read_text().strip()
    try:
        child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, timeout=60, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
        core = re.search(r"Core: (\S+)", child.stdout + child.stderr)
    except (OSError, subprocess.SubprocessError):
        core = None
    return (f"numpy {np.__version__} (golden grid recorded with numpy {recorded}), "
            f"OpenBLAS core {core.group(1) if core else 'unknown'}")


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance criterion lines past pytest's output capture, and under -q the header."""
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(pytest_report_header(terminalreporter.config))
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULT_LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
