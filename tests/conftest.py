import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from spbfgs import updates


def numpy_simd_baseline():
    """numpy's SIMD baseline, such as "X86_V2"; "unknown" where numpy cannot say (< 1.25)."""
    try:
        return " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["baseline"])
    except (TypeError, KeyError):
        return "unknown"


def pytest_report_header(config):
    """numpy's version and SIMD baseline, the golden grid's version, the OpenBLAS core, the kernel path.

    The golden bytes hold under one numpy build and one OpenBLAS kernel
    only, so the log names both: a child process imports numpy with
    OPENBLAS_VERBOSE=2, and OpenBLAS then prints the core it selected
    ("unknown" when it prints none).  It also names the rank-two kernel's
    path, which a probe of numpy's einsum picks at import (see
    spbfgs.updates._einsum_rounds_each_term).  -q hides the header, so the
    terminal summary then prints this line.
    """
    recorded = (Path(__file__).parent / "golden" / "numpy_version.txt").read_text().strip()
    try:
        child = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                               text=True, timeout=60, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
        core = re.search(r"Core: (\S+)", child.stdout + child.stderr)
    except (OSError, subprocess.SubprocessError):
        core = None
    kernel = ("two-term einsum" if updates._TWO_TERM_EINSUM
              else "two single-term einsums (this einsum fuses a two-term sum)")
    return (f"numpy {np.__version__} (golden grid recorded with numpy {recorded}), "
            f"SIMD baseline {numpy_simd_baseline()}, "
            f"OpenBLAS core {core.group(1) if core else 'unknown'}, rank-two kernel {kernel}")


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
