"""The benchmark's own tests run with the package's: a change that removes a
function the benchmark traces, or a GF build that no longer calls
``pochhammer``, fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_tests_pass():
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
