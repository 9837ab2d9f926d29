"""The benchmark's own tests, run as part of this suite.

`perfbench/test_perfbench.py` pins behaviour of the package (the tracer's call
counts for `farey.iter_window` and `totient.build_totient_table`, the gate on
recorded outputs).  Its workloads re-import `fareysums` mid-session, so it
runs in a separate pytest process rather than in this one's collection.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
