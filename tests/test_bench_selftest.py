"""The benchmark's own desk-scale self-test, run as part of the suite, so
that renaming a library name the benchmark's tracer wraps fails here
instead of breaking the benchmark."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "selftest.py")],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
