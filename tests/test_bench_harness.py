"""The benchmark's tracer wraps package functions by name; its self-test
fails when a traced name under src/ is renamed or removed."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "selftest ok" in proc.stdout
