"""The benchmark harness self-test, run as its own process (about 15 s).

Deselected by default; run with ``pytest -m slow``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
