"""The scripts under ``scripts/`` still run against the library and print the recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import golden

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["walkthrough", "meet_anomaly_search", "census_corpus"])
def test_script_stdout_matches_golden(script):
    """Run without a census cache, so every census row is computed."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True,
        text=True,
        env={**{k: v for k, v in os.environ.items() if k != "LATNORM_CACHE_DIR"}, "PYTHONPATH": path},
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden(f"{script}.txt")
