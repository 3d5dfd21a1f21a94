"""The pytest settings in ``pyproject.toml`` report a failing test as a
failure: turning warnings into errors does not end the session."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_after():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_session_goes_on(tmp_path):
    """A failing ``@given`` test makes hypothesis's report hook touch
    ``mypy_extensions.TypedDict``; its deprecation warning, raised as an
    error, would stop the session with ``INTERNALERROR``."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
        check=False,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output, output
    assert "INTERNALERROR" not in output, output
