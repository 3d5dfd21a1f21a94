"""The scripts under ``scripts/`` still run against the library and print the
recorded output; the README's library tour and caps table match the code."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latnorm.cli import build_parser

from conftest import golden

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["walkthrough", "meet_anomaly_search", "census_corpus"])
def test_script_stdout_matches_golden(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{script}.py")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden(f"{script}.txt")


def test_readme_library_tour_runs():
    """The first ``python`` block of the README runs as written."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["table"].lattice is namespace["lat"]


def _caps_table():
    """The README ``## Caps`` table as (module, name, value, bounds) rows."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split(" | ") for line in section.splitlines() if line.startswith("| `")]
    return [(*cap.strip("| `").split("."), int(value.replace(",", "")), bounds) for cap, value, bounds, _ in rows]


def test_readme_caps_table_matches_the_code():
    """Each cap in the README table equals its constant, and each CLI option
    the table names defaults to it."""
    parser = build_parser()
    required = {"generate": ["--all"], "restrict": ["--all"]}
    rows = _caps_table()
    assert len(rows) == 6
    options = 0
    for module, name, value, bounds in rows:
        assert getattr(importlib.import_module(f"latnorm.{module}"), name) == value, name
        for option, commands in re.findall(r"`(--[\w-]+)` of ((?:`\w+`(?:,? and |, )?)+)", bounds):
            for command in re.findall(r"`(\w+)`", commands):
                args = parser.parse_args([command, "lattice.json", *required.get(command, [])])
                assert getattr(args, option[2:].replace("-", "_")) == value, (name, option, command)
                options += 1
    # --atom-cap of generate, restrict and check; --oracle-cap of census
    assert options == 4
