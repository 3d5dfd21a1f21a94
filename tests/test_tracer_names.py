"""The benchmark's tracer wraps latnorm functions by name; each must still exist.

``perfbench/tracer.py`` looks every traced name up at install time, so a
renamed or deleted function would only surface when a traced benchmark
run fails. The tracer is loaded from its file without writing bytecode.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"latnorm.{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"latnorm.{layer}"), name, None))
    ]
    assert tracer.TRACED and not missing
