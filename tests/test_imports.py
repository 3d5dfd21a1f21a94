"""The runtime stays pure stdlib: ``src/latnorm`` imports nothing else."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "latnorm"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_absolute_imports_are_latnorm_or_stdlib(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    outside = [m for m in modules if m.split(".")[0] != "latnorm" and m.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
