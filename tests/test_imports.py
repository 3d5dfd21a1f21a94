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


# (importing module, imported module, name) of the private names that a
# module may import from another: the continuity kernel the census reuses
PRIVATE_IMPORTS = {("oracle", "tnorm", "_preservation_failure")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_no_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "latnorm"):
            source = (node.module or "").rsplit(".", 1)[-1]
            private += [(path.stem, source, a.name) for a in node.names if a.name.startswith("_")]
    assert not set(private) - PRIVATE_IMPORTS, private
