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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_no_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "latnorm"):
            private += [a.name for a in node.names if a.name.startswith("_")]
    assert not private, private


def _private_definitions(tree: ast.Module) -> set[str]:
    """The single-underscore names a module defines: by a ``def``, as a
    class attribute or as a ``__slots__`` string."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    targets = [stmt.target.id]
                else:
                    continue
                names.update(targets)
                if "__slots__" in targets:
                    strings = (c.value for c in ast.walk(stmt.value) if isinstance(c, ast.Constant))
                    names.update(v for v in strings if isinstance(v, str))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
DEFINED_BY = {stem: _private_definitions(tree) for stem, tree in TREES.items()}


def _defined_outside(stem: str) -> set[str]:
    return set().union(*(names for other, names in DEFINED_BY.items() if other != stem))

# (reading module, attribute) of the private attributes that a module may
# read although another module defines them: the lattice memo, where
# tnorm keeps the element ids, the comparable pairs and the continuity
# scans' pair listings, and the leaf constructor of the oracle
PRIVATE_ATTRIBUTE_READS = {("tnorm", "_memo"), ("oracle", "_of_rows")}


@pytest.mark.parametrize("stem", sorted(TREES))
def test_modules_read_no_private_attribute_of_another(stem):
    others = _defined_outside(stem)
    read = {
        (stem, node.attr)
        for node in ast.walk(TREES[stem])
        if isinstance(node, ast.Attribute) and node.attr in others
    }
    assert not read - PRIVATE_ATTRIBUTE_READS, sorted(read - PRIVATE_ATTRIBUTE_READS)


def test_private_attribute_reads_are_all_in_use():
    """Every allowed read still happens, so the list names no stale pass."""
    for stem, attr in PRIVATE_ATTRIBUTE_READS:
        assert attr in _defined_outside(stem), attr
        assert any(isinstance(n, ast.Attribute) and n.attr == attr for n in ast.walk(TREES[stem])), (stem, attr)
