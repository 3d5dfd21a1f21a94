import contextlib
import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from latnorm.catalog import (
    atomistic_corpus,
    chain,
    extension_corpus,
    m3,
    m4,
    pentagon,
    stemmed_diamond,
)
from latnorm.errors import DegenerateLengthWarning
from latnorm.extension import extend
from latnorm.lattice import powerset_lattice

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def fig_lattice():
    """The worked-example lattice: one atom under two join-irreducible covers."""
    return stemmed_diamond()


@pytest.fixture(scope="session")
def fig_ext(fig_lattice):
    return extend(fig_lattice)


@pytest.fixture(scope="session")
def fig_extended(fig_ext):
    return fig_ext.extended


@pytest.fixture(scope="session")
def corpus_atomistic():
    return atomistic_corpus()


@pytest.fixture(scope="session")
def corpus_extension():
    return extension_corpus()


@pytest.fixture(scope="session")
def two_chain():
    return chain(2)


@pytest.fixture(scope="session")
def p2():
    return powerset_lattice(2)


@pytest.fixture(scope="session")
def p3():
    return powerset_lattice(3)


@pytest.fixture(scope="session")
def lat_m3():
    return m3()


@pytest.fixture(scope="session")
def lat_m4():
    return m4()


@pytest.fixture(scope="session")
def lat_n5():
    return pentagon()


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def degenerate_warning(lat):
    """Expect the warning that a lattice of length at most 1, its own
    skeleton, gives when its skeleton is built; expect nothing otherwise."""
    return pytest.warns(DegenerateLengthWarning) if lat.length <= 1 else contextlib.nullcontext()
