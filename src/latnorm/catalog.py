"""Named small lattices used by the test corpus, scripts and docs."""

from __future__ import annotations

import random

from .errors import LatnormError
from .lattice import FiniteLattice, lattice_from_covers, powerset_lattice


def chain(n: int) -> FiniteLattice:
    """Chain with ``n`` elements named 0..n-1 bottom-up."""
    names = [str(i) for i in range(n)]
    return lattice_from_covers(names, [(str(i), str(i + 1)) for i in range(n - 1)])


def diamond(k: int) -> FiniteLattice:
    """Bottom, ``k`` incomparable atoms, top. diamond(3) is M3, diamond(4) is M4."""
    atoms = [chr(ord("a") + i) for i in range(k)]
    covers = [("0", a) for a in atoms] + [(a, "1") for a in atoms]
    return lattice_from_covers(["0", *atoms, "1"], covers)


def m3() -> FiniteLattice:
    return diamond(3)


def m4() -> FiniteLattice:
    return diamond(4)


def pentagon() -> FiniteLattice:
    """N5: 0 < a < c < 1 on one side, 0 < b < 1 on the other."""
    return lattice_from_covers(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
    )


def stemmed_diamond() -> FiniteLattice:
    """One atom b with two join-irreducible covers d, c joining to top.

    The smallest non-atomistic showcase: its extension inserts fresh atoms
    under both d and c.
    """
    return lattice_from_covers(
        ["0", "b", "d", "c", "1"],
        [("0", "b"), ("b", "d"), ("b", "c"), ("d", "1"), ("c", "1")],
    )


def m3_doubled_coatom() -> FiniteLattice:
    """M3 with one coatom stretched into a two-step chain."""
    return lattice_from_covers(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "d"), ("d", "1"), ("b", "1"), ("c", "1")],
    )


def double_atom_tower() -> FiniteLattice:
    """Two atoms joining below a two-step join-irreducible chain to top.

    The smallest corpus member whose restriction family is not closed
    under selection intersection.
    """
    return lattice_from_covers(
        ["0", "a", "b", "q", "p", "1"],
        [("0", "a"), ("0", "b"), ("a", "q"), ("b", "q"), ("q", "p"), ("p", "1")],
    )


def tall_stemmed_diamond() -> FiniteLattice:
    """Stemmed diamond with an extra top stacked above the old one.

    Its extension has an element m below top whose maximal independent
    atom sets do not all join back to m.
    """
    return lattice_from_covers(
        ["0", "b", "d", "c", "m", "t"],
        [("0", "b"), ("b", "d"), ("b", "c"), ("d", "m"), ("c", "m"), ("m", "t")],
    )


def random_lattice(size: int, seed: int, max_tries: int = 20000) -> FiniteLattice:
    """Deterministic random lattice of exactly ``size`` elements.

    Rejection sampling: throw random order relations between the middle
    elements (bottom and top always bound them) and keep the first draw
    whose meets and joins are all unique. Same seed, same lattice. Size 2
    has no middle elements, so it is the 2-element chain.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    if size == 2:
        return chain(2)
    rng = random.Random(seed)
    mids = [f"x{i}" for i in range(1, size - 1)]
    names = ["0", *mids, "1"]
    for _ in range(max_tries):
        density = rng.uniform(0.15, 0.55)
        pairs = []
        for i in range(len(mids)):
            for j in range(i + 1, len(mids)):
                if rng.random() < density:
                    pairs.append((mids[i], mids[j]))
        covers = [("0", m) for m in mids] + [(m, "1") for m in mids] + pairs
        try:
            return lattice_from_covers(names, covers)
        except LatnormError:
            continue
    raise LatnormError(f"no {size}-element lattice found in {max_tries} draws for seed {seed}")


def random_lattices(count: int, sizes=(6, 7, 8), seed: int = 2024) -> list[FiniteLattice]:
    return [random_lattice(sizes[i % len(sizes)], seed * 1000 + i) for i in range(count)]


def atomistic_corpus() -> dict[str, FiniteLattice]:
    """The atomistic lattices every family-level theorem is checked on."""
    from .extension import extend

    return {
        "2^2": powerset_lattice(2),
        "2^3": powerset_lattice(3),
        "M3": m3(),
        "M4": m4(),
        "stemmed_diamond_ext": extend(stemmed_diamond()).extended,
    }


def extension_corpus() -> dict[str, FiniteLattice]:
    """Finite lattices exercising the atomistic extension."""
    corpus = {
        "chain2": chain(2),
        "chain3": chain(3),
        "chain4": chain(4),
        "chain5": chain(5),
        "stemmed_diamond": stemmed_diamond(),
        "N5": pentagon(),
        "M3_doubled_coatom": m3_doubled_coatom(),
        "double_atom_tower": double_atom_tower(),
        "tall_stemmed_diamond": tall_stemmed_diamond(),
    }
    for i, lat in enumerate(random_lattices(3)):
        corpus[f"random{i}"] = lat
    return corpus
