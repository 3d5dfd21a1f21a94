"""Lattice construction, validation and order queries."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalog import chain, diamond, m3, pentagon, stemmed_diamond
from latnorm.errors import (
    BoundExceeded,
    CycleDetected,
    DuplicateLabel,
    LatticeMismatch,
    NoBottom,
    NotALattice,
    NoTop,
    UnknownLabel,
)
from latnorm.lattice import (
    ElementSet,
    lattice_from_covers,
    lattice_from_json,
    powerset_lattice,
)

from oracles import all_subsets_atom_union, set_based_meets_joins


def test_fig_lattice_structure(fig_lattice):
    assert fig_lattice.names == ("0", "b", "d", "c", "1")
    assert fig_lattice.atoms().names() == ("b",)
    assert fig_lattice.join_irreducibles().names() == ("b", "d", "c")
    assert fig_lattice.length == 3
    assert not fig_lattice.is_atomistic()
    d, c = fig_lattice.index("d"), fig_lattice.index("c")
    assert fig_lattice.name(fig_lattice.meet(d, c)) == "b"
    assert fig_lattice.name(fig_lattice.join(d, c)) == "1"


def test_two_chain(two_chain):
    assert two_chain.length == 1
    assert two_chain.atoms().names() == ("1",)
    assert two_chain.join_irreducibles().names() == ("1",)


def test_diamond_fragment_has_no_top():
    with pytest.raises(NoTop):
        lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1")])


def test_completed_diamond_is_boolean():
    lat = lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    assert lat.is_boolean_atomistic()
    assert lat.n == 4 == 2 ** len(lat.atoms())


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        lattice_from_covers(["0", "0"], [("0", "0")])


def test_unknown_label():
    with pytest.raises(UnknownLabel):
        lattice_from_covers(["0", "1"], [("0", "x")])


def test_self_loop_and_cycle():
    with pytest.raises(CycleDetected):
        lattice_from_covers(["0", "1"], [("0", "0")])
    with pytest.raises(CycleDetected):
        lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("a", "1")])


def test_bowtie_is_not_a_lattice():
    with pytest.raises(NotALattice):
        lattice_from_covers(
            ["0", "a", "b", "c", "d", "1"],
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "1"), ("d", "1")],
        )


def test_empty_element_list():
    with pytest.raises(NoBottom):
        lattice_from_covers([], [])


def test_redundant_covers_are_normalized():
    lat = lattice_from_covers(["0", "a", "1"], [("0", "a"), ("a", "1"), ("0", "1")])
    assert lat.covers_named() == [("0", "a"), ("a", "1")]


def test_cover_round_trip(corpus_extension):
    for lat in corpus_extension.values():
        rebuilt = lattice_from_covers(lat.names, lat.covers_named())
        assert rebuilt == lat
        assert rebuilt.covers == lat.covers


def test_meets_joins_match_set_based_oracle(corpus_extension):
    for name, lat in corpus_extension.items():
        result = set_based_meets_joins(lat.names, lat.covers_named())
        assert result is not None, name
        meets, joins = result
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.name(lat.meet(x, y)) == meets[lat.name(x), lat.name(y)]
                assert lat.name(lat.join(x, y)) == joins[lat.name(x), lat.name(y)]


@st.composite
def bounded_relations(draw):
    """Fixed bottom 0 and top 1, a random order on up to seven middle
    elements (drawn over one linear extension, so acyclic) and the element
    list in a random order."""
    k = draw(st.integers(0, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mids = [f"m{i}" for i in range(k)]
    middle = [(mids[i], mids[j]) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    names = ["0", *mids, "1"]
    rng.shuffle(names)
    return names, [("0", "1")] + [("0", m) for m in mids] + [(m, "1") for m in mids] + middle


@settings(max_examples=300)  # non-lattices need four or more middle elements
@given(bounded_relations())
def test_lattice_check_matches_set_based_oracle(relation):
    names, covers = relation
    expected = set_based_meets_joins(names, covers)
    if expected is None:
        with pytest.raises(NotALattice):
            lattice_from_covers(names, covers)
        return
    lat = lattice_from_covers(names, covers)
    meets, joins = expected
    for x in names:
        for y in names:
            assert lat.name(lat.meet(lat.index(x), lat.index(y))) == meets[x, y]
            assert lat.name(lat.join(lat.index(x), lat.index(y))) == joins[x, y]


def test_extended_fig_atoms(fig_extended):
    assert set(fig_extended.atoms().names()) == {"b", "w_d", "w_c"}
    assert fig_extended.is_atomistic()
    assert not fig_extended.is_boolean_atomistic()


def test_powerset_small_cases():
    assert powerset_lattice(0).n == 1
    two = powerset_lattice(1)
    assert two.n == 2 and two.length == 1
    cube = powerset_lattice(3)
    assert cube.n == 8
    assert len(cube.atoms()) == 3
    assert cube.length == 3


@pytest.mark.parametrize("k", range(6))
def test_powerset_atomistic_boolean(k):
    lat = powerset_lattice(k)
    assert lat.is_atomistic()
    assert lat.is_boolean_atomistic()
    rebuilt = lattice_from_covers(lat.names, lat.covers_named())
    assert rebuilt == lat
    assert (rebuilt.meet_table, rebuilt.join_table) == (lat.meet_table, lat.join_table)


def test_powerset_bound():
    with pytest.raises(BoundExceeded):
        powerset_lattice(11)


def test_m3_not_boolean(lat_m3):
    assert lat_m3.is_atomistic()
    assert not lat_m3.is_boolean_atomistic()
    a, b = lat_m3.index("a"), lat_m3.index("b")
    join_ab = lat_m3.join(a, b)
    assert set(lat_m3.atoms_below(join_ab).names()) == {"a", "b", "c"}


def test_boolean_certificate(corpus_atomistic):
    """A true pairwise check certifies the full powerset structure."""
    for lat in list(corpus_atomistic.values()) + [powerset_lattice(k) for k in range(6)]:
        if not lat.is_boolean_atomistic():
            continue
        k = len(lat.atoms())
        assert lat.n == 2**k
        seen = set()
        for x in range(lat.n):
            seen.add(lat.atoms_mask & lat.downs[x])
        assert len(seen) == lat.n
        for x in range(lat.n):
            for y in range(lat.n):
                ax = lat.atoms_mask & lat.downs[x]
                ay = lat.atoms_mask & lat.downs[y]
                assert lat.atoms_mask & lat.downs[lat.join(x, y)] == ax | ay
                assert lat.atoms_mask & lat.downs[lat.meet(x, y)] == ax & ay


def test_pairwise_boolean_check_matches_all_subsets(corpus_extension, corpus_atomistic):
    for lat in list(corpus_extension.values()) + list(corpus_atomistic.values()):
        if lat.n > 10:
            continue
        expected = lat.is_atomistic() and all_subsets_atom_union(lat)
        assert lat.is_boolean_atomistic() == expected


def test_atoms_of_meet_are_intersection(corpus_extension):
    for lat in corpus_extension.values():
        am = lat.atoms_mask
        for x in range(lat.n):
            for y in range(lat.n):
                assert am & lat.downs[lat.meet(x, y)] == (am & lat.downs[x]) & (am & lat.downs[y])


def test_lattice_identities(corpus_extension):
    for lat in corpus_extension.values():
        for x in range(lat.n):
            for y in range(lat.n):
                assert lat.meet(x, y) == lat.meet(y, x)
                assert lat.leq(lat.meet(x, y), x)
                assert lat.leq(x, lat.join(x, y))
                assert lat.join(x, lat.meet(x, y)) == x


def test_independence_examples(fig_extended, lat_m3):
    # one atom below the join of the two inserted atoms: not independent
    triple = fig_extended.element_set(["b", "w_d", "w_c"])
    assert not fig_extended.is_independent(triple)
    assert fig_extended.is_independent(fig_extended.element_set(["w_d", "w_c"]))
    assert fig_extended.is_independent(fig_extended.element_set(["b"]))
    assert fig_extended.is_independent(fig_extended.element_set([]))
    assert not lat_m3.is_independent(lat_m3.element_set(["a", "b", "c"]))
    assert lat_m3.is_independent(lat_m3.element_set(["a", "b"]))


def test_independence_rejects_bottom(lat_m3):
    with pytest.raises(ValueError):
        lat_m3.is_independent(lat_m3.element_set(["0", "a"]))


def test_maximal_independent_subsets_m3(lat_m3):
    subsets = {s.names() for s in lat_m3.maximal_independent_subsets(lat_m3.atoms())}
    assert subsets == {("a", "b"), ("a", "c"), ("b", "c")}


def test_maximal_independent_subsets_singleton(fig_lattice):
    base = fig_lattice.element_set(["b"])
    assert [s.names() for s in fig_lattice.maximal_independent_subsets(base)] == [("b",)]


def test_element_set_cross_lattice_rejected(lat_m3, p2):
    with pytest.raises(LatticeMismatch):
        lat_m3.atoms() | p2.atoms()


@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_element_set_algebra(a, b):
    lat = powerset_lattice(3)
    sa, sb = ElementSet(lat, a), ElementSet(lat, b)
    assert (sa | sb).mask == a | b
    assert (sa & sb).mask == a & b
    assert (sa - sb).mask == a & ~b
    assert (sa & sb) <= sa <= (sa | sb)
    assert len(sa) == bin(a).count("1")


def test_length_examples():
    assert chain(2).length == 1
    assert chain(5).length == 4
    assert powerset_lattice(3).length == 3
    assert pentagon().length == 3
    assert diamond(4).length == 2


def test_json_round_trip(fig_lattice):
    text = fig_lattice.to_json()
    again = lattice_from_json(text)
    assert again == fig_lattice
    assert again.to_json() == text
    obj = json.loads(text)
    assert obj["elements"] == ["0", "b", "d", "c", "1"]


def test_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        lattice_from_json('{"elements": ["0"]}')


def test_dot_export_deterministic(fig_lattice):
    text = fig_lattice.to_dot()
    assert text == fig_lattice.to_dot()
    assert text.startswith("digraph lattice {\n  rankdir=BT;\n")
    assert '"0" -> "b";' in text


def test_fingerprint_stability(fig_lattice):
    fp = fig_lattice.fingerprint()
    assert fp == stemmed_diamond().fingerprint()
    assert fp != m3().fingerprint()


def test_atoms_below(fig_extended):
    d = fig_extended.index("d")
    assert set(fig_extended.atoms_below(d).names()) == {"b", "w_d"}
    one = fig_extended.index("1")
    assert set(fig_extended.ji_below(one).names()) >= {"b", "w_d", "w_c"}
