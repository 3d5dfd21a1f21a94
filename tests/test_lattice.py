"""Lattice construction, validation and order queries."""

import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalog import chain, diamond, pentagon, random_lattice, stemmed_diamond
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
from latnorm.extension import extend
from latnorm.lattice import (
    DEFAULT_ATOM_CAP,
    POWERSET_MAX_ATOMS,
    ElementSet,
    FiniteLattice,
    induced_sublattice,
    iter_bits,
    lattice_from_covers,
    lattice_from_json,
    powerset_lattice,
)
from latnorm import tnorm
from latnorm.tnorm import is_left_continuous, t_drastic, t_min

from oracles import (
    all_pairs_lattice,
    all_subsets_atom_union,
    atomistic_by_joins,
    boolean_by_pairwise_unions,
    set_based_below,
    set_based_first_missing,
    set_based_join_table,
    set_based_meet_table,
    set_based_meets_joins,
)
from test_tnorm import ROW_CLASS_LATTICES


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
    # the first repeated label is named
    with pytest.raises(DuplicateLabel, match=r"^element 'a' declared twice$"):
        lattice_from_covers(["0", "a", "a", "b", "b"], [])


def test_unknown_label():
    with pytest.raises(UnknownLabel, match=r"^cover pair references unknown element 'x'$"):
        lattice_from_covers(["0", "1"], [("0", "x")])
    with pytest.raises(UnknownLabel, match=r"^cover pair references unknown element 'x'$"):
        lattice_from_covers(["0", "1"], [("x", "1")])
    # with both ends unknown, the lower one is named
    with pytest.raises(UnknownLabel, match=r"^cover pair references unknown element 'lo'$"):
        lattice_from_covers(["0", "1"], [("lo", "hi")])


def test_self_loop_and_cycle():
    with pytest.raises(CycleDetected):
        lattice_from_covers(["0", "1"], [("0", "0")])
    with pytest.raises(CycleDetected):
        lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("a", "b"), ("b", "a"), ("a", "1")])
    # pairs are checked one at a time: the self-loop comes before the
    # unknown label of a later pair
    with pytest.raises(CycleDetected, match=r"^cover pair \('b', 'b'\) is a self-loop$"):
        lattice_from_covers(["0", "a", "b", "1"], [("0", "a"), ("b", "b"), ("x", "1")])


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
    list in a random order. The pair list is shuffled and holds redundant
    pairs: 0 < 1, 0 below and 1 above every middle element, some pairs
    implied by two middle ones, and repeats of some pairs."""
    k = draw(st.integers(0, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    mids = [f"m{i}" for i in range(k)]
    middle = [(mids[i], mids[j]) for i in range(k) for j in range(i + 1, k) if rng.random() < 0.5]
    implied = [(lo, top) for lo, hi in middle for mid, top in middle if hi == mid and rng.random() < 0.5]
    names = ["0", *mids, "1"]
    rng.shuffle(names)
    pairs = [("0", "1")] + [("0", m) for m in mids] + [(m, "1") for m in mids] + middle + implied
    pairs += rng.sample(pairs, rng.randint(0, len(pairs) // 4))
    rng.shuffle(pairs)
    return names, pairs


@settings(max_examples=300)  # non-lattices need four or more middle elements
@given(bounded_relations())
def test_lattice_check_matches_set_based_oracle(relation):
    """Meets, joins and every order field the constructor derives, against
    values recomputed from sets of names. On a non-lattice, the error
    names the first pair, and the kind, that lacks a meet or join in the
    ordered sweep."""
    names, covers = relation
    expected = set_based_meets_joins(names, covers)
    if expected is None:
        with pytest.raises(NotALattice) as exc:
            lattice_from_covers(names, covers)
        assert (exc.value.pair, exc.value.kind) == set_based_first_missing(names, covers)
        return
    lat = lattice_from_covers(names, covers)
    meets, joins = expected
    for x in names:
        for y in names:
            assert lat.name(lat.meet(lat.index(x), lat.index(y))) == meets[x, y]
            assert lat.name(lat.join(lat.index(x), lat.index(y))) == joins[x, y]

    def mask(elements):
        return sum(1 << lat.index(x) for x in elements)

    below = set_based_below(names, covers)
    strictly = {x: below[x] - {x} for x in names}
    lower = {x: {lo for lo in strictly[x] if not any(lo in strictly[z] for z in strictly[x])} for x in names}
    assert lat.names == tuple(names)
    assert set(lat.covers_named()) == {(lo, x) for x in names for lo in lower[x]}
    assert list(lat.covers) == sorted(set(lat.covers))
    assert lat.downs == tuple(mask(below[x]) for x in names)
    assert lat.ups == tuple(mask(y for y in names if x in below[y]) for x in names)
    assert lat.atoms_mask == mask(x for x in names if lower[x] == {"0"})
    assert lat.ji_mask == mask(x for x in names if len(lower[x]) == 1)
    assert lat.mi_mask == mask(x for x in names if sum(x in lower[y] for y in names) == 1)
    height = {}
    for x in sorted(names, key=lambda v: len(below[v])):
        height[x] = max((height[z] + 1 for z in strictly[x]), default=0)
    assert lat.length == max(height.values())


def _seeded_bounded_poset(seed: int):
    """Bottom 0 below and top 1 above up to eight middle elements, whose
    order is drawn over one linear extension at a seeded density; the
    element list and the pair list come shuffled."""
    rng = random.Random(seed)
    k = rng.randint(0, 8)
    density = rng.choice((0.2, 0.35, 0.5, 0.65, 0.8))
    mids = [f"m{i}" for i in range(k)]
    middle = [(a, b) for a, b in itertools.combinations(mids, 2) if rng.random() < density]
    names = ["0", *mids, "1"]
    rng.shuffle(names)
    pairs = [("0", "1"), *(("0", m) for m in mids), *((m, "1") for m in mids), *middle]
    rng.shuffle(pairs)
    return names, pairs


def test_cover_pair_validation_matches_the_all_pairs_reference():
    """Deciding lattice-ness on pairs of lower covers gives, on 5,000
    seeded bounded posets, the error class and message of a sweep over
    every pair, and on a lattice the fields and meet table it derives."""
    failures = 0
    for seed in range(5000):
        names, pairs = _seeded_bounded_poset(seed)
        error, fields = all_pairs_lattice(names, pairs)
        try:
            lat = lattice_from_covers(names, pairs)
        except NotALattice as exc:
            assert (type(exc), str(exc)) == (type(error), str(error)), (seed, exc, error)
            failures += 1
            continue
        assert error is None, (seed, error)
        meets = fields.pop("meet_table")
        assert {name: getattr(lat, name) for name in fields} == fields, seed
        assert t_min(lat).table == meets, seed
    assert failures >= 250, failures


def test_cycle_message_names_an_element_on_the_cycle():
    """0 < a < b < c < b and c < 1: a and 1 lie below and above a 2-cycle,
    and in every element order and pair rotation the message names b or c."""
    pairs = [("0", "a"), ("a", "b"), ("b", "c"), ("c", "b"), ("c", "1")]
    for names in itertools.permutations(["0", "a", "b", "c", "1"]):
        for shift in range(len(pairs)):
            with pytest.raises(CycleDetected) as exc:
                lattice_from_covers(names, pairs[shift:] + pairs[:shift])
            assert re.fullmatch(r"cover relation has a cycle through '[bc]'", str(exc.value))


def test_extended_fig_atoms(fig_extended):
    assert set(fig_extended.atoms().names()) == {"b", "w_d", "w_c"}
    assert fig_extended.is_atomistic()
    assert not fig_extended.is_boolean_atomistic()


def _set_based_sublattice_case(parent, mask):
    """The induced order on the members of ``mask`` reduced with sets of
    names: (member names, cover pairs, meets and joins or None)."""
    ids = list(iter_bits(mask))
    names = [parent.name(i) for i in ids]
    strictly = {a: {b for b in ids if b != a and parent.leq(b, a)} for a in ids}
    covers = {
        (parent.name(lo), parent.name(hi))
        for hi in ids
        for lo in strictly[hi]
        if not any(lo in strictly[z] for z in strictly[hi])
    }
    return names, covers, set_based_meets_joins(names, covers)


def test_induced_sublattice_matches_set_based_reduction(corpus_extension, corpus_atomistic):
    """Names, covers and order of the induced sub-poset on whole corpus
    lattices, their skeleton-like cores and seeded member subsets holding
    bottom and top; a subset whose induced order is no lattice raises."""
    rng = random.Random(7)
    lattices = {**corpus_extension, **corpus_atomistic, "2^4": powerset_lattice(4)}
    # a and b have two minimal upper bounds among these members
    bowtie = lattices["2^4"].element_set(["0", "a", "b", "abc", "abd", "abcd"]).mask
    checked = refused = 0
    for name, lat in lattices.items():
        bounds = 1 << lat.bottom | 1 << lat.top
        masks = [lat.full_mask, lat.atoms_mask | bounds, lat.ji_mask | bounds]
        masks += [rng.getrandbits(lat.n) | bounds for _ in range(12)]
        if name == "2^4":
            masks.append(bowtie)
        for mask in masks:
            members = ElementSet(lat, mask)
            names, covers, expected = _set_based_sublattice_case(lat, mask)
            if expected is None:
                with pytest.raises(NotALattice):
                    induced_sublattice(lat, members)
                refused += 1
                continue
            sub = induced_sublattice(lat, members)
            ids = list(members)
            assert sub.names == tuple(names), (name, mask)
            assert set(sub.covers_named()) == covers, (name, mask)
            assert list(sub.covers) == sorted(sub.covers)
            for i, x in enumerate(ids):
                for j, y in enumerate(ids):
                    assert sub.leq(i, j) == lat.leq(x, y), (name, mask, x, y)
            meets, joins = expected
            for x in names:
                for y in names:
                    assert sub.name(sub.meet(sub.index(x), sub.index(y))) == meets[x, y]
                    assert sub.name(sub.join(sub.index(x), sub.index(y))) == joins[x, y]
            checked += 1
    assert checked > 100 and refused > 0
    full = lattices["N5"]
    assert induced_sublattice(full, ElementSet(full, full.full_mask)) == full


def test_induced_sublattice_without_a_bound(lat_m3):
    """A subset missing bottom or top has no unique minimal or maximal element."""
    with pytest.raises(NoBottom):
        induced_sublattice(lat_m3, lat_m3.element_set(["a", "b", "1"]))
    with pytest.raises(NoTop):
        induced_sublattice(lat_m3, lat_m3.element_set(["0", "a", "b"]))
    with pytest.raises(LatticeMismatch):
        induced_sublattice(lat_m3, ElementSet(chain(5), 0b10001))


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
    assert t_min(rebuilt).table == t_min(lat).table == set_based_meet_table(lat)
    joins = set_based_join_table(lat)
    assert all(rebuilt.join(x, y) == lat.join(x, y) == joins[x][y] for x in range(lat.n) for y in range(lat.n))


def test_t_min_is_the_set_based_meet_table(corpus_atomistic, corpus_extension):
    """The meet table, read off ``t_min``, against meets recomputed from
    the covers with sets alone."""
    randoms = (random_lattice(3 + s % 6, s) for s in range(40))
    for lat in itertools.chain(corpus_atomistic.values(), corpus_extension.values(), [chain(1)], randoms):
        assert t_min(lat).table == set_based_meet_table(lat), lat.names


def test_largest_powerset_builds():
    lat = powerset_lattice(POWERSET_MAX_ATOMS)
    assert lat.n == 1 << POWERSET_MAX_ATOMS and lat.is_boolean_atomistic()


def test_powerset_bound():
    with pytest.raises(BoundExceeded):
        powerset_lattice(11)
    with pytest.raises(ValueError, match=r"^k must be nonnegative$"):
        powerset_lattice(-1)


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


def mask_fact_lattices(corpus_atomistic, corpus_extension):
    """The corpora and seeded draws of 2-10 elements, each with its
    atomistic extension; 2^0 to 2^6, Pi4 and N5."""
    lats = [*corpus_atomistic.values(), *corpus_extension.values()]
    lats += [random_lattice(size, seed) for size in range(2, 11) for seed in range(10)]
    lats += [extend(lat).extended for lat in lats]
    return lats + [powerset_lattice(k) for k in range(7)] + [ROW_CLASS_LATTICES["Pi4"], pentagon()]


def test_atomisticity_and_booleanness_read_off_the_masks(corpus_atomistic, corpus_extension):
    """Every join-irreducible an atom, and 2^k elements for k atoms: the
    same verdicts as joining the atoms below each element and comparing
    atom sets across every pairwise join."""
    kinds = set()
    for lat in mask_fact_lattices(corpus_atomistic, corpus_extension):
        atomistic, boolean = atomistic_by_joins(lat), boolean_by_pairwise_unions(lat)
        assert (lat.is_atomistic(), lat.is_boolean_atomistic()) == (atomistic, boolean), lat.names
        kinds.add((atomistic, boolean))
    assert kinds == {(False, False), (True, False), (True, True)}


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


def test_maximal_independent_subsets_cap(monkeypatch):
    """A base over ``DEFAULT_ATOM_CAP`` raises before any subset is tried."""
    lat = diamond(DEFAULT_ATOM_CAP + 1)

    def tried(self, subset):
        raise AssertionError("a subset was tried")

    monkeypatch.setattr(FiniteLattice, "is_independent", tried)
    with pytest.raises(BoundExceeded, match=r"^base has 21 elements, cap is 20$"):
        lat.maximal_independent_subsets(lat.atoms())


def test_independence_rejects_a_set_of_another_lattice(lat_m3):
    """The guards compare lattice objects: an equal copy is another lattice."""
    other = diamond(3)
    with pytest.raises(LatticeMismatch, match=r"^subset belongs to a different lattice$"):
        lat_m3.is_independent(other.element_set(["a"]))
    with pytest.raises(LatticeMismatch, match=r"^base belongs to a different lattice$"):
        lat_m3.maximal_independent_subsets(other.atoms())


def test_element_set_rejects_bits_outside_the_lattice():
    lat = chain(3)
    for mask, shown in ((1 << 3, "0x8"), (-1, "-0x1")):
        with pytest.raises(ValueError, match=rf"^mask {shown} has bits outside the 3-element universe$"):
            ElementSet(lat, mask)
    assert ElementSet(lat, 0b111).mask == lat.full_mask


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
    assert fp != diamond(3).fingerprint()


def test_atoms_below(fig_extended):
    d = fig_extended.index("d")
    assert set(fig_extended.atoms_below(d).names()) == {"b", "w_d"}
    one = fig_extended.index("1")
    ji_below_one = ElementSet(fig_extended, fig_extended.ji_mask & fig_extended.downs[one])
    assert set(ji_below_one.names()) >= {"b", "w_d", "w_c"}


def test_pair_sets_match_the_order(corpus_extension, corpus_atomistic):
    """Comparable pairs, straight from ``leq``."""
    for name, lat in {**corpus_extension, **corpus_atomistic, "chain1": chain(1)}.items():
        n = lat.n
        assert tnorm._comparable_pairs(lat) == {(x, y) for x in range(n) for y in range(n) if lat.leq(x, y)}, name


def test_pair_caches_stay_out_of_equality_and_serialization(fig_lattice):
    """The comparable pairs and a failing continuity scan, which memoises
    its plan, its covers and its rescan rows, change no ``==``, ``hash``
    or JSON."""
    fresh = stemmed_diamond()
    tnorm._comparable_pairs(fig_lattice)
    assert not is_left_continuous(t_drastic(fig_lattice))
    assert fig_lattice == fresh and hash(fig_lattice) == hash(fresh)
    assert fig_lattice.fingerprint() == fresh.fingerprint()
    assert fig_lattice.to_json_obj() == fresh.to_json_obj()


def test_random_lattice_of_two_elements_is_the_chain():
    for seed in range(20):
        lat = random_lattice(2, seed)
        assert lat == chain(2) and lat.fingerprint() == chain(2).fingerprint()
    with pytest.raises(ValueError):
        random_lattice(1, 0)


def test_random_lattice_draws_are_pinned():
    """Sizes 3-10 keep their draws, fingerprints included: the benchmark's
    inputs are such draws, so a change to the sampler must not move them."""
    seeds = [*range(100), *(s * 1_000_003 + j for s in (1, 17, 29) for j in range(10))]
    digest = hashlib.sha256()
    for size in range(3, 11):
        for seed in seeds:
            lat = random_lattice(size, seed)
            assert lat.n == size
            digest.update(lat.fingerprint().encode())
    assert digest.hexdigest() == "a2700b01bdd90cf10d5d8357e8ac2ed32d227e6a5503037acf3d6cbeedb84534"
