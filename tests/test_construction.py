"""Skeleton construction, selection-generated t-norms, lifting, family structure."""

from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from latnorm.catalog import chain, diamond, tall_stemmed_diamond
from latnorm.construction import (
    AtomSelection,
    enumerate_skeleton_tnorms,
    family_powerset_isomorphism,
    generated_family,
    idempotents_via_independence,
    lift,
    semicontinuity_criterion,
    skeleton,
    skeleton_tnorm,
)
from latnorm.errors import (
    BoundExceeded,
    DegenerateLength,
    DegenerateLengthWarning,
    LatticeMismatch,
    NonAtomInAlpha,
    NotAtomistic,
    UnknownLabel,
)
from latnorm.extension import extend
from latnorm.lattice import ElementSet, iter_bits, lattice_from_covers, powerset_lattice
from latnorm.oracle import census
from latnorm.tnorm import (
    idempotents,
    is_left_semicontinuous,
    restrict,
    t_drastic,
    t_min,
    tnorm_le,
    verify_tnorm,
)

from conftest import cell_name
from oracles import (
    all_subsets_semicontinuity_condition,
    double_join_lift,
    independent_subsets_spanning,
    reference_family_powerset_isomorphism,
    reference_semicontinuity_criterion,
)
from test_lattice import mask_fact_lattices

# Worked-example tables keyed by element names: the skeleton t-norm for the
# selection {b, w_d} and its lift to the extended lattice.
SKELETON_TABLE = {
    "0": {"0": "0", "b": "0", "w_d": "0", "w_c": "0", "1": "0"},
    "b": {"0": "0", "b": "b", "w_d": "0", "w_c": "0", "1": "b"},
    "w_d": {"0": "0", "b": "0", "w_d": "w_d", "w_c": "0", "1": "w_d"},
    "w_c": {"0": "0", "b": "0", "w_d": "0", "w_c": "0", "1": "w_c"},
    "1": {"0": "0", "b": "b", "w_d": "w_d", "w_c": "w_c", "1": "1"},
}
LIFTED_TABLE = {
    "0": {"0": "0", "b": "0", "w_d": "0", "w_c": "0", "d": "0", "c": "0", "1": "0"},
    "b": {"0": "0", "b": "b", "w_d": "0", "w_c": "0", "d": "b", "c": "b", "1": "b"},
    "w_d": {"0": "0", "b": "0", "w_d": "w_d", "w_c": "0", "d": "w_d", "c": "0", "1": "w_d"},
    "w_c": {"0": "0", "b": "0", "w_d": "0", "w_c": "0", "d": "0", "c": "0", "1": "w_c"},
    "d": {"0": "0", "b": "b", "w_d": "w_d", "w_c": "0", "d": "d", "c": "b", "1": "d"},
    "c": {"0": "0", "b": "b", "w_d": "0", "w_c": "0", "d": "b", "c": "b", "1": "c"},
    "1": {"0": "0", "b": "b", "w_d": "w_d", "w_c": "w_c", "d": "d", "c": "c", "1": "1"},
}


def family_lattices(corpus_atomistic, corpus_extension, max_size=12):
    lats = list(corpus_atomistic.values())
    for lat in corpus_extension.values():
        ext = extend(lat).extended
        if ext.n <= max_size and ext.length >= 2:
            lats.append(ext)
    return lats


def test_skeleton_members(fig_extended):
    skel = skeleton(fig_extended)
    assert skel.lattice.names == ("0", "b", "1", "w_d", "w_c")
    assert skel.lattice.length == 2


def test_skeleton_rejects_non_atomistic(fig_lattice):
    with pytest.raises(NotAtomistic):
        skeleton(fig_lattice)


def test_skeleton_degenerate_warns(two_chain):
    with pytest.warns(DegenerateLengthWarning):
        skel = skeleton(two_chain)
    assert skel.lattice.names == ("0", "1")


def test_skeleton_of_diamond_is_itself(lat_m3):
    skel = skeleton(lat_m3)
    assert skel.lattice == lat_m3


def test_skeleton_tnorm_matches_worked_example(fig_extended):
    skel = skeleton(fig_extended)
    sel = AtomSelection.from_names(fig_extended, ["b", "w_d"])
    t = skeleton_tnorm(skel, sel)
    for xn, row in SKELETON_TABLE.items():
        for yn, val in row.items():
            assert cell_name(t, xn, yn) == val, (xn, yn)
    assert verify_tnorm(t).ok


def test_skeleton_tnorm_extremes(fig_extended):
    skel = skeleton(fig_extended)
    empty = skeleton_tnorm(skel, AtomSelection(fig_extended, 0))
    assert empty.table == t_drastic(skel.lattice).table
    full = skeleton_tnorm(skel, AtomSelection(fig_extended, fig_extended.atoms_mask))
    assert full.table == t_min(skel.lattice).table


def test_selection_rejects_non_atoms(fig_extended):
    with pytest.raises(NonAtomInAlpha, match=r"^not atoms: d$"):
        AtomSelection.from_names(fig_extended, ["d"])
    with pytest.raises(NonAtomInAlpha, match=r"^not atoms: d, c, 1$"):
        AtomSelection.from_names(fig_extended, ["1", "b", "c", "d"])


def test_selection_set_behaviour(fig_extended, lat_m3):
    """Equality, hashing, membership, size, order and labels of a selection."""
    sel = AtomSelection.from_names(fig_extended, ["w_d", "b"])
    same = AtomSelection(fig_extended, sel.mask)
    assert sel == same and hash(sel) == hash(same) and len({sel, same}) == 1
    assert sel != AtomSelection.from_names(fig_extended, ["b"])
    assert AtomSelection(lat_m3, 0b10) != AtomSelection(powerset_lattice(2), 0b10)
    b, w_d, w_c = (fig_extended.index(x) for x in ("b", "w_d", "w_c"))
    assert b in sel and w_d in sel and w_c not in sel
    assert len(sel) == 2 and list(sel) == [b, w_d]
    assert sel.names() == ("b", "w_d") and sel.label() == "b_w_d"
    assert sel.lattice is fig_extended and sel.mask == 1 << b | 1 << w_d
    empty = AtomSelection(fig_extended, 0)
    assert len(empty) == 0 and list(empty) == [] and empty.names() == () and empty.label() == "empty"
    assert not empty and sel
    for field, value in (("mask", 1 << fig_extended.top), ("lattice", lat_m3)):
        with pytest.raises(AttributeError):
            setattr(sel, field, value)
    assert sel.names() == ("b", "w_d")


def test_selection_guards_reject_a_selection_of_another_lattice(lat_m3):
    """The skeleton table and the criterion compare lattice objects: a
    selection on an equal copy is on another lattice."""
    other = AtomSelection.from_names(diamond(3), ["a"])
    with pytest.raises(LatticeMismatch, match=r"^selection belongs to a different lattice$"):
        skeleton_tnorm(skeleton(lat_m3), other)
    with pytest.raises(LatticeMismatch, match=r"^selection belongs to a different lattice$"):
        semicontinuity_criterion(lat_m3, other)


def test_selection_is_an_element_set(fig_extended):
    """A selection equals, and hashes like, the plain element set with its mask."""
    sel = AtomSelection.from_names(fig_extended, ["b", "w_c"])
    plain = ElementSet(fig_extended, sel.mask)
    assert isinstance(sel, ElementSet) and sel == plain and plain == sel and hash(sel) == hash(plain)
    assert repr(sel) == "{b, w_c}"
    with pytest.raises(AttributeError):
        sel.members


def test_enumeration_counts(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        skel = skeleton(lat)
        pairs = list(enumerate_skeleton_tnorms(skel))
        assert len(pairs) == 2 ** len(lat.atoms()), name
        for _, table in pairs:
            assert verify_tnorm(table).ok


def test_enumeration_cap(p3):
    skel = skeleton(p3)
    with pytest.raises(BoundExceeded):
        list(enumerate_skeleton_tnorms(skel, cap=2))


@given(bits=st.integers(0, 15))
def test_skeleton_tnorm_always_verifies(bits):
    lat = powerset_lattice(4)
    skel = skeleton(lat)
    atoms = list(lat.atoms())
    mask = sum(1 << atoms[i] for i in range(4) if bits >> i & 1)
    table = skeleton_tnorm(skel, AtomSelection(lat, mask))
    assert verify_tnorm(table).ok


def test_lift_matches_worked_example(fig_extended):
    skel = skeleton(fig_extended)
    sel = AtomSelection.from_names(fig_extended, ["b", "w_d"])
    lifted = lift(fig_extended, skeleton_tnorm(skel, sel))
    for xn, row in LIFTED_TABLE.items():
        for yn, val in row.items():
            assert cell_name(lifted, xn, yn) == val, (xn, yn)
    assert verify_tnorm(lifted).ok


def test_lift_rejects_non_atomistic(fig_lattice, fig_extended):
    skel = skeleton(fig_extended)
    table = skeleton_tnorm(skel, AtomSelection(fig_extended, 0))
    with pytest.raises(NotAtomistic):
        lift(fig_lattice, table)


def test_lift_rejects_unknown_bound_names(lat_m3):
    """A skeleton table whose bottom and top names are missing from the
    lattice is rejected, as a missing atom name is."""
    atoms = ["a", "b", "c"]
    renamed = lattice_from_covers(["bot", *atoms, "top"], [("bot", a) for a in atoms] + [(a, "top") for a in atoms])
    with pytest.raises(UnknownLabel):
        lift(lat_m3, t_min(renamed))


@pytest.mark.parametrize(
    "names, covers",
    [
        # every name is in M3, but the chain 0 < a < 1 misses two atoms
        (["0", "a", "1"], [("0", "a"), ("a", "1")]),
        # M3's skeleton with its atoms out of element order
        (["0", "b", "a", "c", "1"], [(lo, hi) for a in "bac" for lo, hi in (("0", a), (a, "1"))]),
    ],
    ids=["missing atoms", "atoms out of order"],
)
def test_lift_rejects_a_table_off_the_skeleton(lat_m3, names, covers):
    with pytest.raises(LatticeMismatch):
        lift(lat_m3, t_min(lattice_from_covers(names, covers)))


def test_lift_equals_double_join_reference(corpus_atomistic, corpus_extension):
    """The closed-form lift agrees with the literal double join everywhere."""
    for lat in family_lattices(corpus_atomistic, corpus_extension):
        skel = skeleton(lat)
        for sel, on_c in enumerate_skeleton_tnorms(skel):
            assert lift(lat, on_c).table == tuple(
                tuple(row) for row in double_join_lift(lat, skel, on_c)
            ), (lat.names, sel.label())


def test_lift_extremes(corpus_atomistic):
    """Full selection lifts to meet; empty selection lifts to drastic."""
    for lat in corpus_atomistic.values():
        skel = skeleton(lat)
        full = lift(lat, skeleton_tnorm(skel, AtomSelection(lat, lat.atoms_mask)))
        assert full.table == t_min(lat).table
        empty = lift(lat, skeleton_tnorm(skel, AtomSelection(lat, 0)))
        assert empty.table == t_drastic(lat).table


def test_family_sizes(fig_extended, p2, two_chain):
    assert len(generated_family(fig_extended)) == 8
    assert len(generated_family(p2)) == 4
    with pytest.warns(DegenerateLengthWarning):
        assert len(generated_family(two_chain)) == 1


def test_family_pairwise_distinct(corpus_atomistic):
    for lat in corpus_atomistic.values():
        family = generated_family(lat)
        assert len({g.lifted.table for g in family}) == len(family)
        assert len({g.on_skeleton.table for g in family}) == len(family)


def test_family_round_trip(corpus_atomistic, corpus_extension):
    """Restricting a lift to the skeleton recovers the skeleton table."""
    for lat in family_lattices(corpus_atomistic, corpus_extension):
        skel = skeleton(lat)
        for g in generated_family(lat):
            assert restrict(g.lifted, skel.members) == g.on_skeleton


def test_family_generation_is_monotone(corpus_atomistic):
    for lat in corpus_atomistic.values():
        family = generated_family(lat)
        for g1 in family:
            for g2 in family:
                if g1.selection.mask & ~g2.selection.mask == 0:
                    assert tnorm_le(g1.lifted, g2.lifted)


def test_theta_beta_partition(corpus_atomistic):
    """Idempotent atoms below x are exactly the selected ones."""
    for lat in corpus_atomistic.values():
        for g in generated_family(lat):
            for x in range(lat.n):
                ax = lat.atoms_mask & lat.downs[x]
                theta = 0
                for a in range(lat.n):
                    if ax >> a & 1 and g.lifted.table[a][a] == a:
                        theta |= 1 << a
                assert theta == ax & g.selection.mask


def test_idempotents_via_independence_matches_diagonal(corpus_atomistic, corpus_extension):
    for lat in family_lattices(corpus_atomistic, corpus_extension):
        for g in generated_family(lat):
            assert idempotents_via_independence(g) == idempotents(g.lifted), (
                lat.names,
                g.selection.label(),
            )


def test_idempotents_worked_example(fig_extended):
    family = {g.selection.names(): g for g in generated_family(fig_extended)}
    g = family[("b", "w_d")]
    idem = idempotents_via_independence(g)
    assert set(idem.names()) == {"0", "b", "w_d", "d", "1"}
    assert cell_name(g.lifted, "d", "d") == "d"
    g_empty = family[()]
    assert set(idempotents_via_independence(g_empty).names()) == {"0", "1"}


def test_maximal_independent_sets_can_fail_to_span():
    """Below-top elements may have maximal independent atom sets joining short.

    This is why the independence-based idempotent classification must
    require the span, not just maximality.
    """
    ext = extend(tall_stemmed_diamond()).extended
    m = ext.index("m")
    base = ext.atoms_below(m)
    assert set(base.names()) == {"b", "w_d", "w_c"}
    maximal = ext.maximal_independent_subsets(base)
    names = {s.names() for s in maximal}
    assert ("b", "w_d") in names
    bwd = next(s for s in maximal if s.names() == ("b", "w_d"))
    assert ext.join_all(bwd) != m  # maximal yet not spanning
    spanning = {frozenset(ext.name(a) for a in s) for s in independent_subsets_spanning(ext, m)}
    assert spanning == {frozenset({"w_d", "w_c"})}


def test_semicontinuity_criterion_matches_scan(corpus_atomistic, corpus_extension):
    for lat in family_lattices(corpus_atomistic, corpus_extension):
        for g in generated_family(lat):
            predicted = semicontinuity_criterion(lat, g.selection)
            assert predicted.ok == is_left_semicontinuous(g.lifted).ok, (
                lat.names,
                g.selection.label(),
            )


def test_semicontinuity_criterion_witness_reduction_matches_all_subsets(
    corpus_atomistic, corpus_extension
):
    """Single-element witnesses equal the literal all-subsets condition."""
    for lat in family_lattices(corpus_atomistic, corpus_extension, max_size=10):
        skel = skeleton(lat)
        for sel, _ in enumerate_skeleton_tnorms(skel):
            assert semicontinuity_criterion(lat, sel).ok == all_subsets_semicontinuity_condition(
                lat, sel
            ), (lat.names, sel.label())


def test_semicontinuity_criterion_gathers_join_irreducibles(corpus_atomistic, corpus_extension):
    """Joining only the join-irreducibles below z that do not dominate u
    gives the reference's verdict and witness on every selection, on
    atomistic and non-atomistic lattices alike."""
    failing = 0
    for lat in mask_fact_lattices(corpus_atomistic, corpus_extension):
        atoms = list(iter_bits(lat.atoms_mask))
        for mask in range(1 << len(atoms)):
            sel = AtomSelection(lat, sum(1 << a for i, a in enumerate(atoms) if mask >> i & 1))
            expected = reference_semicontinuity_criterion(lat, sel)
            assert semicontinuity_criterion(lat, sel) == expected, (lat.names, sel.label())
            failing += not expected.ok and not lat.is_atomistic()
    assert failing


def test_semicontinuity_vacuous_cases(p3, fig_extended):
    assert semicontinuity_criterion(p3, AtomSelection(p3, 0)).ok
    # every selection passes on a powerset-isomorphic lattice
    for g in generated_family(p3):
        assert semicontinuity_criterion(p3, g.selection).ok
    # and on this extension every selection happens to pass as well
    for g in generated_family(fig_extended):
        assert semicontinuity_criterion(fig_extended, g.selection).ok


def test_left_continuity_census(p2, p3, lat_m3, fig_extended):
    """A left-continuous t-norm exists only on powerset-isomorphic lattices,
    and there it is the meet, uniquely."""
    for lat in (p2, p3):
        report = census(lat)
        assert report.classes["left_continuous"] == 1
        witness = report.witnesses["left_continuous"]["rows"]
        expected = [[lat.name(v) for v in row] for row in t_min(lat).table]
        assert witness == expected
    for lat in (lat_m3, fig_extended):
        assert census(lat).classes["left_continuous"] == 0


def test_family_isomorphism(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        verdict = family_powerset_isomorphism(lat, generated_family(lat))
        assert verdict.ok, (name, verdict.describe())


def test_family_isomorphism_boolean_self(p2, p3, lat_m3):
    """On a Boolean lattice the isomorphism with the atom powerset is one
    with the lattice itself; M3 is not Boolean."""
    for lat, boolean in ((p2, True), (p3, True), (lat_m3, False)):
        assert family_powerset_isomorphism(lat, generated_family(lat)).ok
        assert lat.is_boolean_atomistic() is boolean


def test_family_isomorphism_degenerate(two_chain):
    with pytest.warns(DegenerateLengthWarning):
        family = generated_family(two_chain)
    with pytest.raises(DegenerateLength):
        family_powerset_isomorphism(two_chain, family)


def _swapped_lifts(family, a, b):
    lifts = [g.lifted for g in family]
    lifts[a], lifts[b] = lifts[b], lifts[a]
    return [replace(g, lifted=t) for g, t in zip(family, lifts)]


def _replaced_lift(family, a, table):
    return [replace(g, lifted=table) if i == a else g for i, g in enumerate(family)]


def _isomorphism_parity_cases(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        yield name, lat, generated_family(lat)
    for name, lat in (("2^5", powerset_lattice(5)), ("diamond(4)", diamond(4)), ("diamond(5)", diamond(5))):
        family = generated_family(lat)
        yield name, lat, family
        for label, t in (("drastic", t_drastic(lat)), ("min", t_min(lat))):
            for a in (0, 1, len(family) // 2, len(family) - 1):
                yield f"{name} {label} at {a}", lat, _replaced_lift(family, a, t)
    for k in (2, 3, 4):
        lat = powerset_lattice(k)
        family = generated_family(lat)
        yield f"2^{k}", lat, family
        last = len(family) - 1
        for a, b in ((0, last), (1, 2), (last - 1, last)):
            yield f"2^{k} swap {a} {b}", lat, _swapped_lifts(family, a, b)
            yield f"2^{k} copy {b} onto {a}", lat, _replaced_lift(family, a, family[b].lifted)
            yield f"2^{k} copy {a} onto {b}", lat, _replaced_lift(family, b, family[a].lifted)
    lat = corpus_atomistic["M3"]
    family = generated_family(lat)
    yield "M3 swap", lat, _swapped_lifts(family, 3, 4)
    yield "M3 copy", lat, _replaced_lift(family, 7, family[0].lifted)
    # the family need not come in mask order
    yield "M3 reversed", lat, family[::-1]
    yield "M3 reversed copy", lat, _replaced_lift(family, 0, family[1].lifted)[::-1]


def test_family_isomorphism_matches_reference(corpus_atomistic):
    """The two sweeps reach every verdict of the full set of loops, on the
    corpus and on families with swapped, repeated or replaced lifts."""
    failing = 0
    for name, lat, family in _isomorphism_parity_cases(corpus_atomistic):
        verdict = family_powerset_isomorphism(lat, family)
        passed, failures, boolean_self = reference_family_powerset_isomorphism(lat, family)
        assert verdict.ok is passed, name
        assert boolean_self is (passed if lat.is_boolean_atomistic() else None), name
        if not passed:
            assert verdict.axiom == "family-isomorphism", name
            first = "selection inclusion and pointwise order disagree on ({}, {})".format(*verdict.witness)
            assert [first] == failures[:1], name
        failing += not passed
    # the reversed M3 family, swapping the two singletons of 2^2 (an
    # automorphism of the powerset), and replacing a lift by the table it
    # already is (drastic at the empty selection, min at the full one) pass
    assert failing == 47


def selection_of(family, table):
    """The selection whose lift is ``table``, or None."""
    return next((g.selection for g in family if g.lifted == table), None)


def test_family_isomorphism_selection_lookup(fig_extended):
    family = generated_family(fig_extended)
    assert family_powerset_isomorphism(fig_extended, family).ok
    g = family[3]
    assert selection_of(family, g.lifted) == g.selection
    assert selection_of(family, t_drastic(fig_extended)) == family[0].selection


def test_chain_family_members_are_left_continuous():
    """On chains the top is join-irreducible, so every family member passes."""
    lat = extend(chain(3)).extended
    for g in generated_family(lat):
        assert is_left_semicontinuous(g.lifted).ok == semicontinuity_criterion(lat, g.selection).ok
