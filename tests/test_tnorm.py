"""T-norm table verification, order, idempotents and continuity notions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalog import chain, double_atom_tower, m3, pentagon, random_lattice, stemmed_diamond
from latnorm.construction import AtomSelection, generated_family, lift, skeleton, skeleton_tnorm
from latnorm.errors import LatticeMismatch, NotClosed, TopMissing
from latnorm.extension import extend, s_family
from latnorm.lattice import iter_bits, powerset_lattice
from latnorm.oracle import enumerate_all_tnorms
from latnorm.tnorm import (
    OK,
    FamilyOrder,
    TNormTable,
    Verdict,
    idempotents,
    is_continuous,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    restrict,
    t_drastic,
    t_min,
    table_from_csv,
    table_to_csv,
    tnorm_le,
    verify_tnorm,
)

from oracles import (
    all_subsets_left_continuous,
    all_subsets_left_semicontinuous,
    all_subsets_right_continuous,
    full_pairs_monotone,
    reference_verify_tnorm,
    scan_family_bounds,
)

# The worked-example restriction table, keyed by element names.
RESTRICTED_TABLE = {
    "0": {"0": "0", "b": "0", "d": "0", "c": "0", "1": "0"},
    "b": {"0": "0", "b": "b", "d": "b", "c": "b", "1": "b"},
    "d": {"0": "0", "b": "b", "d": "d", "c": "b", "1": "d"},
    "c": {"0": "0", "b": "b", "d": "b", "c": "b", "1": "c"},
    "1": {"0": "0", "b": "b", "d": "d", "c": "c", "1": "1"},
}


def table_from_names(lat, named):
    grid = [[lat.index(named[lat.name(x)][lat.name(y)]) for y in range(lat.n)] for x in range(lat.n)]
    return TNormTable(lat, grid)


@pytest.fixture(scope="module")
def restricted(fig_lattice):
    return table_from_names(fig_lattice, RESTRICTED_TABLE)


def test_restricted_example_verifies(restricted):
    assert verify_tnorm(restricted).ok


def test_t_min_verifies_everywhere(corpus_atomistic, corpus_extension):
    for lat in list(corpus_atomistic.values()) + list(corpus_extension.values()):
        assert verify_tnorm(t_min(lat)).ok
        assert verify_tnorm(t_drastic(lat)).ok


def test_t_min_values(fig_lattice):
    t = t_min(fig_lattice)
    assert t.by_names("d", "c") == "b"


def test_t_drastic_values():
    cube = powerset_lattice(3)
    t = t_drastic(cube)
    for x in range(cube.n):
        assert t.value(x, cube.top) == x
    a, b = cube.index("a"), cube.index("b")
    assert t.value(a, b) == cube.bottom


def test_single_cell_mutation_is_caught(fig_lattice, restricted):
    grid = [list(row) for row in restricted.table]
    d, c = fig_lattice.index("d"), fig_lattice.index("c")
    grid[d][c] = d
    verdict = verify_tnorm(TNormTable(fig_lattice, grid))
    assert not verdict.ok
    assert verdict.axiom in ("commutativity", "monotonicity")


def test_verify_reports_neutral_violation(fig_lattice):
    grid = [[fig_lattice.bottom] * fig_lattice.n for _ in range(fig_lattice.n)]
    verdict = verify_tnorm(TNormTable(fig_lattice, grid))
    assert not verdict.ok and verdict.axiom == "neutral"


def test_order_bounds_on_all_enumerated(fig_lattice, lat_m3):
    for lat in (fig_lattice, lat_m3, chain(4)):
        lo, hi = t_drastic(lat), t_min(lat)
        for t in enumerate_all_tnorms(lat):
            assert tnorm_le(lo, t) and tnorm_le(t, hi)
            assert tnorm_le(t, t)
            for x in range(lat.n):
                assert t.value(x, lat.bottom) == lat.bottom
                for y in range(lat.n):
                    assert lat.leq(t.value(x, y), lat.meet(x, y))


def test_restricted_between_bounds(fig_lattice, restricted):
    assert tnorm_le(t_drastic(fig_lattice), restricted)
    assert tnorm_le(restricted, t_min(fig_lattice))


def test_tnorm_le_lattice_mismatch(fig_lattice, lat_m3):
    with pytest.raises(LatticeMismatch):
        tnorm_le(t_min(fig_lattice), t_min(lat_m3))


def test_idempotents(restricted, fig_lattice, lat_m3):
    assert set(idempotents(restricted).names()) == {"0", "b", "d", "1"}
    assert len(idempotents(t_min(fig_lattice))) == fig_lattice.n
    assert set(idempotents(t_drastic(lat_m3)).names()) == {"0", "1"}


def test_monotonicity_cover_check_matches_full_pairs(fig_lattice, lat_m3):
    """Cover-based monotonicity equals the all-pairs formulation.

    Valid tables pass both; symmetric diagonal mutations of the meet table
    (which keep the neutral and commutativity checks green) must make the
    two formulations agree in both directions.
    """
    for lat in (fig_lattice, lat_m3, chain(4)):
        for t in enumerate_all_tnorms(lat):
            assert full_pairs_monotone(t)
        mids = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        for m in mids:
            for v in range(lat.n):
                grid = [list(row) for row in t_min(lat).table]
                grid[m][m] = v
                broken = TNormTable(lat, grid)
                verdict = verify_tnorm(broken)
                if verdict.ok or verdict.axiom == "associativity":
                    assert full_pairs_monotone(broken)
                elif verdict.axiom == "monotonicity":
                    assert not full_pairs_monotone(broken)


def test_continuity_on_two_chain():
    lat = chain(2)
    (only,) = list(enumerate_all_tnorms(lat))
    assert is_continuous(only).ok
    assert only.table == t_min(lat).table


def test_left_continuity_witness_is_genuine(fig_extended):
    """A failed scan must return a checkable counterexample."""
    from latnorm.construction import AtomSelection, lift, skeleton, skeleton_tnorm

    skel = skeleton(fig_extended)
    sel = AtomSelection.from_names(fig_extended, ["b", "w_d"])
    lifted = lift(fig_extended, skeleton_tnorm(skel, sel))
    verdict = is_left_continuous(lifted)
    assert not verdict.ok
    a, x, y = (fig_extended.index(n) for n in verdict.witness)
    j = fig_extended.join(x, y)
    assert lifted.value(a, j) != fig_extended.join(lifted.value(a, x), lifted.value(a, y))
    # the drastic witness from the construction: the inserted atom under c
    w_c, cc, d = (fig_extended.index(n) for n in ("w_c", "c", "d"))
    assert lifted.value(w_c, fig_extended.join(cc, d)) == w_c
    assert fig_extended.join(lifted.value(w_c, cc), lifted.value(w_c, d)) == fig_extended.bottom


def test_drastic_left_semicontinuous(corpus_atomistic, corpus_extension):
    for lat in list(corpus_atomistic.values()) + list(corpus_extension.values()):
        assert is_left_semicontinuous(t_drastic(lat)).ok


def test_left_continuous_implies_left_semicontinuous(fig_extended, lat_m3):
    for lat in (fig_extended, lat_m3, chain(4), powerset_lattice(2)):
        for t in enumerate_all_tnorms(lat):
            if is_left_continuous(t).ok:
                assert is_left_semicontinuous(t).ok


def test_binary_reductions_match_all_subsets(corpus_atomistic, corpus_extension):
    """Exponential cross-check of every continuity notion, |L| <= 10."""
    small = [lat for lat in list(corpus_atomistic.values()) + list(corpus_extension.values()) if lat.n <= 10]
    for lat in small:
        for t in (t_min(lat), t_drastic(lat)):
            assert is_left_continuous(t).ok == all_subsets_left_continuous(t)
            assert is_right_continuous(t).ok == all_subsets_right_continuous(t)
            assert is_left_semicontinuous(t).ok == all_subsets_left_semicontinuous(t)


def test_binary_reductions_match_all_subsets_enumerated(fig_lattice, lat_m3):
    for lat in (fig_lattice, lat_m3, chain(4), powerset_lattice(2)):
        for t in enumerate_all_tnorms(lat):
            assert is_left_continuous(t).ok == all_subsets_left_continuous(t)
            assert is_right_continuous(t).ok == all_subsets_right_continuous(t)
            assert is_left_semicontinuous(t).ok == all_subsets_left_semicontinuous(t)


def test_restrict_identity(restricted, fig_lattice):
    full = fig_lattice.element_set(mask=fig_lattice.full_mask)
    again = restrict(restricted, full)
    assert again.table == restricted.table
    assert again.lattice == fig_lattice


def test_restrict_requires_top(restricted, fig_lattice):
    with pytest.raises(TopMissing):
        restrict(restricted, fig_lattice.element_set(["0", "b"]))


def test_restrict_not_closed(fig_lattice):
    t = t_min(fig_lattice)
    with pytest.raises(NotClosed) as err:
        restrict(t, fig_lattice.element_set(["d", "c", "1"]))
    assert err.value.witness == "b"


def test_restrict_then_verify(fig_lattice, restricted):
    sub = restrict(restricted, fig_lattice.element_set(["0", "b", "d", "1"]))
    assert verify_tnorm(sub).ok
    assert sub.lattice.names == ("0", "b", "d", "1")


def test_csv_round_trip(restricted, fig_lattice):
    text = table_to_csv(restricted)
    again = table_from_csv(fig_lattice, text)
    assert again == restricted
    assert table_to_csv(again) == text


def test_csv_round_trip_permuted_header(fig_lattice, restricted):
    lines = table_to_csv(restricted).splitlines()
    # swap two columns in the header and in each row consistently
    cols = lines[0].split(",")
    order = [0, 1, 3, 2, 4, 5]
    permuted = [",".join(line.split(",")[i] for i in order) for line in lines]
    again = table_from_csv(fig_lattice, "\n".join(permuted))
    assert again == restricted


def test_csv_rejects_wrong_header(fig_lattice):
    with pytest.raises(Exception):
        table_from_csv(fig_lattice, ",x,y\nx,x,x\ny,x,y\n")


@given(st.integers(0, 3))
def test_meet_is_strongest(k):
    lat = powerset_lattice(k)
    t = t_min(lat)
    assert verify_tnorm(t).ok
    assert is_continuous(t).ok


# 1 to 7 elements; chain(1) has no pair to sweep and chain(2) no middle element
SMALL_LATTICES = [
    chain(1),
    chain(2),
    chain(4),
    powerset_lattice(2),
    m3(),
    pentagon(),
    stemmed_diamond(),
    double_atom_tower(),
    random_lattice(6, 3),
    chain(7),
    random_lattice(7, 11),
]
SMALL_TNORMS = [list(enumerate_all_tnorms(lat)) for lat in SMALL_LATTICES]


def _monotone_changes(lat, grid):
    """Every (x, y, v) such that setting the cells (x, y) and (y, x) to v,
    for x, y below top, keeps them monotone against their neighbours
    across covers and changes the table."""
    changes = []
    for x in range(lat.n):
        for y in range(x, lat.n):
            if lat.top in (x, y):
                continue
            allowed = lat.full_mask & ~(1 << grid[x][y])
            for lo, hi in lat.covers:
                if hi == x:
                    allowed &= lat.ups[grid[lo][y]]
                if hi == y:
                    allowed &= lat.ups[grid[x][lo]]
                if lo == x:
                    allowed &= lat.downs[grid[hi][y]]
                if lo == y:
                    allowed &= lat.downs[grid[x][hi]]
            changes += [(x, y, v) for v in iter_bits(allowed)]
    return changes


@settings(max_examples=300)
@given(st.data())
def test_verify_matches_cell_by_cell_reference(data):
    """Same axiom and witness as the cell-by-cell sweep on perturbed t-norms.

    A monotone change keeps a t-norm neutral, commutative and monotone, so
    the examples made of such changes alone (about half) either are
    t-norms or fail associativity only; the others change symmetric cell
    pairs or single cells to any value.
    """
    k = data.draw(st.integers(0, len(SMALL_LATTICES) - 1))
    lat = SMALL_LATTICES[k]
    n = lat.n
    grid = [list(row) for row in data.draw(st.sampled_from(SMALL_TNORMS[k])).table]
    kinds = data.draw(st.sampled_from([["monotone"], ["monotone", "symmetric", "cell"]]))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(kinds))
        x, y, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        if kind == "monotone":
            changes = _monotone_changes(lat, grid)
            if not changes:
                continue
            x, y, v = data.draw(st.sampled_from(changes))
        grid[x][y] = v
        if kind != "cell":
            grid[y][x] = v
    t = TNormTable(lat, grid)
    assert verify_tnorm(t) == reference_verify_tnorm(t)


def test_verify_pins_deep_associativity_witness():
    """The meet on 2^7 with T(g, g) = 0: neutral, commutative and monotone,
    and the first associativity failure lies halfway through the x sweep."""
    lat = powerset_lattice(7)
    g = lat.index("g")
    grid = [list(row) for row in lat.meet_table]
    grid[g][g] = lat.bottom
    assert verify_tnorm(TNormTable(lat, grid)) == Verdict(False, "associativity", ("g", "ag", "bg"))


@pytest.mark.slow
def test_verify_matches_reference_on_large_lifts():
    """Full and seeded lifts on 2^8, and each with one symmetric cell pair
    lowered to bottom deep in the table."""
    lat = powerset_lattice(8)
    skel = skeleton(lat)
    atoms = [lat.name(a) for a in iter_bits(lat.atoms_mask)]
    selections = [atoms]
    for seed in (1, 2):
        rng = random.Random(seed)
        selections.append([a for a in atoms if rng.random() < 0.5])
    for chosen in selections:
        lifted = lift(lat, skeleton_tnorm(skel, AtomSelection.from_names(lat, chosen)))
        x, y = lat.n - 2, lat.n - 3
        grid = [list(row) for row in lifted.table]
        grid[x][y] = grid[y][x] = lat.bottom
        for t in (lifted, TNormTable(lat, grid)):
            assert verify_tnorm(t) == reference_verify_tnorm(t)


def assert_order_matches_scans(tables):
    order = FamilyOrder(tables)
    le, lub, glb = scan_family_bounds(tables)

    def rows(member):
        return None if member is None else order.members[member].table

    assert [rows(i) for i in order.index] == [t.table for t in tables]
    assert len(set(rows(i) for i in range(len(order.members)))) == len(order.members)
    for i, a in enumerate(order.index):
        for j, b in enumerate(order.index):
            assert order.le(a, b) == le[i][j], (i, j)
            assert rows(order.lub(a, b)) == lub[i][j], (i, j)
            assert rows(order.glb(a, b)) == glb[i][j], (i, j)
    return order


def test_family_order_matches_scans_on_lifted_families(corpus_extension):
    for name, lat in corpus_extension.items():
        big = extend(lat).extended
        if big.atoms_mask.bit_count() > 8:
            continue
        family = [g.lifted for g in generated_family(big)]
        order = assert_order_matches_scans(family)
        assert order.index == list(range(len(family))), name


def test_family_order_matches_scans_on_shared_restrictions():
    """Distinct selections share a restriction, and an intersection of
    passing selections fails the gate, so the meet is not a selection's."""
    ext = extend(double_atom_tower())
    members = s_family(ext, generated_family(ext.extended)).members()
    order = assert_order_matches_scans([t for _, t in members])
    assert len(order.members) < len(members)
    position = {sel.mask: i for i, (sel, _) in enumerate(members)}
    a, b = (AtomSelection.from_names(ext.extended, ["w_p", x]).mask for x in ("a", "b"))
    assert a & b not in position
    assert order.glb(order.index[position[a]], order.index[position[b]]) is not None


def test_family_order_without_least_upper_bound(p2):
    a, b = (g.lifted for g in generated_family(p2) if len(g.selection) == 1)
    assert not tnorm_le(a, b) and not tnorm_le(b, a)
    drastic = t_drastic(p2)
    order = FamilyOrder([drastic, a, b, a])
    assert order.index == [0, 1, 2, 1]
    assert order.lub(1, 2) is None
    assert order.glb(1, 2) == 0
    assert order.lub(0, 1) == 1 and order.glb(0, 1) == 0
    assert order.le(0, 2) and not order.le(2, 0)


def test_family_order_on_empty_and_one_element_families():
    assert_order_matches_scans([])
    only = t_min(chain(1))
    order = assert_order_matches_scans([only, t_drastic(only.lattice), only])
    assert order.index == [0, 0, 0] and order.ups == [1] and order.downs == [1]


FAMILY_LATTICES = [chain(1), chain(2), chain(3), powerset_lattice(2), m3(), pentagon()]


@given(st.data())
def test_family_order_matches_scans_on_random_tables(data):
    """Families of arbitrary cell grids, none required to be a t-norm:
    duplicates, and pointwise meets and joins of earlier members so that
    comparable pairs and bounds occur."""
    lat = data.draw(st.sampled_from(FAMILY_LATTICES))
    n = lat.n
    random_grid = st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)
    grids = []
    for _ in range(data.draw(st.integers(1, 7))):
        kind = data.draw(st.sampled_from(["random", "duplicate", "meet", "join"])) if grids else "random"
        if kind == "random":
            grid = data.draw(random_grid)
        elif kind == "duplicate":
            grid = data.draw(st.sampled_from(grids))
        else:
            op = lat.meet_table if kind == "meet" else lat.join_table
            base, other = data.draw(st.sampled_from(grids)), data.draw(random_grid)
            grid = [[op[a][b] for a, b in zip(r1, r2)] for r1, r2 in zip(base, other)]
        grids.append(grid)
    assert_order_matches_scans([TNormTable(lat, grid) for grid in grids])


def test_family_order_lattice_mismatch(p2, lat_m3):
    with pytest.raises(LatticeMismatch):
        FamilyOrder([t_min(p2), t_min(lat_m3)])


def _rule_table(lat, rule):
    """The table whose (x, y) cell is the element named rule(x, y) on names."""
    return TNormTable(lat, [[lat.index(rule(x, y)) for y in lat.names] for x in lat.names])


# Hand-made tables, none of them a t-norm, with the verdict each scan
# returned when these were recorded: (left-continuity, right-continuity,
# left-semicontinuity); None stands for OK.
PINNED_SCANS = [
    (
        "left projection on chain(3)",
        chain(3),
        lambda x, y: x,
        ("left-continuity(empty)", ("1", "0")),
        None,
        ("left-semicontinuity(empty)", ("1", "0")),
    ),
    (
        "constant bottom on chain(3)",
        chain(3),
        lambda x, y: "0",
        None,
        ("right-continuity(empty)", ("1", "2")),
        None,
    ),
    (
        "drastic on M3",
        m3(),
        lambda x, y: y if x == "1" else x if y == "1" else "0",
        ("left-continuity", ("a", "a", "b")),
        None,
        None,
    ),
    (
        "x unless y is bottom, on M3",
        m3(),
        lambda x, y: "0" if y == "0" else x,
        None,
        ("right-continuity", ("a", "a", "b")),
        None,
    ),
    (
        "meet but ab*ab = 0, on 2^3",
        powerset_lattice(3),
        lambda x, y: "0" if x == y == "ab" else "".join(c for c in x if c in y) or "0",
        ("left-continuity", ("ab", "a", "b")),
        ("right-continuity", ("ab", "a", "ab")),
        ("left-semicontinuity", ("ab", "a", "b")),
    ),
]


@pytest.mark.parametrize("name, lat, rule, left, right, lsc", PINNED_SCANS, ids=[p[0] for p in PINNED_SCANS])
def test_continuity_scans_pinned_verdicts(name, lat, rule, left, right, lsc):
    """Axiom and witness of each scan's first violation, in file order."""
    t = _rule_table(lat, rule)

    def pinned(expected):
        return OK if expected is None else Verdict(False, *expected)

    assert is_left_continuous(t) == pinned(left)
    assert is_right_continuous(t) == pinned(right)
    assert is_continuous(t) == (pinned(left) if left is not None else pinned(right))
    assert is_left_semicontinuous(t) == pinned(lsc)
