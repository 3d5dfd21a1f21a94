"""T-norm table verification, order, idempotents and continuity notions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalog import chain, diamond, double_atom_tower, pentagon, random_lattice, stemmed_diamond
from latnorm.construction import AtomSelection, generated_family, lift, skeleton, skeleton_tnorm
from latnorm.errors import LatticeMismatch, NotClosed, TopMissing, UnknownLabel
from latnorm.lattice import ElementSet, iter_bits, lattice_from_covers, powerset_lattice
from latnorm.oracle import enumerate_all_tnorms
from latnorm.tnorm import (
    OK,
    TNormTable,
    Verdict,
    continuity_classifier,
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
    _scan,
)

from conftest import cell_name
from oracles import (
    all_subsets_left_continuous,
    all_subsets_left_semicontinuous,
    all_subsets_right_continuous,
    full_pairs_monotone,
    reference_continuity_scans,
    reference_verify_tnorm,
    relabeled,
    set_based_meets_joins,
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
    assert cell_name(t, "d", "c") == "b"


def test_t_drastic_values():
    cube = powerset_lattice(3)
    t = t_drastic(cube)
    for x in range(cube.n):
        assert t.table[x][cube.top] == x
    a, b = cube.index("a"), cube.index("b")
    assert t.table[a][b] == cube.bottom


def test_table_refuses_cells_that_are_not_element_ids():
    """The shape first, then the first cell in row order that is not an
    element id; a float such as 1.5 is not one, while 1.0 equals 1."""
    lat = chain(3)
    with pytest.raises(ValueError, match=r"^table must be 3x3$"):
        TNormTable(lat, [[0, 0, 0], [0, 1, 1]])
    for bad, shown in ((1.5, "1.5"), (3, "3"), (-1, "-1"), ("1", "1"), (None, "None")):
        grid = [[0, 0, 0], [0, 1, 1], [0, 1, 2]]
        grid[1][2] = bad
        grid[2][0] = 7
        with pytest.raises(ValueError, match=rf"^table entry {shown} is not an element id$"):
            TNormTable(lat, grid)
    assert TNormTable(lat, [[0, 0, 0], [0, 1.0, 1], [0, 1, 2]]) == t_min(lat)


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
                assert t.table[x][lat.bottom] == lat.bottom
                for y in range(lat.n):
                    assert lat.leq(t.table[x][y], lat.meet(x, y))


def test_restricted_between_bounds(fig_lattice, restricted):
    assert tnorm_le(t_drastic(fig_lattice), restricted)
    assert tnorm_le(restricted, t_min(fig_lattice))


def test_tnorm_le_lattice_mismatch(fig_lattice, lat_m3):
    with pytest.raises(LatticeMismatch):
        tnorm_le(t_min(fig_lattice), t_min(lat_m3))


def test_tnorm_le_matches_cell_by_cell(fig_lattice, lat_m3):
    """Every ordered pair of t-norms on three lattices, comparable or not."""
    for lat in (fig_lattice, lat_m3, pentagon()):
        tables = list(enumerate_all_tnorms(lat))
        for t1 in tables:
            for t2 in tables:
                expected = all(lat.leq(t1.table[x][y], t2.table[x][y]) for x in range(lat.n) for y in range(lat.n))
                assert tnorm_le(t1, t2) == expected


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
    assert lifted.table[a][j] != fig_extended.join(lifted.table[a][x], lifted.table[a][y])
    # the drastic witness from the construction: the inserted atom under c
    w_c, cc, d = (fig_extended.index(n) for n in ("w_c", "c", "d"))
    assert lifted.table[w_c][fig_extended.join(cc, d)] == w_c
    assert fig_extended.join(lifted.table[w_c][cc], lifted.table[w_c][d]) == fig_extended.bottom


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
    full = ElementSet(fig_lattice, fig_lattice.full_mask)
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
    with pytest.raises(UnknownLabel, match=r"^header \['x', 'y'\] does not match the lattice elements$"):
        table_from_csv(fig_lattice, ",x,y\nx,x,x\ny,x,y\n")


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda lines: [], r"^empty table$"),
        (lambda lines: lines[:-1], r"^expected 5 data rows, found 4$"),
        (lambda lines: [*lines[:2], lines[2].rsplit(",", 1)[0], *lines[3:]], r"^malformed row \['b', '0', 'b', 'b', 'b'\]$"),
        (lambda lines: [*lines[:-1], "0," + lines[-1].split(",", 1)[1]], r"^row '0' appears twice$"),
    ],
    ids=["empty", "row missing", "cell missing", "label twice"],
)
def test_csv_rejects_malformed_tables(fig_lattice, restricted, change, message):
    text = "\n".join(change(table_to_csv(restricted).splitlines())) + "\n"
    with pytest.raises(ValueError, match=message):
        table_from_csv(fig_lattice, text)


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
    diamond(3),
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
    grid = [list(row) for row in t_min(lat).table]
    grid[g][g] = lat.bottom
    assert verify_tnorm(TNormTable(lat, grid)) == Verdict(False, "associativity", ("g", "ag", "bg"))


@pytest.mark.slow
def test_verify_matches_reference_on_large_lifts():
    """Full and seeded lifts on 2^8 and on the partition lattice Pi6, and
    each with one symmetric cell pair lowered to bottom deep in the table."""
    for lat in (powerset_lattice(8), _partition_lattice(6)):
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
                assert (t._generator_rows is not None) == (t is lifted)


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
        diamond(3),
        lambda x, y: y if x == "1" else x if y == "1" else "0",
        ("left-continuity", ("a", "a", "b")),
        None,
        None,
    ),
    (
        "x unless y is bottom, on M3",
        diamond(3),
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
    # Row 1 drops across the cover (1, 2); a chain has no incomparable
    # pair, so only the cover pairs of an unverified table's plan see it.
    (
        "min but T(1, 2) = 0, on chain(4)",
        chain(4),
        lambda x, y: "0" if {x, y} == {"1", "2"} else min(x, y),
        ("left-continuity", ("1", "1", "2")),
        ("right-continuity", ("1", "1", "2")),
        ("left-semicontinuity", ("1", "1", "2")),
    ),
    # The same drop, into top: the cover (1, 2) has join top, so
    # left-semicontinuity leaves it out and holds.
    (
        "min but T(1, 2) = 0, on chain(3)",
        chain(3),
        lambda x, y: "0" if {x, y} == {"1", "2"} else min(x, y),
        ("left-continuity", ("1", "1", "2")),
        ("right-continuity(empty)", ("1", "2")),
        None,
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
    assert_scans_match_reference(t)


def scans(t):
    """Left-continuity, right-continuity and left-semicontinuity of ``t``."""
    return is_left_continuous(t), is_right_continuous(t), is_left_semicontinuous(t)


def assert_scans_match_reference(t):
    """Same verdicts, axioms and witnesses as the cell scan: on a fresh
    table, and after ``verify_tnorm``, which may record the generator rows
    on the way. Returns the verified table."""
    fresh = TNormTable(t.lattice, t.table)
    expected = reference_continuity_scans(fresh)
    continuous = expected[1] if expected[0].ok else expected[0]
    assert scans(fresh) == expected, fresh.table
    assert is_continuous(fresh) == continuous, fresh.table
    verified = TNormTable(t.lattice, t.table)
    verify_tnorm(verified)
    assert scans(verified) == expected, verified.table
    assert is_continuous(verified) == continuous, verified.table
    return verified


SCAN_LATTICES = {f"draw{seed}": random_lattice(3 + seed % 6, 7000 + seed) for seed in range(42)}


@pytest.mark.parametrize("name", SCAN_LATTICES)
def test_continuity_scans_match_reference_on_every_tnorm(name):
    """Every t-norm of seeded random 3-8 element lattices: all monotone, so
    every scan runs over the lattice's planned pairs."""
    for t in enumerate_all_tnorms(SCAN_LATTICES[name]):
        assert_scans_match_reference(t)


@pytest.mark.parametrize("lat", [powerset_lattice(3), pentagon(), chain(5)], ids=["2^3", "N5", "chain5"])
def test_continuity_classifier_gives_the_three_scans_on_its_domain(lat):
    """On every t-norm and every change of one of its symmetric cell pairs
    off the bottom and top rows that keeps it monotone, t-norm or not,
    the AND of the classifier's bits over the middle rows gives the
    verdicts of the three public scans."""
    classify = continuity_classifier(lat)
    mids = [a for a in range(lat.n) if a not in (lat.bottom, lat.top)]

    def classes(table):
        bits = 7
        for a in mids:
            bits &= classify(tuple(table[a]))
        return bits

    seen = set()
    for tnorm in enumerate_all_tnorms(lat):
        changes = [(x, y, v) for x, y, v in _monotone_changes(lat, tnorm.table) if lat.bottom not in (x, y)]
        for grid in [tnorm.table, *(_changed(tnorm.table, *change) for change in changes)]:
            t = TNormTable(lat, grid)
            verdicts = (is_left_semicontinuous(t), is_left_continuous(t), is_right_continuous(t))
            bits = sum(bit for bit, verdict in zip((1, 2, 4), verdicts) if verdict.ok)
            assert classes(t.table) == bits, grid
            seen.add((bits, verify_tnorm(t).ok))
    # some tables that are no t-norm pass a scan
    assert any(bits and not ok for bits, ok in seen)


def _monotone_rows(lat, rows_of_values, op):
    """Rows made monotone: cell (a, y) is the join of the values drawn at
    the elements below y (or the meet of those above y)."""
    n = lat.n
    grid = []
    for values in rows_of_values:
        if op == "join":
            grid.append([lat.join_all(values[x] for x in iter_bits(lat.downs[y])) for y in range(n)])
        else:
            row = []
            for y in range(n):
                v = lat.top
                for x in iter_bits(lat.ups[y]):
                    v = lat.meet(v, values[x])
                row.append(v)
            grid.append(row)
    return grid


GRID_LATTICES = [chain(3), diamond(3), pentagon(), stemmed_diamond(), powerset_lattice(3), random_lattice(7, 11)]


@settings(max_examples=300)
@given(st.data())
def test_continuity_scans_match_reference_on_random_grids(data):
    """Arbitrary cell grids, none required to be a t-norm: monotone rows
    take the planned pairs, the others every pair. Some grids keep top
    neutral and bottom absorbing, so the scans get past the empty family."""
    lat = data.draw(st.sampled_from(GRID_LATTICES))
    n = lat.n
    values = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    kind = data.draw(st.sampled_from(["any", "join", "meet"]))
    grid = values if kind == "any" else _monotone_rows(lat, values, kind)
    if kind != "any":
        assert all(lat.leq(row[x], row[y]) for row in grid for x in range(n) for y in range(n) if lat.leq(x, y))
    if data.draw(st.booleans()):
        for x in range(n):
            grid[x][lat.top] = grid[lat.top][x] = x
            grid[x][lat.bottom] = grid[lat.bottom][x] = lat.bottom
    assert_scans_match_reference(TNormTable(lat, grid))


def _partition_lattice(k):
    """The partition lattice of k points, ordered by refinement."""

    def blocks_of(labels):
        return frozenset(frozenset(i for i in range(k) if labels[i] == b) for b in set(labels))

    parts = set()
    labels = [0] * k

    def grow(i, used):
        if i == k:
            parts.add(blocks_of(labels))
            return
        for b in range(used + 1):
            labels[i] = b
            grow(i + 1, max(used, b + 1))

    grow(0, 0)

    def name(p):
        return "|".join("".join(str(x) for x in sorted(b)) for b in sorted(p, key=min))

    covers = []
    for p in parts:
        for b1 in p:
            for b2 in p:
                if min(b1) < min(b2):
                    covers.append((name(p), name((p - {b1, b2}) | {b1 | b2})))
    return lattice_from_covers(sorted(map(name, parts), key=lambda s: (-s.count("|"), s)), covers)


def _has_earlier_twin(lat, grid, x):
    """Whether some row x' < x, both below top, agrees with row x off column top."""
    top = lat.top
    if x == top:
        return False
    off_top = [z for z in range(lat.n) if z != top]
    return any(w != top and all(grid[w][z] == grid[x][z] for z in off_top) for w in range(x))


def _changed(grid, x, y, v):
    """A copy of ``grid`` with the cells (x, y) and (y, x) set to v."""
    copy = [list(row) for row in grid]
    copy[x][y] = copy[y][x] = v
    return copy


def _twin_row_changes(lat, grid):
    """Copies of ``grid`` with one change each, in a row that has an
    earlier off-top twin (the last such change of each kind): a symmetric
    cell pair lowered to bottom, T(a, a) lowered to bottom for an atom a,
    and monotone changes (the last one, and the last one that breaks
    associativity when one does)."""
    twins = [x for x in range(lat.n) if _has_earlier_twin(lat, grid, x)]
    changes = []
    lowered = [(x, y) for x in twins for y in range(lat.n) if y != lat.top and grid[x][y] != lat.bottom]
    if lowered:
        changes.append(_changed(grid, *lowered[-1], lat.bottom))
    squared = [a for a in twins if lat.atoms_mask >> a & 1 and grid[a][a] != lat.bottom]
    if squared:
        changes.append(_changed(grid, squared[-1], squared[-1], lat.bottom))
    monotone = [_changed(grid, x, y, v) for x, y, v in _monotone_changes(lat, grid) if x in twins or y in twins]
    changes += monotone[-1:]
    broken = next((c for c in reversed(monotone) if not reference_verify_tnorm(TNormTable(lat, c))), None)
    if broken is not None and broken is not monotone[-1]:
        changes.append(broken)
    return changes


# 2^3, 2^4 and Pi4 have top last; the reversed copies have it first and
# their coatoms before their atoms, so a selected atom can have an
# earlier twin
ROW_CLASS_LATTICES = {
    "2^3": powerset_lattice(3),
    "2^4": powerset_lattice(4),
    "Pi4": _partition_lattice(4),
    "2^4 reversed": relabeled(powerset_lattice(4), "reverse"),
    "Pi4 reversed": relabeled(_partition_lattice(4), "reverse"),
}


@pytest.mark.parametrize("name", ROW_CLASS_LATTICES)
def test_row_classes_keep_verdicts_and_witnesses(name):
    """Every selection's lift, and copies changed in a row with an earlier
    off-top twin: ``verify_tnorm`` and the three scans give the reference
    verdicts and witnesses, on a fresh table and once ``verify_tnorm`` has
    run, which never changes ``==`` or ``hash``."""
    lat = ROW_CLASS_LATTICES[name]
    for member in generated_family(lat):
        lifted = member.lifted.table
        for grid in [lifted, *_twin_row_changes(lat, lifted)]:
            fresh = TNormTable(lat, grid)
            verified = TNormTable(lat, grid)
            verdict = verify_tnorm(verified)
            assert verdict == reference_verify_tnorm(fresh), grid
            assert (verified._generator_rows is not None) == verdict.ok
            assert verified == fresh and hash(verified) == hash(fresh)
            assert_scans_match_reference(fresh)


def test_verify_reads_covers_into_top_in_full():
    """Rows a and b of this M3 table agree off column top (as do 0 and c),
    so the class rows stand for both on every cover below top, but not on
    a cover into top, whose upper row is the identity: T(b, a) = a is not
    below b."""
    lat = diamond(3)
    grid = [[0, 0, 0, 0, 0], [0, 1, 1, 0, 1], [0, 1, 1, 0, 2], [0, 0, 0, 0, 3], [0, 1, 2, 3, 4]]
    assert lat.names == ("0", "a", "b", "c", "1")
    t = TNormTable(lat, grid)
    assert verify_tnorm(t) == reference_verify_tnorm(t) == Verdict(False, "monotonicity", ("b", "a", "1"))


def _generators(t):
    """The elements of a neutral, commutative, monotone table that equal
    T(a, b) for no a and b both different from them, by the definition."""
    made = {v for a, row in enumerate(t.table) for b, v in enumerate(row) if v != a and v != b}
    return {t.lattice.name(g) for g in range(t.lattice.n) if g not in made}


def _stored_generator_rows(t):
    """What ``verify_tnorm`` stores as ``_generator_rows`` on a t-norm,
    read cell by cell off its docstring: rows x != top are grouped by
    their cells off column top, the first of each class kept; an element
    is made when it is T(a, b) for a kept row a and differs from a and b;
    the result is the kept rows of the classes of the elements below top
    made in no such way, ascending."""
    lat = t.lattice
    tbl = t.table
    first, rep = {}, {}
    for x in range(lat.n):
        if x != lat.top:
            rep[x] = first.setdefault(tuple(v for z, v in enumerate(tbl[x]) if z != lat.top), x)
    made = {tbl[a][b] for a in first.values() for b in range(lat.n) if tbl[a][b] not in (a, b)}
    return tuple(sorted({rep[g] for g in rep if g not in made}))


def _assert_verify_matches_reference(lat, grid):
    """``verify_tnorm`` gives the reference verdict and witness, and stores
    the generator rows exactly when the table verifies."""
    t = TNormTable(lat, grid)
    expected = reference_verify_tnorm(TNormTable(lat, grid))
    assert verify_tnorm(t) == expected
    assert t._generator_rows == (_stored_generator_rows(t) if expected.ok else None)
    return expected


BLOCK_LIFTS = {"Pi5": _partition_lattice(5), "2^6": powerset_lattice(6)}


@pytest.mark.parametrize("name", BLOCK_LIFTS)
def test_verify_matches_reference_on_value_blocks(name):
    """Seeded lifts on Pi5 and 2^6, each followed by up to three symmetric
    monotone changes made one after another: their class rows are many
    and take few values, so most middle rows compare on value blocks, and
    some changes break associativity at such a row. Each table gives the
    reference verdict, witness and generator rows."""
    lat = BLOCK_LIFTS[name]
    skel = skeleton(lat)
    atoms = [lat.name(a) for a in iter_bits(lat.atoms_mask)]
    verdicts = []
    for seed in range(8):
        rng = random.Random(seed)
        chosen = [a for a in atoms if rng.random() < 0.5]
        grid = [list(row) for row in lift(lat, skeleton_tnorm(skel, AtomSelection.from_names(lat, chosen))).table]
        verdicts.append(_assert_verify_matches_reference(lat, grid))
        for _ in range(3):
            changes = _monotone_changes(lat, grid)
            if not changes:
                break
            grid = _changed(grid, *rng.choice(changes))
            verdicts.append(_assert_verify_matches_reference(lat, grid))
    assert {v.axiom for v in verdicts} == {None, "associativity"}


def test_verify_matches_reference_on_a_one_value_block():
    """The meet on chain(20), and seeded copies with up to three
    symmetric monotone changes made one after another: every element
    below top generates the meet, and bottom's projection holds one
    value, so row bottom compares through a single block."""
    lat = chain(20)
    assert _assert_verify_matches_reference(lat, t_min(lat).table).ok
    verdicts = []
    for seed in range(6):
        rng = random.Random(seed)
        grid = t_min(lat).table
        for _ in range(3):
            grid = _changed(grid, *rng.choice(_monotone_changes(lat, grid)))
            verdicts.append(_assert_verify_matches_reference(lat, grid))
    assert {v.axiom for v in verdicts} == {None, "associativity"}


def test_verify_pins_a_block_failure_with_constant_values():
    """A lift on Pi4 with T(01|23, 01|23) raised from bottom to 01|23 and
    T(01|23, 023|1) from bottom to their meet 0|1|23. Row 01|23 compares
    on value blocks, in Light's sweep and in the rerun, and at (01|23,
    01|23) the row met is constant on every block but differs from the
    gathered row at some block's value."""
    lat = ROW_CLASS_LATTICES["Pi4"]
    chosen = ["02|1|3", "03|1|2", "0|12|3", "0|13|2"]
    grid = lift(lat, skeleton_tnorm(skeleton(lat), AtomSelection.from_names(lat, chosen))).table
    a, b, c = (lat.index(name) for name in ("01|23", "023|1", "0|1|23"))
    grid = _changed(_changed(grid, a, a, a), a, b, c)
    expected = _assert_verify_matches_reference(lat, grid)
    assert expected == Verdict(False, "associativity", ("01|23", "01|23", "023|1"))


def test_verify_checks_a_pair_of_row_classes_in_each_order():
    """On the chain 0 < p < q < r < 1, rows p and r agree off column top
    and row q lies above them at (q, q). The cover (p, q) holds, and the
    cover (q, r) joins the same two classes in the other order; it fails."""
    lat = lattice_from_covers(["0", "p", "q", "r", "1"], [("0", "p"), ("p", "q"), ("q", "r"), ("r", "1")])
    grid = [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [0, 0, 1, 0, 2], [0, 0, 0, 0, 3], [0, 1, 2, 3, 4]]
    expected = _assert_verify_matches_reference(lat, grid)
    assert expected == Verdict(False, "monotonicity", ("q", "q", "r"))


def test_t_min_generator_rows_are_the_coatoms():
    """The meet on 2^7 is generated by its coatoms and top: 7 generator
    rows instead of all 128, and left-semicontinuity reads those."""
    lat = powerset_lattice(7)
    t = t_min(lat)
    assert verify_tnorm(t).ok
    coatoms = tuple(lo for lo, hi in lat.covers if hi == lat.top)
    assert len(coatoms) == 7
    assert t._generator_rows == tuple(sorted(coatoms))
    assert is_left_semicontinuous(t) == OK


def test_verify_matches_reference_when_the_witness_middle_is_no_generator():
    """Lifts on 2^4, top last and first, with one monotone cell pair
    changed, whose first associativity failure in the plain sweep has a
    middle element outside the generators: the generator sweep fails
    elsewhere, and the class sweep run after it gives the reference
    witness."""
    forged = 0
    for lat in (ROW_CLASS_LATTICES["2^4"], ROW_CLASS_LATTICES["2^4 reversed"]):
        for member in generated_family(lat):
            lifted = member.lifted.table
            for x, y, v in _monotone_changes(lat, lifted):
                t = TNormTable(lat, _changed(lifted, x, y, v))
                expected = reference_verify_tnorm(t)
                if expected.axiom == "associativity" and expected.witness[1] not in _generators(t):
                    forged += 1
                    assert verify_tnorm(t) == expected
                    assert t._generator_rows is None
    assert forged >= 20


def test_left_semicontinuity_matches_reference_off_the_generator_rows():
    """Verified t-norms whose first left-semicontinuity failure lies in a
    row that is not a generator's: the generator rows fail elsewhere or
    not at all, and the rows scanned after them give the reference
    witness. Lifts on Pi4 and every t-norm of the seeded scan lattices."""
    tables = [member.lifted for member in generated_family(ROW_CLASS_LATTICES["Pi4"])]
    tables += [t for lat in SCAN_LATTICES.values() for t in enumerate_all_tnorms(lat)]
    off = 0
    for t in tables:
        lat = t.lattice
        expected = reference_continuity_scans(t)[2]
        if expected.axiom == "left-semicontinuity" and expected.witness[0] not in _generators(t):
            off += 1
            verified = TNormTable(lat, t.table)
            assert verify_tnorm(verified).ok and verified._generator_rows is not None
            assert is_left_semicontinuous(verified) == expected
    assert off >= 500


@pytest.mark.parametrize("k", [3, 4])
def test_left_semicontinuity_after_a_failed_associativity_sweep(k):
    """The meet on 2^k with T(a, a) lowered to bottom for an atom a:
    neutral, commutative and monotone, not associative, and row a breaks
    a join below top while the generator rows (the coatoms) preserve
    every one. No generator rows are stored, so the scan reads every row
    and finds row a."""
    lat = powerset_lattice(k)
    for a in iter_bits(lat.atoms_mask):
        grid = _changed(t_min(lat).table, a, a, lat.bottom)
        verified = TNormTable(lat, grid)
        assert verify_tnorm(verified).axiom == "associativity"
        assert verified._generator_rows is None
        expected = reference_continuity_scans(TNormTable(lat, grid))
        assert expected[2].witness[0] == lat.name(a)
        assert scans(verified) == expected


@pytest.mark.slow
def test_continuity_scans_match_reference_on_large_lifts():
    """Lifts on 2^8 and on the partition lattice Pi6 (203 elements): the
    full selection and two seeded ones, each also with one symmetric cell
    pair lowered to bottom (no longer monotone) and with T(a, a) lowered
    to bottom for a middle atom a (still monotone, no longer a t-norm).
    The scans run again after ``verify_tnorm``, which stores the
    generator rows on those that verify."""
    pi6 = _partition_lattice(6)
    assert pi6.n == 203 and pi6.atoms_mask.bit_count() == 15
    for lat in (powerset_lattice(8), pi6):
        skel = skeleton(lat)
        atoms = [lat.name(a) for a in iter_bits(lat.atoms_mask)]
        selections = [atoms]
        for seed in (1, 2):
            rng = random.Random(seed)
            selections.append([a for a in atoms if rng.random() < 0.5])
        atom = sorted(iter_bits(lat.atoms_mask))[len(atoms) // 2]
        for chosen in selections:
            lifted = lift(lat, skeleton_tnorm(skel, AtomSelection.from_names(lat, chosen)))
            x, y = lat.n - 2, lat.n - 3
            lowered = [list(row) for row in lifted.table]
            lowered[x][y] = lowered[y][x] = lat.bottom
            squared = [list(row) for row in lifted.table]
            squared[atom][atom] = lat.bottom
            for grid in (lifted.table, lowered, squared):
                verified = assert_scans_match_reference(TNormTable(lat, grid))
                # the lowered copy is still neutral and commutative, so its
                # classes are stored; generator rows only on a t-norm
                assert (verified._generator_rows is not None) == verify_tnorm(verified).ok


def _irreducible_by_covers(lat, op):
    """Elements with exactly one lower cover (joins) or one upper cover (meets)."""
    end = 1 if op == "join" else 0
    counts = [0] * lat.n
    for cover in lat.covers:
        counts[cover[end]] += 1
    return {x for x in range(lat.n) if counts[x] == 1}


def test_scan_listings_match_the_order(corpus_atomistic, corpus_extension):
    """On the corpus, 2^4, Pi4 (both orders) and the one-element chain,
    for each of the three scans, straight from ``leq``, the covers and
    set-based op tables, in the listed order and each pair with its op:
    the plan holds the incomparable pairs whose op is not skipped with an
    irreducible end, by the covers; the cover listing the covers whose op
    is not skipped; the rescan listing, one entry for each x, every x < y
    whose op is not skipped. The scan is memoised, and some plans leave
    incomparable pairs out."""
    lats = {**corpus_atomistic, **corpus_extension, **ROW_CLASS_LATTICES, "chain1": chain(1)}
    incomplete = 0
    for name, lat in lats.items():
        n = lat.n
        meets, joins = set_based_meets_joins(lat.names, lat.covers_named())
        table = {
            op: [[lat.index(ops[x, y]) for y in lat.names] for x in lat.names]
            for op, ops in (("join", joins), ("meet", meets))
        }
        # the scans of left-continuity, right-continuity and left-semicontinuity
        for op, skip in (("join", -1), ("meet", -1), ("join", lat.top)):
            scan = _scan(lat, op, skip)
            where = (name, op, skip)
            kept = [(x, y) for x in range(n) for y in range(x + 1, n) if table[op][x][y] != skip]
            incomparable = [(x, y) for x, y in kept if not lat.leq(x, y) and not lat.leq(y, x)]
            irreducible = _irreducible_by_covers(lat, op)
            planned = [p for p in incomparable if irreducible & set(p)]
            covers = sorted(p for p in lat.covers if table[op][p[0]][p[1]] != skip)
            for listing, pairs in ((scan.plan, planned), (scan.covers, covers), (tuple(scan.rescan()), kept)):
                listed = [(x, y, xy) for x, ys in listing for y, xy in ys]
                assert listed == [(x, y, table[op][x][y]) for x, y in pairs], where
            assert all(ys for _, ys in scan.plan + scan.covers), where
            assert [x for x, _ in scan.rescan()] == list(range(n)), where
            assert _scan(lat, op, skip) is scan
            incomplete += planned != incomparable
    assert incomplete >= 6


def _meet_through(lat, kept):
    """Top neutral; elsewhere cell (x, y) is the join of the elements named
    in ``kept`` that lie below x ∧ y. Commutative and monotone."""
    kept = [lat.index(k) for k in kept]
    top = lat.top
    through = [lat.join_all(k for k in kept if lat.leq(k, v)) for v in range(lat.n)]
    grid = [[x if y == top else y if x == top else through[lat.meet(x, y)] for y in range(lat.n)] for x in range(lat.n)]
    return TNormTable(lat, grid)


# One table per scan whose first failure in the full scan is at a pair
# with two reducible ends, so the irreducible-end plan meets a later pair
# of the failing row first: (scan, op, table, witness).
REDUCIBLE_END_WITNESSES = [
    ("left-continuity", "join", t_drastic(relabeled(powerset_lattice(4), "reverse")), ("bcd", "bcd", "acd")),
    ("right-continuity", "meet", _meet_through(powerset_lattice(4), ["ab", "ac"]), ("abc", "ab", "ac")),
    ("left-semicontinuity", "join", _meet_through(relabeled(powerset_lattice(4), "reverse"), ["ab"]), ("abd", "bd", "ad")),
]


@pytest.mark.parametrize("axiom, op, t, witness", REDUCIBLE_END_WITNESSES, ids=[w[0] for w in REDUCIBLE_END_WITNESSES])
def test_scans_rescan_the_failing_row_for_a_witness_with_reducible_ends(axiom, op, t, witness):
    """The failing row is read again over every pair, so the witness is
    the reference's, not the first kept pair that fails."""
    lat = t.lattice
    assert full_pairs_monotone(t) and t.table == tuple(zip(*t.table))
    irreducible = _irreducible_by_covers(lat, op)
    assert not irreducible & {lat.index(witness[1]), lat.index(witness[2])}
    scan = {"left-continuity": 0, "right-continuity": 1, "left-semicontinuity": 2}[axiom]
    assert_scans_match_reference(t)
    assert scans(t)[scan] == Verdict(False, axiom, witness)


# on each of these the left- and right-continuity plans drop pairs
PLANNED_GRID_LATTICES = [ROW_CLASS_LATTICES[name] for name in ("2^4", "2^4 reversed", "Pi4", "Pi4 reversed")]


def _row(lat, a, kind, values, bump):
    """A monotone row a with T(a, bottom) = bottom and T(a, top) = a: below
    top, a ∧ the join of ``values`` at the join-irreducibles below y
    ("join") or a ∧ the meet of those at the meet-irreducibles above y
    ("meet", bottom kept at bottom); either one joined with a ∧ ``bump[1]``
    on the up-set of ``bump[0]`` unless that is bottom. On a distributive
    lattice an unbumped "join" row preserves every join below top, and an
    unbumped "meet" row every meet above bottom."""
    n = lat.n
    if kind.startswith("join"):
        row = [lat.join_all(values[j] for j in iter_bits(lat.ji_mask & lat.downs[y])) for y in range(n)]
    else:
        row = []
        for y in range(n):
            v = lat.top
            for m in iter_bits(lat.mi_mask & lat.ups[y]):
                v = lat.meet(v, values[m])
            row.append(v)
        row[lat.bottom] = lat.bottom
    row = [lat.meet(a, v) for v in row]
    row[lat.top] = a
    z, w = bump
    if kind.endswith("bump") and z != lat.bottom:
        row = [lat.join(v, lat.meet(a, w)) if lat.leq(z, y) else v for y, v in enumerate(row)]
    return row


@settings(max_examples=100)
@given(st.data())
def test_planned_scans_match_reference_on_random_monotone_grids(data):
    """Monotone grids on lattices whose plans drop pairs, built row by row
    to preserve most joins or meets, so the first failure tends to lie
    deep in the scan: the three scans give the reference verdicts and
    witnesses."""
    lat = data.draw(st.sampled_from(PLANNED_GRID_LATTICES))
    n = lat.n
    element = st.integers(0, n - 1)
    grid = []
    for a in range(n):
        kind = data.draw(st.sampled_from(["join", "join", "meet", "meet", "join bump", "meet bump"]))
        values = data.draw(st.lists(element, min_size=n, max_size=n))
        grid.append(_row(lat, a, kind, values, (data.draw(element), data.draw(element))))
    assert all(lat.leq(row[lo], row[hi]) for row in grid for lo, hi in lat.covers)
    assert_scans_match_reference(TNormTable(lat, grid))
