"""Brute-force enumeration, census classification, and construction cross-checks."""

import inspect
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latnorm import oracle
from latnorm.catalog import atomistic_corpus, chain, diamond, extension_corpus, pentagon, random_lattice
from latnorm.cli import main
from latnorm.construction import generated_family, semicontinuity_criterion
from latnorm.errors import BoundExceeded, DegenerateLengthWarning
from latnorm.extension import extend
from latnorm.lattice import FiniteLattice, lattice_from_covers, load_lattice, powerset_lattice
from latnorm.oracle import (
    CLASS_NAMES,
    DEFAULT_SIZE_CAP,
    census,
    enumerate_all_tnorms,
    oracle_vs_construction,
)
from latnorm.tnorm import (
    TNormTable,
    continuity_classifier,
    is_continuous,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    t_min,
    verify_tnorm,
)

from conftest import degenerate_warning
from oracles import LABELLINGS, full_pairs_monotone, reference_enumerate_all_tnorms, relabeled

DATA = Path(__file__).resolve().parent.parent / "data"


def _fixed_lattices() -> dict:
    """``data/*.json``, the atomistic corpus and the extension corpus up to the size cap."""
    lats = {f"data/{p.name}": load_lattice(p) for p in sorted(DATA.glob("*.json"))}
    lats.update(atomistic_corpus())
    lats.update((name, lat) for name, lat in extension_corpus().items() if lat.n <= DEFAULT_SIZE_CAP)
    return lats


FIXED_LATTICES = _fixed_lattices()


def stalked_antichain(k: int):
    """0 < a < (k pairwise incomparable elements) < 1: many tables, few distinct rows."""
    mids = [f"m{i}" for i in range(k)]
    covers = [("0", "a")] + [("a", m) for m in mids] + [(m, "1") for m in mids]
    return lattice_from_covers(["0", "a", *mids, "1"], covers)


# Enumeration totals, frozen from oracle runs (hand-checkable for chains up
# to four elements: the three-chain has a single free cell with two legal
# values, and so on).
CHAIN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 22, 6: 94, 7: 451, 8: 2386}


@pytest.mark.parametrize("k,expected", sorted(CHAIN_COUNTS.items()))
def test_chain_counts(k, expected):
    assert sum(1 for _ in enumerate_all_tnorms(chain(k))) == expected


@pytest.mark.slow
def test_chain_nine_count():
    assert sum(1 for _ in enumerate_all_tnorms(chain(9), size_cap=9)) == 13775


@pytest.mark.slow
def test_chain_ten_count():
    assert sum(1 for _ in enumerate_all_tnorms(chain(10), size_cap=10)) == 86417


@pytest.mark.slow
def test_chain_eleven_count():
    assert sum(1 for _ in enumerate_all_tnorms(chain(11), size_cap=11)) == 590489


def _tables_until_bound(stream) -> list:
    seen = []
    with pytest.raises(BoundExceeded):
        for t in stream:
            seen.append(t.table)
    return seen


def assert_same_stream(lat) -> None:
    """The same tables in the same order as the reference search, and
    ``BoundExceeded`` after the same ``cap`` tables."""
    tables = [t.table for t in enumerate_all_tnorms(lat)]
    assert tables == [t.table for t in reference_enumerate_all_tnorms(lat)]
    assert len(tables) == len(list(enumerate_all_tnorms(lat, cap=len(tables))))
    cap = len(tables) // 2
    assert _tables_until_bound(enumerate_all_tnorms(lat, cap=cap)) == tables[:cap]
    assert _tables_until_bound(reference_enumerate_all_tnorms(lat, cap=cap)) == tables[:cap]


@pytest.mark.parametrize("how", LABELLINGS)
@pytest.mark.parametrize("name", list(FIXED_LATTICES))
def test_stream_matches_reference_on_corpus(name, how):
    assert_same_stream(relabeled(FIXED_LATTICES[name], how))


@settings(deadline=None, max_examples=40)
@given(size=st.integers(1, 8), seed=st.integers(0, 2**20), how=st.sampled_from(LABELLINGS))
def test_stream_matches_reference_on_random_lattices(size, seed, how):
    # random_lattice starts at 2 elements
    assert_same_stream(relabeled(chain(1) if size == 1 else random_lattice(size, seed), how))


# diamond(6): every cell off the diagonal meets at bottom and is forced;
# stalked_antichain(4): no middle cell meets at bottom, so of the pruned
# triples only one equation of each three distinct elements is left out;
# random_lattice(8, 6): 4 atoms, and triples of every kind
@pytest.mark.parametrize("how", LABELLINGS)
@pytest.mark.parametrize(
    "lat",
    [diamond(6), stalked_antichain(4), random_lattice(8, 6)],
    ids=["diamond6", "stalked_antichain4", "random8_6"],
)
def test_stream_matches_reference_where_cells_and_triples_are_pruned(lat, how):
    assert_same_stream(relabeled(lat, how))


@pytest.mark.parametrize("how", LABELLINGS)
def test_streamed_tables_are_monotone(how):
    """Every table is monotone over every comparable pair."""
    for name, lat in FIXED_LATTICES.items():
        lat = relabeled(lat, how)
        for t in enumerate_all_tnorms(lat):
            assert full_pairs_monotone(t), (name, t.table)


@pytest.mark.parametrize("how", LABELLINGS)
def test_streamed_leaves_are_well_formed_tables(how):
    """Leaves skip the per-cell check of ``TNormTable``'s constructor, so
    each is held to it here: n tuples of n element ids, equal and hashing
    equal to the same rows built through the constructor."""
    for name, lat in FIXED_LATTICES.items():
        lat = relabeled(lat, how)
        n = lat.n
        for t in enumerate_all_tnorms(lat):
            rows = t.table
            assert type(t) is TNormTable and t.lattice is lat and t._generator_rows is None, name
            assert type(rows) is tuple and len(rows) == n, (name, rows)
            for row in rows:
                assert type(row) is tuple and len(row) == n, (name, rows)
                assert all(type(v) is int and 0 <= v < n for v in row), (name, rows)
            checked = TNormTable(lat, rows)
            assert t == checked and hash(t) == hash(checked), (name, rows)


def test_enumeration_refuses_values_that_are_not_element_ids():
    """Before the search starts: a lattice whose masks name an element
    past the last id gives an interval holding it."""
    lat = chain(4)
    fields = {slot: getattr(lat, slot) for slot in FiniteLattice.__slots__}
    ups, downs = list(lat.ups), list(lat.downs)
    ups[lat.bottom] |= 1 << lat.n
    downs[lat.top] |= 1 << lat.n
    broken = FiniteLattice(**{**fields, "ups": ups, "downs": downs, "_memo": {}})
    with pytest.raises(ValueError, match="table entry 4 is not an element id"):
        enumerate_all_tnorms(broken)


def test_three_chain_tables_by_hand():
    """The only free cell is the middle diagonal: bottom or itself."""
    lat = chain(3)
    a = lat.index("1")  # middle element of 0<1<2
    tables = {t.table[a][a] for t in enumerate_all_tnorms(lat)}
    assert tables == {lat.bottom, a}


def test_small_lattice_totals(p2, p3, lat_m3, fig_extended):
    assert sum(1 for _ in enumerate_all_tnorms(p2)) == 4
    assert sum(1 for _ in enumerate_all_tnorms(lat_m3)) == 8
    assert sum(1 for _ in enumerate_all_tnorms(diamond(4))) == 16
    assert sum(1 for _ in enumerate_all_tnorms(p3)) == 560
    assert sum(1 for _ in enumerate_all_tnorms(fig_extended)) == 99


def _associative(t) -> bool:
    """T(T(a, b), c) = T(a, T(b, c)) over every triple of middle elements."""
    lat, op = t.lattice, t.table
    mids = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    return all(op[op[a][b]][c] == op[a][op[b][c]] for a in mids for b in mids for c in mids)


def test_every_streamed_table_verifies():
    """The stream yields its leaves unchecked, so every table is checked
    here. Each labelling breaks the ties of the cell order differently,
    and so leaves a different share of the triples to each comparison of
    the partial check."""
    draws = {f"random{size}_{seed}": random_lattice(size, seed) for size in range(5, 9) for seed in (11, 12, 13)}
    for name, lat in {**FIXED_LATTICES, **draws}.items():
        for how in LABELLINGS:
            for t in enumerate_all_tnorms(relabeled(lat, how)):
                assert _associative(t), (name, how, t.table)
                assert verify_tnorm(t).ok, (name, how, t.table)


def test_stream_is_duplicate_free(fig_extended):
    tables = [t.table for t in enumerate_all_tnorms(fig_extended)]
    assert len(tables) == len(set(tables))


def _named_cells(t) -> frozenset:
    """The table as (x, y, T(x, y)) triples of element names."""
    names = t.lattice.names
    return frozenset((names[x], names[y], names[v]) for x, row in enumerate(t.table) for y, v in enumerate(row))


def test_cell_order_independence(lat_m3, fig_extended):
    """Relabelling a lattice changes the order its cells are searched in,
    but not its tables, read by element names."""
    for lat in (lat_m3, chain(5), fig_extended, random_lattice(8, 3)):
        sets = [{_named_cells(t) for t in enumerate_all_tnorms(relabeled(lat, how))} for how in LABELLINGS]
        assert all(tables == sets[0] for tables in sets)


# chain2 has no free cell: its one table is the forced one
CLASSIFIED_LATTICES = {
    "chain5": chain(5),
    "N5": pentagon(),
    "2^3": powerset_lattice(3),
    **{f"random{seed}": random_lattice(6 + seed % 3, 8100 + seed) for seed in range(3)},
    "chain2": chain(2),
}


def _classified_until_bound(stream) -> list:
    seen = []
    with pytest.raises(BoundExceeded):
        for _, table in stream:
            seen.append(table)
    return seen


@pytest.mark.parametrize("how", LABELLINGS)
@pytest.mark.parametrize("name", list(CLASSIFIED_LATTICES))
def test_classified_stream_matches_the_plain_stream(name, how):
    """With ``classify``, the same leaves in the same order, each with the
    verdicts of the three public scans as its bits, and ``BoundExceeded``
    after the same ``cap`` tables. Each item's table is the plain
    stream's tuple of rows, so it stays valid once the stream moves on."""
    lat = relabeled(CLASSIFIED_LATTICES[name], how)
    tables = list(enumerate_all_tnorms(lat))
    classified = list(enumerate_all_tnorms(lat, classify=continuity_classifier(lat)))
    assert [table for _, table in classified] == [t.table for t in tables]
    for (bits, _), t in zip(classified, tables):
        verdicts = (is_left_semicontinuous(t), is_left_continuous(t), is_right_continuous(t))
        assert bits == sum(bit for bit, verdict in zip((1, 2, 4), verdicts) if verdict.ok), t.table
    cap = len(tables) // 2
    stream = enumerate_all_tnorms(lat, cap=cap, classify=continuity_classifier(lat))
    assert _classified_until_bound(stream) == [t.table for t in tables[:cap]]


def test_size_cap():
    from latnorm.catalog import diamond

    nine = diamond(7)
    with pytest.raises(BoundExceeded):
        list(enumerate_all_tnorms(nine))
    assert sum(1 for _ in enumerate_all_tnorms(nine, size_cap=9)) == 2**7


def test_count_cap(p2):
    with pytest.raises(BoundExceeded):
        list(enumerate_all_tnorms(p2, cap=3))


@pytest.mark.parametrize("how", LABELLINGS)
@pytest.mark.parametrize("name", [*FIXED_LATTICES, "chain1"])
def test_census_count_cap(name, how):
    """``cap`` at the total gives the uncapped report, one less raises;
    chain1 and chain2 have no free cells, so their caps are 1 and 0."""
    lat = relabeled(chain(1) if name == "chain1" else FIXED_LATTICES[name], how)
    with degenerate_warning(lat):
        report = census(lat)
        assert census(lat, cap=report.total).to_json() == report.to_json()
        with pytest.raises(BoundExceeded):
            census(lat, cap=report.total - 1)


def test_census_count_cap_covers_nine_elements_and_still_binds(p3):
    """``census`` counts up to ``CENSUS_COUNT_CAP`` by default, above the
    14,707,366 t-norms of the largest 9-element lattice, while
    ``enumerate_all_tnorms`` keeps ``DEFAULT_COUNT_CAP``; a cap below a
    lattice's total still raises."""
    assert inspect.signature(census).parameters["cap"].default == oracle.CENSUS_COUNT_CAP == 15_000_000
    assert inspect.signature(enumerate_all_tnorms).parameters["cap"].default == oracle.DEFAULT_COUNT_CAP
    assert oracle.DEFAULT_COUNT_CAP == 1_000_000
    assert census(p3).total == 560
    with pytest.raises(BoundExceeded, match="more than 559 t-norms"):
        census(p3, cap=559)


def test_census_and_comparison_read_every_table_of_the_module_stream(monkeypatch, p3):
    """Both call ``oracle.enumerate_all_tnorms`` by its module name and
    read each stream to its end, so a wrapper put there (as a tracer
    counting tables does) sees every table."""
    total = census(p3).total
    real = oracle.enumerate_all_tnorms
    streams = []

    def counting(*args, **kwargs):
        tables = real(*args, **kwargs)
        seen = [0, False]  # tables read, stream exhausted
        streams.append(seen)

        def stream():
            for t in tables:
                seen[0] += 1
                yield t
            seen[1] = True

        return stream()

    monkeypatch.setattr(oracle, "enumerate_all_tnorms", counting)
    assert census(p3).total == total
    assert streams == [[total, True]]
    streams.clear()
    cmp = oracle_vs_construction(p3)
    assert cmp.passed
    assert streams == [[2 ** len(p3.atoms()), True], [total, True]]


def test_census_classes(p2, p3, lat_m3, fig_extended):
    report = census(p2)
    assert report.total == 4
    assert report.classes["left_semicontinuous"] == 4
    assert report.classes["left_continuous"] == 1
    assert report.classes["generated"] == 4

    report = census(p3)
    assert report.total == 560
    assert report.classes["left_semicontinuous"] == 8
    assert report.classes["left_continuous"] == 1
    assert report.classes["continuous"] == 1
    assert report.classes["generated"] == 8

    report = census(lat_m3)
    assert report.total == 8
    assert report.classes == {
        "left_semicontinuous": 8,
        "left_continuous": 0,
        "right_continuous": 8,
        "continuous": 0,
        "generated": 8,
    }

    report = census(fig_extended)
    assert report.total == 99
    assert report.classes["left_semicontinuous"] == 8
    assert report.classes["left_continuous"] == 0
    assert report.classes["generated"] == 8


def test_census_containments(p3, fig_extended, lat_m3):
    for lat in (p3, fig_extended, lat_m3, chain(5)):
        report = census(lat)
        c = report.classes
        assert c["left_continuous"] <= c["left_semicontinuous"]
        assert c["continuous"] <= c["left_continuous"]
        assert c["continuous"] <= c["right_continuous"]
        if c["generated"] is not None:
            assert c["generated"] <= report.total
        for klass, count in c.items():
            if count:
                assert klass in report.witnesses


def test_census_class_membership_matches_predicates(fig_extended):
    """Counts must equal direct per-table classification."""
    tallies = {"left_semicontinuous": 0, "left_continuous": 0, "right_continuous": 0, "continuous": 0}
    for t in enumerate_all_tnorms(fig_extended):
        tallies["left_semicontinuous"] += bool(is_left_semicontinuous(t))
        tallies["left_continuous"] += bool(is_left_continuous(t))
        tallies["right_continuous"] += bool(is_right_continuous(t))
        tallies["continuous"] += bool(is_continuous(t))
    report = census(fig_extended)
    for klass, count in tallies.items():
        assert report.classes[klass] == count


def reference_census(lat) -> tuple[int, dict, dict]:
    """Total, class counts and witnesses from all three scans on every
    table of the reference search, in the stream order of the oracle."""
    family = {g.lifted.table for g in generated_family(lat)} if lat.is_atomistic() else None
    counts = dict.fromkeys(CLASS_NAMES, 0)
    if family is None:
        counts["generated"] = None
    witnesses: dict = {}
    total = 0
    for t in reference_enumerate_all_tnorms(lat):
        total += 1
        left, right = bool(is_left_continuous(t)), bool(is_right_continuous(t))
        hits = {
            "left_semicontinuous": bool(is_left_semicontinuous(t)),
            "left_continuous": left,
            "right_continuous": right,
            "continuous": left and right,
        }
        if family is not None:
            hits["generated"] = t.table in family
        for klass, hit in hits.items():
            if hit:
                counts[klass] += 1
                witnesses.setdefault(
                    klass, {"elements": list(lat.names), "rows": [[lat.name(v) for v in row] for row in t.table]}
                )
    return total, counts, witnesses


CENSUS_LATTICES = {
    **FIXED_LATTICES,
    **{f"draw{seed}": random_lattice(3 + seed % 6, 4000 + seed) for seed in range(20)},
}


def assert_census_matches_reference(lat) -> None:
    """Class counts and witnesses, in order, with every scan run on every table."""
    with degenerate_warning(lat):
        report = census(lat)
        total, counts, witnesses = reference_census(lat)
    assert report.total == total
    assert list(report.classes.items()) == list(counts.items())
    assert list(report.witnesses.items()) == list(witnesses.items())


@pytest.mark.parametrize("name", list(CENSUS_LATTICES))
def test_census_matches_three_scan_reference(name):
    assert_census_matches_reference(CENSUS_LATTICES[name])


# random2 alone would add about 0.5 s in the three other labellings
@pytest.mark.parametrize("name", [name for name in CENSUS_LATTICES if name != "random2"])
@pytest.mark.parametrize("how", LABELLINGS[1:])
def test_census_matches_three_scan_reference_relabeled(how, name):
    """The scan plans follow the element ids, so each labelling is a new case."""
    assert_census_matches_reference(relabeled(CENSUS_LATTICES[name], how))


def test_census_matches_reference_on_repeated_rows():
    """38,656 tables whose middle rows take 182 distinct values."""
    lat = stalked_antichain(5)
    # with the constant bottom row and the identity top row
    assert len({row for t in enumerate_all_tnorms(lat) for row in t.table}) == 182 + 2
    assert_census_matches_reference(lat)


@pytest.mark.slow
def test_census_on_nine_elements():
    """Counts frozen from the census that ran all three scans on every table.

    The budget is 10 s. On a shared 2-vCPU VM (py3.11.7) this census took
    5.2-5.7 s with each row frozen into a tuple and classified once, when
    its last free cell is assigned, and each leaf's table built from the
    frozen rows, against 5.6-6.4 s for the previous code, which copied no
    leaf it did not keep, in interleaved runs on the same day. Earlier:
    5.5 s once rows were classified inside the search, against 9.8-10.2 s
    the same day for the code before, which took 3.9 s on a quieter day;
    before that, 4.1 s with the cells and triples that meet at bottom
    still searched, 9.8 s before the search ran in one generator frame and
    21.4 s with three scans per table.
    """
    start = time.perf_counter()
    report = census(stalked_antichain(6), cap=3_000_000, size_cap=9)
    elapsed = time.perf_counter() - start
    assert report.total == 2_310_603
    assert report.classes == {
        "left_semicontinuous": 2_310_603,
        "left_continuous": 0,
        "right_continuous": 2434,
        "continuous": 0,
        "generated": None,
    }
    assert elapsed < 10, f"census took {elapsed:.1f} s, budget 10 s"


@pytest.mark.slow
def test_cli_census_on_a_nine_element_lattice_past_a_million_tables(tmp_path, capsys):
    """The census count cap covers 9 elements, so the CLI censuses 2,310,603
    tables once the size cap allows 9 elements."""
    path = tmp_path / "stalked6.json"
    path.write_text(stalked_antichain(6).to_json(), encoding="utf-8")
    assert main(["census", str(path), "--oracle-cap", "9", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "total t-norms: 2310603\n"
        "  left_semicontinuous: 2310603\n"
        "  left_continuous: 0\n"
        "  right_continuous: 2434\n"
        "  continuous: 0\n"
        "  generated: null\n"
    )


def test_census_on_non_atomistic(fig_lattice):
    report = census(fig_lattice)
    assert report.total == 19
    assert report.classes["generated"] is None


def test_census_witness_left_continuous_is_meet(p2):
    report = census(p2)
    rows = report.witnesses["left_continuous"]["rows"]
    assert rows == [[p2.name(v) for v in row] for row in t_min(p2).table]


def test_census_report_json_round_trip(lat_m3):
    """The JSON text reads back to the report's object, layout version 1 included."""
    report = census(lat_m3)
    assert json.loads(report.to_json()) == report.to_json_obj()
    assert list(report.to_json_obj()) == ["lattice_hash", "version", "total", "classes", "witnesses"]
    assert report.to_json_obj()["version"] == 1


def test_oracle_vs_construction(corpus_atomistic, corpus_extension):
    """The atomistic corpus and the extensions of the extension corpus; the
    latter are atomistic but mostly not Boolean, so some lifts are not
    left-semicontinuous."""
    lats = {**corpus_atomistic, **{f"{name}_ext": extend(lat).extended for name, lat in corpus_extension.items()}}
    for name, lat in lats.items():
        # a lattice of length 1 is its own skeleton, and skeleton() warns
        with degenerate_warning(lat):
            cmp = oracle_vs_construction(lat)
            family = generated_family(lat)
        assert cmp.passed, (name, cmp.failures)
        atoms = len(lat.atoms()) - (lat.top in lat.atoms())
        assert len(family) == 2**atoms
        for g in family:
            criterion = semicontinuity_criterion(lat, g.selection).ok
            assert bool(is_left_semicontinuous(g.lifted)) == criterion, (name, g.selection.label())


def _forged_family(family, how):
    """The family of 2^3 with one wrong member: a skeleton table copied from
    another member, an extra member whose lift breaks monotonicity, or a
    lift copied from another member."""
    if how == "skeleton":
        return [family[0], replace(family[1], on_skeleton=family[0].on_skeleton), *family[2:]]
    if how == "lift":
        lat = family[0].lifted.lattice
        rows = [list(row) for row in t_min(lat).table]
        ab = lat.index("ab")
        rows[ab][ab] = lat.bottom
        return [*family, replace(family[-1], lifted=TNormTable(lat, rows))]
    return [family[0], replace(family[1], lifted=family[0].lifted), *family[2:]]


@pytest.mark.parametrize(
    "how, failure",
    [
        ("skeleton", "skeleton enumeration (8 tables) differs from the selection family (7 tables)"),
        ("lift", "lift of a_b_c is not a t-norm: violates monotonicity at ('ab', 'a', 'ab')"),
        ("lsc", "left-semicontinuous tables (8) are not exactly the left-semicontinuous lifts (7)"),
    ],
)
def test_oracle_vs_construction_names_a_wrong_family_member(monkeypatch, p3, how, failure):
    family = generated_family(p3)
    monkeypatch.setattr(oracle, "generated_family", lambda lat: _forged_family(family, how))
    cmp = oracle_vs_construction(p3)
    assert not cmp.passed
    assert cmp.failures == [failure]


def test_oracle_vs_construction_two_chain(two_chain):
    with pytest.warns(DegenerateLengthWarning):
        cmp = oracle_vs_construction(two_chain)
        family = generated_family(two_chain)
    assert cmp.passed
    assert len(family) == 1


def test_oracle_vs_construction_past_the_size_cap():
    """diamond(7) has 9 elements, above the size cap, as has its skeleton,
    the lattice itself; the skeleton is enumerated all the same."""
    lat = diamond(7)
    assert lat.n > DEFAULT_SIZE_CAP
    cmp = oracle_vs_construction(lat)
    assert cmp.passed, cmp.failures
    assert len(generated_family(lat)) == 128
