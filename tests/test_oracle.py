"""Brute-force enumeration, census classification, and construction cross-checks."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalog import atomistic_corpus, chain, extension_corpus, m4, random_lattice
from latnorm.construction import generated_family
from latnorm.errors import BoundExceeded
from latnorm.lattice import load_lattice
from latnorm.oracle import (
    CACHE_ENV_VAR,
    CENSUS_CACHE_VERSION,
    CLASS_NAMES,
    DEFAULT_SIZE_CAP,
    CensusReport,
    census,
    enumerate_all_tnorms,
    oracle_vs_construction,
)
from latnorm.tnorm import (
    is_continuous,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    t_min,
    verify_tnorm,
)

from oracles import reference_enumerate_all_tnorms

DATA = Path(__file__).resolve().parent.parent / "data"
CELL_ORDERS = ("default", "lex", "reverse")


def _fixed_lattices() -> dict:
    """``data/*.json``, the atomistic corpus and the extension corpus up to the size cap."""
    lats = {f"data/{p.name}": load_lattice(p) for p in sorted(DATA.glob("*.json"))}
    lats.update(atomistic_corpus())
    lats.update((name, lat) for name, lat in extension_corpus().items() if lat.n <= DEFAULT_SIZE_CAP)
    return lats


FIXED_LATTICES = _fixed_lattices()

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


def _tables_until_bound(stream) -> list:
    seen = []
    with pytest.raises(BoundExceeded):
        for t in stream:
            seen.append(t.table)
    return seen


def assert_same_stream(lat, order: str) -> None:
    """The same tables in the same order as the reference search, and
    ``BoundExceeded`` after the same ``cap`` tables."""
    tables = [t.table for t in enumerate_all_tnorms(lat, cell_order=order)]
    assert tables == [t.table for t in reference_enumerate_all_tnorms(lat, cell_order=order)]
    assert len(tables) == len(list(enumerate_all_tnorms(lat, cap=len(tables), cell_order=order)))
    cap = len(tables) // 2
    assert _tables_until_bound(enumerate_all_tnorms(lat, cap=cap, cell_order=order)) == tables[:cap]
    assert _tables_until_bound(reference_enumerate_all_tnorms(lat, cap=cap, cell_order=order)) == tables[:cap]


@pytest.mark.parametrize("order", CELL_ORDERS)
@pytest.mark.parametrize("name", list(FIXED_LATTICES))
def test_stream_matches_reference_on_corpus(name, order):
    assert_same_stream(FIXED_LATTICES[name], order)


@settings(deadline=None, max_examples=40)
@given(size=st.integers(1, 8), seed=st.integers(0, 2**20), order=st.sampled_from(CELL_ORDERS))
def test_stream_matches_reference_on_random_lattices(size, seed, order):
    # below 3 elements only chains exist, and random_lattice draws none
    assert_same_stream(chain(size) if size < 3 else random_lattice(size, seed), order)


def test_three_chain_tables_by_hand():
    """The only free cell is the middle diagonal: bottom or itself."""
    lat = chain(3)
    a = lat.index("1")  # middle element of 0<1<2
    tables = {t.table[a][a] for t in enumerate_all_tnorms(lat)}
    assert tables == {lat.bottom, a}


def test_small_lattice_totals(p2, p3, lat_m3, fig_extended):
    assert sum(1 for _ in enumerate_all_tnorms(p2)) == 4
    assert sum(1 for _ in enumerate_all_tnorms(lat_m3)) == 8
    assert sum(1 for _ in enumerate_all_tnorms(m4())) == 16
    assert sum(1 for _ in enumerate_all_tnorms(p3)) == 560
    assert sum(1 for _ in enumerate_all_tnorms(fig_extended)) == 99


def test_every_streamed_table_verifies(p2, lat_m3, fig_extended):
    for lat in (p2, lat_m3, chain(4), fig_extended):
        for t in enumerate_all_tnorms(lat):
            assert verify_tnorm(t).ok


def test_stream_is_duplicate_free(fig_extended):
    tables = [t.table for t in enumerate_all_tnorms(fig_extended)]
    assert len(tables) == len(set(tables))


def test_cell_order_independence(lat_m3, fig_extended):
    for lat in (lat_m3, chain(5), fig_extended):
        sets = [
            {t.table for t in enumerate_all_tnorms(lat, cell_order=order)}
            for order in ("default", "lex", "reverse")
        ]
        assert sets[0] == sets[1] == sets[2]


def test_unknown_cell_order(p2):
    with pytest.raises(ValueError):
        list(enumerate_all_tnorms(p2, cell_order="bogus"))


def test_size_cap():
    from latnorm.catalog import diamond

    nine = diamond(7)
    with pytest.raises(BoundExceeded):
        list(enumerate_all_tnorms(nine))
    assert sum(1 for _ in enumerate_all_tnorms(nine, size_cap=9)) == 2**7


def test_count_cap(p2):
    with pytest.raises(BoundExceeded):
        list(enumerate_all_tnorms(p2, cap=3))


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
    table of the reference search, in stream order."""
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


@pytest.mark.parametrize("name", list(CENSUS_LATTICES))
def test_census_matches_three_scan_reference(name, monkeypatch):
    """Class counts and witnesses, in order, with every scan run on every table."""
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    lat = CENSUS_LATTICES[name]
    report = census(lat)
    total, counts, witnesses = reference_census(lat)
    assert report.total == total
    assert list(report.classes.items()) == list(counts.items())
    assert list(report.witnesses.items()) == list(witnesses.items())


def test_census_on_non_atomistic(fig_lattice):
    report = census(fig_lattice)
    assert report.total == 19
    assert report.classes["generated"] is None


def test_census_witness_left_continuous_is_meet(p2):
    report = census(p2)
    rows = report.witnesses["left_continuous"]["rows"]
    assert rows == [[p2.name(v) for v in row] for row in t_min(p2).table]


def test_census_cache_round_trip(tmp_path, lat_m3):
    first = census(lat_m3, cache_dir=tmp_path)
    files = list(tmp_path.glob("census_*.json"))
    assert len(files) == 1
    # a poisoned cache with the right version is trusted (advisory cache)
    obj = json.loads(files[0].read_text())
    obj["total"] = 12345
    files[0].write_text(json.dumps(obj))
    poisoned = census(lat_m3, cache_dir=tmp_path)
    assert poisoned.total == 12345
    # version bump forces recomputation
    obj["version"] = CENSUS_CACHE_VERSION - 1
    files[0].write_text(json.dumps(obj))
    fresh = census(lat_m3, cache_dir=tmp_path)
    assert fresh.total == first.total == 8


def test_census_cache_respects_size_cap(tmp_path):
    lat = chain(6)
    assert census(lat, cache_dir=tmp_path).total == 94
    with pytest.raises(BoundExceeded):
        census(lat, size_cap=4, cache_dir=tmp_path)
    # the report was written whole, through a temporary file that is gone
    assert [p.name for p in tmp_path.iterdir()] == [f"census_{lat.fingerprint()}.json"]
    assert census(lat, cache_dir=tmp_path).total == 94


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "7"])
def test_census_cache_holding_no_object_is_a_miss(tmp_path, text):
    lat = chain(4)
    path = tmp_path / f"census_{lat.fingerprint()}.json"
    path.write_text(text, encoding="utf-8")
    assert census(lat, cache_dir=tmp_path).total == 6
    # the miss is recomputed and written back whole
    assert CensusReport.from_json_obj(json.loads(path.read_text(encoding="utf-8"))).total == 6


def test_census_report_from_no_object_is_a_value_error():
    with pytest.raises(ValueError):
        CensusReport.from_json_obj([1, 2])


def test_census_cache_env_var(tmp_path, monkeypatch, p2):
    monkeypatch.setenv("LATNORM_CACHE_DIR", str(tmp_path))
    census(p2)
    assert list(tmp_path.glob("census_*.json"))


def test_census_report_json_round_trip(lat_m3):
    report = census(lat_m3)
    again = CensusReport.from_json_obj(json.loads(report.to_json()))
    assert again.total == report.total
    assert again.classes == report.classes
    assert again.lattice_hash == report.lattice_hash


def test_oracle_vs_construction(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        cmp = oracle_vs_construction(lat)
        assert cmp.passed, (name, cmp.failures)
        assert cmp.skeleton_count == 2 ** len(lat.atoms()) == cmp.family_count


def test_oracle_vs_construction_two_chain(two_chain):
    cmp = oracle_vs_construction(two_chain)
    assert cmp.passed
    assert cmp.skeleton_count == 1 == cmp.family_count
