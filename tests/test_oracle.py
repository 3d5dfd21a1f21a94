"""Brute-force enumeration, census classification, and construction cross-checks."""

import json

import pytest

from latnorm.catalog import chain, m4
from latnorm.errors import BoundExceeded
from latnorm.oracle import (
    CENSUS_CACHE_VERSION,
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

# Enumeration totals, frozen from oracle runs (hand-checkable for chains up
# to four elements: the three-chain has a single free cell with two legal
# values, and so on).
CHAIN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 22}


@pytest.mark.parametrize("k,expected", sorted(CHAIN_COUNTS.items()))
def test_chain_counts(k, expected):
    assert sum(1 for _ in enumerate_all_tnorms(chain(k))) == expected


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
