"""Acceptance suite: one test per criterion, each timed against its budget.

Each test prints a single PASS line (visible with ``pytest -s`` or ``-rA``);
a failed assertion is the FAIL line. Expected values tagged as derived were
computed with the brute-force oracle and frozen here.
"""

import time
from contextlib import contextmanager

import pytest

from latnorm.catalog import atomistic_corpus, extension_corpus
from latnorm.cli import main
from latnorm.construction import (
    AtomSelection,
    enumerate_skeleton_tnorms,
    family_powerset_isomorphism,
    generated_family,
    semicontinuity_criterion,
    skeleton,
)
from latnorm.extension import condition_c, continuity_of_restriction, extend, s_family
from latnorm.lattice import iter_bits
from latnorm.oracle import census, enumerate_all_tnorms
from latnorm.tnorm import (
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    t_drastic,
    t_min,
    tnorm_le,
    verify_tnorm,
)

from conftest import degenerate_warning, golden
from oracles import (
    all_subsets_left_continuous,
    all_subsets_left_semicontinuous,
    all_subsets_right_continuous,
    all_subsets_semicontinuity_condition,
)
from test_construction import LIFTED_TABLE, SKELETON_TABLE
from test_tnorm import RESTRICTED_TABLE

ATOMISTIC = atomistic_corpus()
EXTENSION = extension_corpus()


@contextmanager
def budget(label: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"{label} took {elapsed:.2f}s, budget {seconds}s"
    print(f"ACCEPTANCE {label}: PASS in {elapsed:.2f}s (budget {seconds:.0f}s)")


def test_criterion_01_golden_tables(tmp_path, fig_lattice, capsys):
    """The worked-example pipeline reproduces all three tables byte-exact."""
    with budget("01 golden tables", 1.0):
        fig_file = tmp_path / "fig.json"
        fig_file.write_text(fig_lattice.to_json(), encoding="utf-8")
        assert main(["extend", str(fig_file), "--out", str(tmp_path)]) == 0
        ext_file = tmp_path / "fig_ext.json"
        assert main(["generate", str(ext_file), "--alpha", "b,w_d", "--out", str(tmp_path)]) == 0
        assert main(["restrict", str(fig_file), "--alpha", "b,w_d", "--out", str(tmp_path)]) == 0
        capsys.readouterr()

        skeleton_csv = (tmp_path / "c_alpha_b_w_d.csv").read_text(encoding="utf-8")
        lifted_csv = (tmp_path / "alpha_b_w_d.csv").read_text(encoding="utf-8")
        restricted_csv = (tmp_path / "restricted_alpha_b_w_d.csv").read_text(encoding="utf-8")
        assert skeleton_csv == golden("table1_skeleton.csv")
        assert lifted_csv == golden("table2_lifted.csv")
        assert restricted_csv == golden("table3_restricted.csv")

        # the golden bytes carry exactly the published cell values
        for text, named in (
            (skeleton_csv, SKELETON_TABLE),
            (lifted_csv, LIFTED_TABLE),
            (restricted_csv, RESTRICTED_TABLE),
        ):
            lines = [line.split(",") for line in text.strip().splitlines()]
            header = lines[0][1:]
            cells = {(row[0], col): row[i + 1] for row in lines[1:] for i, col in enumerate(header)}
            expected = {(x, y): v for x, row in named.items() for y, v in row.items()}
            assert cells == expected


def test_criterion_02_skeleton_counting():
    """Brute force on each skeleton finds exactly the selection family."""
    with budget("02 skeleton counting", 30.0):
        for name, lat in ATOMISTIC.items():
            skel = skeleton(lat)
            brute = {t.table for t in enumerate_all_tnorms(skel.lattice)}
            constructed = {t.table for _, t in enumerate_skeleton_tnorms(skel)}
            k = len(lat.atoms())
            assert len(brute) == 2**k, name
            assert brute == constructed, name


def test_criterion_03_lift_soundness():
    """Every lift over every selection on every corpus lattice verifies."""
    with budget("03 lift soundness", 30.0):
        for name, lat in ATOMISTIC.items():
            for g in generated_family(lat):
                assert verify_tnorm(g.lifted).ok, (name, g.selection.label())


def test_criterion_04_semicontinuity_iff():
    """The selection criterion decides left-semicontinuity; on powerset
    lattices the left-semicontinuous tables are exactly the family."""
    with budget("04 semicontinuity iff", 120.0):
        for name, lat in ATOMISTIC.items():
            for g in generated_family(lat):
                assert (
                    semicontinuity_criterion(lat, g.selection).ok
                    == is_left_semicontinuous(g.lifted).ok
                ), (name, g.selection.label())
        for name, expected in (("2^2", 4), ("2^3", 8)):
            lat = ATOMISTIC[name]
            family_tables = {g.lifted.table for g in generated_family(lat)}
            lsc = {t.table for t in enumerate_all_tnorms(lat) if is_left_semicontinuous(t).ok}
            assert len(lsc) == expected, name
            assert lsc == family_tables, name


def test_criterion_05_continuity_classification():
    """Left-continuity census: exactly the meet on powerset lattices, none
    on the non-powerset atomistic corpus members."""
    with budget("05 continuity classification", 120.0):
        for name in ("2^2", "2^3"):
            lat = ATOMISTIC[name]
            report = census(lat)
            assert report.classes["left_continuous"] == 1, name
            witness = report.witnesses["left_continuous"]["rows"]
            assert witness == [[lat.name(v) for v in row] for row in t_min(lat).table], name
        for name in ("M3", "stemmed_diamond_ext"):
            assert census(ATOMISTIC[name]).classes["left_continuous"] == 0, name


def test_criterion_06_representation():
    """The family is the atom powerset as an ordered structure, with union
    joins, intersection meets and complements; powerset lattices match
    their own family."""
    with budget("06 representation", 10.0):
        for name, lat in ATOMISTIC.items():
            report = family_powerset_isomorphism(lat, generated_family(lat))
            assert report.passed, (name, report.failures[:2])
            if lat.is_boolean_atomistic():
                assert report.boolean_self_isomorphic is True, name


def test_criterion_07_extension():
    """At least ten corpus lattices extend to atomistic lattices with a
    cover-preserving embedding and the predicted atom set."""
    with budget("07 extension", 10.0):
        assert len(EXTENSION) >= 10
        for name, lat in EXTENSION.items():
            ext = extend(lat)
            big = ext.extended
            assert big.is_atomistic(), name
            assert {(lo, hi) for lo, hi in big.covers if lo < lat.n and hi < lat.n} == set(lat.covers), name
            for x in range(lat.n):
                for y in range(lat.n):
                    assert big.meet(x, y) == lat.meet(x, y), name
                    assert big.join(x, y) == lat.join(x, y), name
            expected = {f"w_{lat.name(p)}" for p in iter_bits(lat.ji_mask & ~lat.atoms_mask)}
            expected |= set(lat.atoms().names())
            assert set(big.atoms().names()) == expected, name


def test_criterion_08_restriction_gate():
    """Gate and closure agree over every selection; the worked example
    passes on exactly 5 of 8 selections (oracle-derived count)."""
    with budget("08 restriction gate", 30.0):
        for name, lat in EXTENSION.items():
            ext = extend(lat)
            if len(ext.extended.atoms()) > 10:
                continue
            with degenerate_warning(ext.extended):
                fam = s_family(ext, generated_family(ext.extended))
            for entry in fam.entries:
                closed = all(
                    v < lat.n for row in entry.source.lifted.table[:lat.n] for v in row[:lat.n]
                )
                assert entry.condition_c.ok == closed, (name, entry.selection.label())
                if closed:
                    assert entry.restricted is not None
                    assert verify_tnorm(entry.restricted).ok, (name, entry.selection.label())
                else:
                    assert entry.restricted is None
        fig_ext = extend(EXTENSION["stemmed_diamond"])
        fig_fam = s_family(fig_ext, generated_family(fig_ext.extended))
        passing = [e.selection.label() for e in fig_fam.entries if e.condition_c.ok]
        assert len(passing) == 5
        assert set(passing) == {"empty", "b", "b_w_d", "b_w_c", "b_w_d_w_c"}


def test_criterion_09_restriction_family_lattice():
    """Selection union realizes the least upper bound of restrictions, and
    the atom inserted under a join-irreducible top is redundant."""
    with budget("09 restriction family lattice", 60.0):
        for name, lat in EXTENSION.items():
            ext = extend(lat)
            if len(ext.extended.atoms()) > 8:
                continue
            with degenerate_warning(ext.extended):
                members = s_family(ext, generated_family(ext.extended)).members()
            by_mask = {sel.mask: t for sel, t in members}
            for sel_a, t_a in members:
                for sel_b, t_b in members:
                    union = AtomSelection(ext.extended, sel_a.mask | sel_b.mask)
                    assert condition_c(ext, union).ok, name
                    union_table = by_mask[union.mask]
                    ubs = [t for _, t in members if tnorm_le(t_a, t) and tnorm_le(t_b, t)]
                    least = {t.table for t in ubs if all(tnorm_le(t, o) for o in ubs)}
                    assert least == {union_table.table}, (name, sel_a.label(), sel_b.label())
            top = lat.top
            if lat.ji_mask >> top & 1 and top in ext.new_atoms:
                w1 = ext.new_atoms[top]
                for sel, table in members:
                    if w1 not in sel:
                        assert by_mask[sel.mask | 1 << w1] == table, (name, sel.label())


def test_criterion_10_restriction_continuity():
    """Gated restrictions of left-semicontinuous lifts are left-semicontinuous,
    left-continuous when the top is join-irreducible; the drastic t-norm is
    left-continuous on such lattices."""
    with budget("10 restriction continuity", 30.0):
        for name, lat in EXTENSION.items():
            ext = extend(lat)
            if len(ext.extended.atoms()) > 8:
                continue
            top_ji = bool(lat.ji_mask >> lat.top & 1)
            with degenerate_warning(ext.extended):
                entries = s_family(ext, generated_family(ext.extended)).entries
            for entry in entries:
                if entry.restricted is None:
                    continue
                report = continuity_of_restriction(ext, entry.source, entry.restricted)
                if report.source_left_semicontinuous:
                    assert report.restriction_left_semicontinuous.ok, (name, entry.selection.label())
                    if top_ji:
                        assert report.restriction_left_continuous.ok, (name, entry.selection.label())
                assert report.implications_hold, (name, entry.selection.label())
            if top_ji:
                assert is_left_continuous(t_drastic(lat)).ok, name


def test_criterion_11_reduction_cross_checks():
    """Binary reductions and the witness reduction agree with the literal
    all-subsets definitions on every corpus lattice with at most 10 elements."""
    with budget("11 reduction cross-checks", 300.0):
        seen = set()
        lattices = []
        for lat in list(ATOMISTIC.values()) + list(EXTENSION.values()) + [
            extend(lat).extended for lat in EXTENSION.values()
        ]:
            if lat.n <= 10 and lat.fingerprint() not in seen:
                seen.add(lat.fingerprint())
                lattices.append(lat)
        assert len(lattices) >= 10
        for lat in lattices:
            tables = [t_min(lat), t_drastic(lat)]
            if lat.is_atomistic():
                with degenerate_warning(lat):
                    family = generated_family(lat)
                tables += [g.lifted for g in family]
                for g in family:
                    assert semicontinuity_criterion(lat, g.selection).ok == (
                        all_subsets_semicontinuity_condition(lat, g.selection)
                    ), g.selection.label()
            if lat.n <= 6:
                tables += list(enumerate_all_tnorms(lat))
            for t in tables:
                assert is_left_continuous(t).ok == all_subsets_left_continuous(t)
                assert is_left_semicontinuous(t).ok == all_subsets_left_semicontinuous(t)
                assert is_right_continuous(t).ok == all_subsets_right_continuous(t)
