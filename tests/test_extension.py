"""Atomistic extension, the restriction gate, and the restriction family."""

from dataclasses import replace

import pytest

from latnorm import checks
from latnorm.catalog import chain, double_atom_tower, pentagon, stemmed_diamond
from latnorm.checks import check_extension_gate, check_restriction_joins
from latnorm.construction import (
    AtomSelection,
    GeneratedTNorm,
    generated_family,
    lift,
    skeleton,
    skeleton_tnorm,
)
from latnorm.errors import ConditionCViolated, DuplicateLabel, LatticeMismatch
from latnorm.extension import (
    SFamily,
    condition_c,
    continuity_of_restriction,
    extend,
    restrict_to_original,
    s_family,
)
from latnorm.lattice import lattice_from_covers
from latnorm.tnorm import (
    TNormTable,
    Verdict,
    is_left_continuous,
    is_left_semicontinuous,
    t_drastic,
    t_min,
    tnorm_le,
    verify_tnorm,
)

from conftest import cell_name, degenerate_warning
from oracles import reference_restriction_joins
from test_tnorm import RESTRICTED_TABLE, table_from_names


def test_extend_fig(fig_ext):
    ext = fig_ext
    assert ext.extended.names == ("0", "b", "d", "c", "1", "w_d", "w_c")
    assert ext.sidecar_map() == {"w_d": "d", "w_c": "c"}
    assert ext.extended.is_atomistic()
    assert set(ext.extended.atoms().names()) == {"b", "w_d", "w_c"}


def test_extend_three_chain():
    ext = extend(chain(3))
    assert set(ext.extended.names) == {"0", "1", "2", "w_2"}
    assert ext.extended.is_boolean_atomistic()
    assert len(ext.extended.atoms()) == 2


def test_extend_identity_on_atomistic(lat_m3, p3):
    for lat in (lat_m3, p3):
        ext = extend(lat)
        assert ext.extended == lat
        assert ext.new_atoms == {}
        again = extend(ext.extended)
        assert again.extended == lat


def test_extend_corpus_properties(corpus_extension):
    """Extension is atomistic, embeds cover-preservingly, adds one atom per
    non-atom join-irreducible."""
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        big = ext.extended
        assert big.is_atomistic(), name
        # the originals come first, in file order, so ids carry over; bounds are kept
        assert big.names[:lat.n] == lat.names
        assert big.bottom == lat.bottom and big.top == lat.top
        # covers between originals are exactly the original covers
        orig_covers = set(lat.covers)
        ext_covers_among_orig = {(lo, hi) for lo, hi in big.covers if lo < lat.n and hi < lat.n}
        assert ext_covers_among_orig == orig_covers, name
        # meets and joins of originals computed in the extension agree
        for x in range(lat.n):
            for y in range(lat.n):
                assert big.meet(x, y) == lat.meet(x, y), name
                assert big.join(x, y) == lat.join(x, y), name
        h_mask = lat.ji_mask & ~lat.atoms_mask
        assert len(ext.new_atoms) == h_mask.bit_count()
        expected_atoms = {f"w_{lat.name(p)}" for p in ext.new_atoms} | set(lat.atoms().names())
        assert set(big.atoms().names()) == expected_atoms, name
        for p, w in ext.new_atoms.items():
            assert (big.bottom, w) in big.covers
            assert (w, p) in big.covers


def test_extend_name_collision():
    lat = lattice_from_covers(
        ["0", "a", "w_b", "b", "1"],
        [("0", "a"), ("0", "w_b"), ("a", "b"), ("w_b", "1"), ("b", "1")],
    )
    assert lat.ji_mask & ~lat.atoms_mask  # b is a non-atom join-irreducible
    with pytest.raises(DuplicateLabel):
        extend(lat)


def gate(ext, names):
    return condition_c(ext, AtomSelection.from_names(ext.extended, names))


def test_condition_c_examples(fig_ext):
    assert gate(fig_ext, ["b", "w_d"]).ok
    assert gate(fig_ext, []).ok
    assert gate(fig_ext, ["b", "w_d", "w_c"]).ok
    failing = gate(fig_ext, ["w_c"])
    assert not failing.ok and failing.witness == ("c",)
    assert not gate(fig_ext, ["w_d"]).ok
    assert not gate(fig_ext, ["w_d", "w_c"]).ok


def test_condition_c_exempts_join_irreducible_top():
    ext = extend(chain(3))
    w_top = f"w_{ext.original.name(ext.original.top)}"
    assert gate(ext, [w_top]).ok


def make_generated(ext, names):
    skel = skeleton(ext.extended)
    sel = AtomSelection.from_names(ext.extended, names)
    on_c = skeleton_tnorm(skel, sel)
    return GeneratedTNorm(sel, on_c, lift(ext.extended, on_c))


def test_restriction_matches_worked_example(fig_ext, fig_lattice):
    g = make_generated(fig_ext, ["b", "w_d"])
    restricted = restrict_to_original(fig_ext, g)
    assert restricted == table_from_names(fig_lattice, RESTRICTED_TABLE)
    assert verify_tnorm(restricted).ok


def test_restriction_of_full_selection_is_meet(fig_ext, fig_lattice):
    g = make_generated(fig_ext, ["b", "w_d", "w_c"])
    assert restrict_to_original(fig_ext, g).table == t_min(fig_lattice).table


def test_restriction_violation_witness(fig_ext):
    g = make_generated(fig_ext, ["w_c"])
    with pytest.raises(ConditionCViolated) as err:
        restrict_to_original(fig_ext, g)
    assert err.value.p == "c"
    assert err.value.witness == ("c", "c")


def test_restriction_violations_match_a_row_major_scan(corpus_extension):
    """Every member that fails the gate raises naming the first cell, in
    row-major order over the original's ids, whose value is an inserted
    atom, and the join-irreducible that atom was inserted under."""
    failing = 0
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 12:
            continue
        n0 = lat.n
        inserted_under = {w: p for p, w in ext.new_atoms.items()}
        with degenerate_warning(ext.extended):
            family = generated_family(ext.extended)
        for g in family:
            if condition_c(ext, g.selection).ok:
                continue
            tbl = g.lifted.table
            x, y = next((x, y) for x in range(n0) for y in range(n0) if tbl[x][y] >= n0)
            with pytest.raises(ConditionCViolated) as err:
                restrict_to_original(ext, g)
            expected = (ext.extended.name(inserted_under[tbl[x][y]]), (lat.name(x), lat.name(y)))
            assert (err.value.p, err.value.witness) == expected, (name, g.selection)
            failing += 1
    assert failing


def test_gate_iff_closure(corpus_extension):
    """Both directions of the gate, exhaustively over selections."""
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 12:
            continue
        with degenerate_warning(ext.extended):
            result = check_extension_gate(s_family(ext, generated_family(ext.extended)))
        assert result.passed, (name, result.detail)


def test_s_family_counts(fig_ext):
    fam = s_family(fig_ext, generated_family(fig_ext.extended))
    assert len(fam.entries) == 8
    passing = fam.members()
    assert len(passing) == 5
    labels = {sel.label() for sel, _ in passing}
    assert labels == {"empty", "b", "b_w_d", "b_w_c", "b_w_d_w_c"}
    failing = {e.selection.label() for e in fam.entries if e.restricted is None}
    assert failing == {"w_d", "w_c", "w_d_w_c"}


def test_s_family_gates_the_family_it_is_given(corpus_extension):
    """Entry i holds family[i] itself, so nothing is lifted again."""
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 10:
            continue
        with degenerate_warning(ext.extended):
            family = generated_family(ext.extended)
        fam = s_family(ext, family)
        assert len(fam.entries) == len(family), name
        assert all(entry.source is g for entry, g in zip(fam.entries, family)), name


def test_s_family_rejects_a_family_of_another_lattice(corpus_atomistic):
    """``extend`` builds a new lattice object even for an atomistic lattice."""
    for name, lat in corpus_atomistic.items():
        with pytest.raises(LatticeMismatch):
            s_family(extend(lat), generated_family(lat))


def test_s_family_has_top_and_bottom(corpus_extension):
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 10:
            continue
        with degenerate_warning(ext.extended):
            fam = s_family(ext, generated_family(ext.extended))
        members = fam.members()
        tables = [t for _, t in members]
        top_table = t_min(lat).table
        assert any(t.table == top_table for t in tables), name
        bot = next(t for sel, t in members if sel.mask == 0)
        for x in range(lat.n):
            for y in range(lat.n):
                if x != lat.top and y != lat.top:
                    assert bot.table[x][y] == lat.bottom
        for t in tables:
            assert tnorm_le(bot, t) and tnorm_le(t, next(tt for tt in tables if tt.table == top_table))


def test_s_family_distinct_groups_in_first_seen_order():
    ext = extend(double_atom_tower())
    fam = s_family(ext, generated_family(ext.extended))
    expected: list = []
    for sel, table in fam.members():
        for seen, sels in expected:
            if seen == table:
                sels.append(sel)
                break
        else:
            expected.append((table, [sel]))
    assert fam.distinct() == expected
    assert len(expected) < len(fam.members())


def test_union_of_gated_selections_restricts_to_figure_table(fig_ext, fig_lattice):
    a = AtomSelection.from_names(fig_ext.extended, ["b"])
    b = AtomSelection.from_names(fig_ext.extended, ["b", "w_d"])
    assert condition_c(fig_ext, a).ok and condition_c(fig_ext, b).ok
    u = AtomSelection(fig_ext.extended, a.mask | b.mask)
    g = make_generated(fig_ext, list(u.names()))
    assert restrict_to_original(fig_ext, g) == table_from_names(fig_lattice, RESTRICTED_TABLE)


def test_union_realizes_least_upper_bound(corpus_extension, monkeypatch):
    """On every corpus S-family the linear tests decide, without the pairwise walk."""
    monkeypatch.setattr(checks, "tnorm_le", lambda a, b: pytest.fail("pairwise walk ran"))
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 10:
            continue
        with degenerate_warning(ext.extended):
            result = check_restriction_joins(s_family(ext, generated_family(ext.extended)))
        assert result.passed, (name, result.detail)


def _joins_parity_cases(corpus_extension):
    """Each corpus S-family, then the same with one gated member's lift
    replaced by the drastic and by the min table of the extension."""
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        with degenerate_warning(ext.extended):
            family = generated_family(ext.extended)
        fam = s_family(ext, family)
        yield name, fam
        for label, table in (("drastic", t_drastic(ext.extended)), ("min", t_min(ext.extended))):
            for i, entry in enumerate(fam.entries):
                if entry.restricted is not None:
                    swapped = family[:i] + [replace(family[i], lifted=table)] + family[i + 1 :]
                    yield f"{name} {label} at {entry.selection.label()}", s_family(ext, swapped)


def test_restriction_joins_matches_reference(corpus_extension, monkeypatch):
    """The one-atom sweep, and the pairwise walk it falls back on, reach the
    verdict and the witness of the definition on every case."""
    calls = []
    monkeypatch.setattr(checks, "tnorm_le", lambda a, b: calls.append(1) or tnorm_le(a, b))
    failing = fallback_passed = 0
    for name, fam in _joins_parity_cases(corpus_extension):
        if name == "double_atom_tower":
            tower = fam
        del calls[:]
        result = check_restriction_joins(fam)
        assert (result.passed, result.detail) == reference_restriction_joins(fam), name
        failing += not result.passed
        # only a failing sweep walks the pairs with tnorm_le
        fallback_passed += result.passed and bool(calls)
    # 272 cases; a replacement can leave every join in place, and on 19 of
    # them the sweep fails while the pairwise walk passes
    assert failing == 205
    assert fallback_passed >= 1
    # the cases hold shared restrictions and a gated pair whose
    # intersection fails the gate
    ext = tower.ext
    assert len(tower.distinct()) < len(tower.members())
    a, b = (AtomSelection.from_names(ext.extended, ["w_p", x]) for x in ("a", "b"))
    assert condition_c(ext, a).ok and condition_c(ext, b).ok
    assert not condition_c(ext, AtomSelection(ext.extended, a.mask & b.mask)).ok


def test_restriction_joins_fails_on_an_ungated_union(fig_ext):
    """A union of two gated selections that is not gated itself, or is
    missing from the family, fails at the first such pair, as the
    definition says."""
    fam = s_family(fig_ext, generated_family(fig_ext.extended))
    full = fig_ext.extended.atoms_mask
    ungated = tuple(
        replace(e, condition_c=Verdict(False), restricted=None) if e.selection.mask == full else e
        for e in fam.entries
    )
    missing = tuple(e for e in fam.entries if e.selection.mask != full)
    for entries in (ungated, missing):
        cut = SFamily(fig_ext, entries)
        result = check_restriction_joins(cut)
        assert (result.passed, result.detail) == reference_restriction_joins(cut)
        assert result.detail == "(b_w_d, b_w_c): union is not the least upper bound"


def test_top_insert_redundancy(corpus_extension):
    """Adding the atom inserted under a join-irreducible top never changes
    the restriction."""
    seen_case = False
    for lat in corpus_extension.values():
        ext = extend(lat)
        top = lat.top
        if not (lat.ji_mask >> top & 1 and top in ext.new_atoms):
            continue
        seen_case = True
        w1 = ext.new_atoms[top]
        fam = s_family(ext, generated_family(ext.extended))
        by_mask = {sel.mask: t for sel, t in fam.members()}
        for sel, table in fam.members():
            if w1 in sel:
                continue
            assert by_mask[sel.mask | 1 << w1] == table
    assert seen_case


def test_restriction_continuity_worked_example(fig_ext):
    g = make_generated(fig_ext, ["b", "w_d"])
    report = continuity_of_restriction(fig_ext, g, restrict_to_original(fig_ext, g))
    assert report.source_left_semicontinuous
    assert report.restriction_left_semicontinuous.ok
    assert not report.top_is_join_irreducible
    assert not report.restriction_left_continuous.ok
    assert report.implications_hold
    # the concrete failure: joining the two covers of top jumps the value
    t = restrict_to_original(fig_ext, g)
    assert cell_name(t, "c", "1") == "c"
    lat = fig_ext.original
    c, d = lat.index("c"), lat.index("d")
    assert lat.join(c, d) == lat.top
    assert lat.join(t.table[c][c], t.table[c][d]) == lat.index("b")


def _min_changed(lat, cells):
    """The meet's table on ``lat`` with the named cells set as given."""
    rows = [list(row) for row in t_min(lat).table]
    for (x, y), v in cells.items():
        rows[lat.index(x)][lat.index(y)] = lat.index(v)
    return TNormTable(lat, rows)


@pytest.mark.parametrize(
    "original, cells, top_ji, lsc, lc",
    [
        # N5's top joins b with a and with c: not join-irreducible; the
        # changed row c breaks a join below top
        (pentagon(), {("c", "c"): "0"}, False, Verdict(False, "left-semicontinuity", ("c", "a", "c")),
         Verdict(False, "left-continuity", ("c", "a", "b"))),
        # a join-irreducible top; the changed cell T(q, 1) breaks only the
        # join that is top
        (double_atom_tower(), {("q", "1"): "0"}, True, Verdict(True),
         Verdict(False, "left-continuity", ("q", "a", "1"))),
    ],
    ids=["N5", "double_atom_tower"],
)
def test_restriction_continuity_flags_a_broken_implication(original, cells, top_ji, lsc, lc):
    """A table that breaks what a left-semicontinuous source promises, one
    implication each: left-semicontinuity on N5, and left-continuity
    under a join-irreducible top."""
    ext = extend(original)
    source = generated_family(ext.extended)[0]
    report = continuity_of_restriction(ext, source, _min_changed(original, cells))
    assert report.source_left_semicontinuous
    assert report.restriction_left_semicontinuous == lsc
    assert report.restriction_left_continuous == lc
    assert report.top_is_join_irreducible == top_ji
    assert not report.implications_hold


def test_restriction_rejects_a_member_of_another_lattice(fig_ext):
    g = make_generated(extend(fig_ext.original), ["b"])
    with pytest.raises(LatticeMismatch, match=r"^generated t-norm must live on the extended lattice$"):
        restrict_to_original(fig_ext, g)


def test_restriction_continuity_rejects_a_restriction_of_another_lattice(fig_ext):
    """An equal copy of the original lattice is another lattice."""
    g = make_generated(fig_ext, ["b", "w_d"])
    copy = t_min(stemmed_diamond())
    assert copy.lattice == fig_ext.original
    with pytest.raises(LatticeMismatch, match=r"^restriction must live on the original lattice$"):
        continuity_of_restriction(fig_ext, g, copy)


def test_restriction_continuity_rejects_a_source_of_another_lattice(fig_ext):
    """An equal copy of the extended lattice is another lattice."""
    other = extend(fig_ext.original)
    assert other.extended == fig_ext.extended
    g = make_generated(other, ["b", "w_d"])
    with pytest.raises(LatticeMismatch, match=r"^generated t-norm must live on the extended lattice$"):
        continuity_of_restriction(fig_ext, g, restrict_to_original(other, g))


def test_restrictions_from_semicontinuous_sources(corpus_extension):
    """Gated restrictions of left-semicontinuous lifts stay left-semicontinuous;
    with a join-irreducible top they are left-continuous."""
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        if ext.extended.atoms_mask.bit_count() > 10:
            continue
        with degenerate_warning(ext.extended):
            fam = s_family(ext, generated_family(ext.extended))
        for entry in fam.entries:
            if entry.restricted is None:
                continue
            report = continuity_of_restriction(ext, entry.source, entry.restricted)
            assert report.implications_hold, (name, entry.selection.label())
            assert report.restriction_left_semicontinuous == is_left_semicontinuous(entry.restricted)
            assert report.restriction_left_continuous == is_left_continuous(entry.restricted)
            if report.source_left_semicontinuous:
                assert report.restriction_left_semicontinuous.ok, name
                if report.top_is_join_irreducible:
                    assert report.restriction_left_continuous.ok, name


def test_drastic_left_continuous_when_top_join_irreducible(corpus_extension):
    for lat in corpus_extension.values():
        if lat.ji_mask >> lat.top & 1:
            assert is_left_continuous(t_drastic(lat)).ok


def test_intersection_can_fail_the_gate():
    """The restriction family need not be closed under selection intersection;
    the meet still exists inside the family, found by scanning."""
    lat = double_atom_tower()
    ext = extend(lat)
    big = ext.extended
    a = AtomSelection.from_names(big, ["w_p", "a"])
    b = AtomSelection.from_names(big, ["w_p", "b"])
    assert condition_c(ext, a).ok and condition_c(ext, b).ok
    inter = AtomSelection(big, a.mask & b.mask)
    assert not condition_c(ext, inter).ok
    # the family meet computed by scan: greatest member below both restrictions
    fam = s_family(ext, generated_family(ext.extended))
    members = fam.members()
    ta = next(t for sel, t in members if sel.mask == a.mask)
    tb = next(t for sel, t in members if sel.mask == b.mask)
    lbs = [t for _, t in members if tnorm_le(t, ta) and tnorm_le(t, tb)]
    greatest = [t for t in lbs if all(tnorm_le(other, t) for other in lbs)]
    assert len(set(greatest)) == 1


def test_meet_anomaly_search_outcome(corpus_extension):
    """Exactly one corpus lattice has two gated selections whose intersection fails the gate."""
    witnesses = []
    for name, lat in corpus_extension.items():
        ext = extend(lat)
        with degenerate_warning(ext.extended):
            fam = s_family(ext, generated_family(ext.extended))
        passing = [e.selection for e in fam.entries if e.restricted is not None]
        for i, sa in enumerate(passing):
            for sb in passing[i + 1:]:
                inter = AtomSelection(ext.extended, sa.mask & sb.mask)
                if not condition_c(ext, inter).ok:
                    witnesses.append((name, sa.label(), sb.label()))
                    break
            else:
                continue
            break
    assert witnesses == [("double_atom_tower", "a_w_p", "b_w_p")]
