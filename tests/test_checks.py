"""The consistency-check suite over the whole corpus."""

from collections import Counter
from dataclasses import replace

import latnorm.checks
import latnorm.construction
import latnorm.extension
from latnorm.catalog import chain, diamond, stemmed_diamond
from latnorm.checks import (
    check_extension_gate,
    check_family_isomorphism,
    check_lift_restriction_roundtrip,
    check_semicontinuity_criterion,
    run_all_checks,
)
from latnorm.cli import main
from latnorm.construction import generated_family, semicontinuity_criterion, skeleton
from latnorm.extension import SFamily, extend, s_family
from latnorm.lattice import powerset_lattice
from latnorm.tnorm import OK, TNormTable, Verdict, t_drastic, t_min

from conftest import degenerate_warning


def test_all_checks_pass_on_corpus(corpus_extension):
    for name, lat in corpus_extension.items():
        with degenerate_warning(lat):
            results = run_all_checks(lat)
        assert len(results) == 5
        for r in results:
            assert r.passed, (name, r.name, r.detail)


def test_checks_pass_on_atomistic(corpus_atomistic):
    for name, lat in corpus_atomistic.items():
        for r in run_all_checks(lat):
            assert r.passed, (name, r.name, r.detail)
        names = [r.name for r in run_all_checks(lat)]
        assert not any("extension" in n and "(on" in n for n in names)


def test_check_result_line_format(corpus_extension):
    results = run_all_checks(corpus_extension["stemmed_diamond"])
    for r in results:
        assert r.line().startswith("PASS")


def test_run_all_checks_builds_one_extension_family_and_s_family(monkeypatch):
    calls = Counter()

    def count(module, name, real=None, raising=True):
        real = real or getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted, raising=raising)

    for name in ("extend", "generated_family", "s_family"):
        count(latnorm.checks, name)
    count(latnorm.construction, "generated_family")  # a family of a check's own would show up here
    # the family's own skeleton; a check that built one again would show up here
    count(latnorm.construction, "skeleton")
    count(latnorm.checks, "skeleton", real=latnorm.construction.skeleton, raising=False)
    # s_family gates the family it is given; a lift of its own would show up here
    count(latnorm.extension, "lift", real=latnorm.construction.lift, raising=False)
    count(latnorm.construction, "lift")
    results = run_all_checks(stemmed_diamond())
    assert all(r.passed for r in results)
    # the extension has 3 atoms: 8 lifts, all for the shared family
    assert calls == {"extend": 1, "generated_family": 1, "s_family": 1, "skeleton": 1, "lift": 8}


def test_extension_gate_check_reads_the_s_family(monkeypatch):
    """Each member is gated and restricted once, by ``s_family``."""
    calls = Counter()
    for name in ("condition_c", "restrict_to_original"):
        real = getattr(latnorm.extension, name)

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(latnorm.extension, name, counted)
        monkeypatch.setattr(latnorm.checks, name, counted, raising=False)
    results = run_all_checks(stemmed_diamond())
    assert all(r.passed for r in results)
    # the extension has 3 atoms: 8 selections, 5 of which pass the gate
    assert calls == {"condition_c": 8, "restrict_to_original": 5}


def test_extension_gate_check_catches_a_wrong_gate_verdict():
    """The check's own closure scan is the independent side."""
    ext = extend(stemmed_diamond())
    fam = s_family(ext, generated_family(ext.extended))
    for flipped in fam.entries:
        verdict = Verdict(False, "restriction-gate", ("forged",)) if flipped.condition_c.ok else OK
        forged = SFamily(ext, tuple(replace(e, condition_c=verdict) if e is flipped else e for e in fam.entries))
        result = check_extension_gate(forged)
        closed = flipped.restricted is not None
        assert not result.passed
        assert result.detail == f"selection {flipped.selection.label()}: gate {not closed}, closure {closed}"


def test_roundtrip_check_catches_a_wrong_or_escaping_skeleton_cell():
    """A lift that disagrees with its skeleton table on a skeleton cell fails,
    and so does one whose skeleton cell holds an element outside the skeleton."""
    lat = extend(stemmed_diamond()).extended
    family = generated_family(lat)
    assert check_lift_restriction_roundtrip(lat, family).passed
    a, b = list(lat.atoms())[:2]
    outside = lat.join(a, b)
    assert outside not in skeleton(lat).from_parent
    for victim in (family[0], family[-1]):
        idempotent = victim.lifted.table[a][a] == a
        for value in (lat.bottom if idempotent else a, outside):
            rows = [list(row) for row in victim.lifted.table]
            rows[a][a] = value
            forged = [replace(g, lifted=TNormTable(lat, rows)) if g is victim else g for g in family]
            result = check_lift_restriction_roundtrip(lat, forged)
            assert not result.passed
            assert result.detail == f"selection {victim.selection.label()} does not round-trip"
    assert check_lift_restriction_roundtrip(lat, []).passed


def test_criterion_check_catches_a_lift_that_disagrees_with_the_criterion():
    """On the extension of chain(5), the first selection the criterion
    rejects gets the drastic t-norm, which the scan passes."""
    lat = extend(chain(5)).extended
    family = generated_family(lat)
    victim = next(g for g in family if not semicontinuity_criterion(lat, g.selection).ok)
    forged = [replace(g, lifted=t_drastic(lat)) if g is victim else g for g in family]
    assert check_semicontinuity_criterion(lat, forged).line() == (
        "FAIL  left-semicontinuity criterion vs table scan  (selection 1: criterion says False, scan says True)"
    )


def test_isomorphism_check_catches_two_swapped_lifts():
    """On 2^3 the lifts of {a} and {b} trade places, so {a} no longer lies
    below {a, c} pointwise."""
    lat = powerset_lattice(3)
    family = generated_family(lat)
    forged = [family[0], replace(family[1], lifted=family[2].lifted), replace(family[2], lifted=family[1].lifted)]
    forged += family[3:]
    assert check_family_isomorphism(lat, forged).line() == (
        "FAIL  family vs atom-powerset isomorphism  "
        "(selection inclusion and pointwise order disagree on (a, a_c))"
    )


def test_extension_gate_check_catches_a_restriction_that_is_no_tnorm():
    """The first gated member's restriction becomes the meet with T(1, 0) = 1."""
    ext = extend(stemmed_diamond())
    fam = s_family(ext, generated_family(ext.extended))
    first = next(e for e in fam.entries if e.restricted is not None)
    lat = ext.original
    rows = [list(row) for row in t_min(lat).table]
    rows[lat.top][lat.bottom] = lat.top
    forged = SFamily(ext, tuple(replace(e, restricted=TNormTable(lat, rows)) if e is first else e for e in fam.entries))
    assert check_extension_gate(forged).line() == (
        "FAIL  extension restriction gate (both directions)  "
        "(selection empty: restriction violates neutral at ('1', '0'))"
    )


def _check_lines(tmp_path, capsys, lat):
    path = tmp_path / "lat.json"
    path.write_text(lat.to_json(), encoding="utf-8")
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    return captured.out.splitlines()


def test_check_fails_only_the_s_family_checks_when_s_family_raises(tmp_path, capsys, monkeypatch):
    """A gate that passes every selection lets a lift that leaves the
    original through, and restricting it raises: the two checks that read
    the S-family fail with that message, the other three still run."""
    monkeypatch.setattr(latnorm.extension, "condition_c", lambda ext, selection: OK)
    lines = _check_lines(tmp_path, capsys, stemmed_diamond())
    assert [line.split()[0] for line in lines] == ["PASS", "PASS", "PASS", "FAIL", "FAIL"]
    assert lines[3].startswith("FAIL  extension restriction gate (both directions)  (restriction gate fails at join-irreducible ")
    assert lines[4].startswith("FAIL  restriction family joins  (restriction gate fails at join-irreducible ")


def test_check_fails_every_check_when_the_family_cannot_be_built(tmp_path, capsys, monkeypatch):
    """Lifts that all collapse to the meet make the family raise on its
    first duplicate: every check needs the family, so all five fail."""
    monkeypatch.setattr(latnorm.construction, "lift", lambda lat, on_c: t_min(lat))
    lines = _check_lines(tmp_path, capsys, diamond(3))
    detail = "duplicate lift; the generated family must be pairwise distinct"
    assert lines == [
        f"FAIL  {name}  ({detail})"
        for name in (
            "lift-restriction round-trip",
            "left-semicontinuity criterion vs table scan",
            "family vs atom-powerset isomorphism",
            "extension restriction gate (both directions)",
            "restriction family joins",
        )
    ]
