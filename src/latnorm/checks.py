"""Cross-cutting consistency checks tying the pipeline's pieces together.

Every check tests a fact about one object: the lifted family on the
atomistic extension, one t-norm per atom selection, or the S-family that
gates that same family and restricts it to the original lattice.
:func:`run_all_checks` builds the family once per lattice, derives the
S-family from it and hands every check what it tests; a check reports a
witness on failure. They back the CLI's ``check`` subcommand; the test
suite runs them over the whole corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construction import (
    GeneratedTNorm,
    family_powerset_isomorphism,
    generated_family,
    semicontinuity_criterion,
    skeleton,
)
from .errors import BoundExceeded, DegenerateLength
from .extension import SFamily, extend, s_family
from .lattice import FiniteLattice
from .tnorm import FamilyOrder, is_left_semicontinuous, verify_tnorm

CHECK_ATOM_CAP = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{status}  {self.name}{tail}"


def check_lift_restriction_roundtrip(lat: FiniteLattice, family: list[GeneratedTNorm]) -> CheckResult:
    """Each lift, read on the skeleton's cells, is the skeleton table it was lifted from.

    A cell whose value lies outside the skeleton fails like a wrong value.
    """
    name = "lift-restriction round-trip"
    skel = skeleton(lat)
    ids, pos = skel.to_parent, skel.from_parent
    for g in family:
        rows = g.lifted.table
        if any(tuple(pos.get(rows[x][y]) for y in ids) != row for x, row in zip(ids, g.on_skeleton.table)):
            return CheckResult(name, False, f"selection {g.selection.label()} does not round-trip")
    return CheckResult(name, True)


def check_semicontinuity_criterion(lat: FiniteLattice, family: list[GeneratedTNorm]) -> CheckResult:
    """The selection-level criterion matches the table scan for every selection."""
    name = "left-semicontinuity criterion vs table scan"
    for g in family:
        predicted = semicontinuity_criterion(lat, g.selection)
        scanned = is_left_semicontinuous(g.lifted)
        if predicted.ok != scanned.ok:
            return CheckResult(
                name,
                False,
                f"selection {g.selection.label()}: criterion says {predicted.ok}, scan says {scanned.ok}",
            )
    return CheckResult(name, True)


def check_family_isomorphism(lat: FiniteLattice, family: list[GeneratedTNorm]) -> CheckResult:
    """The lifted family is the atom powerset as an ordered structure; fails above its atom cap."""
    name = "family vs atom-powerset isomorphism"
    try:
        report = family_powerset_isomorphism(lat, family)
    except DegenerateLength:
        return CheckResult(name, True, "degenerate length; unique t-norm")
    except BoundExceeded as exc:
        return CheckResult(name, False, str(exc))
    if not report.passed:
        return CheckResult(name, False, report.failures[0])
    return CheckResult(name, True)


def check_extension_gate(fam: SFamily) -> CheckResult:
    """The restriction gate holds exactly when the restriction is a t-norm.

    Reads each member's gate verdict and restriction from the S-family and
    sets them against its own closure scan of the lifted table.
    """
    name = "extension restriction gate (both directions)"
    n0 = fam.ext.original.n
    for entry in fam.entries:
        gate = entry.condition_c
        closed = all(v < n0 for row in entry.source.lifted.table[:n0] for v in row[:n0])
        if gate.ok != closed:
            return CheckResult(
                name, False, f"selection {entry.selection.label()}: gate {gate.ok}, closure {closed}"
            )
        if closed:
            verdict = verify_tnorm(entry.restricted)
            if not verdict.ok:
                return CheckResult(
                    name, False, f"selection {entry.selection.label()}: restriction {verdict.describe()}"
                )
    return CheckResult(name, True)


def check_restriction_joins(fam: SFamily) -> CheckResult:
    """Selection unions realize least upper bounds of gated restrictions.

    Also confirms that adding the atom inserted under a join-irreducible
    top never changes a restriction.
    """
    name = "restriction family joins"
    ext, lat = fam.ext, fam.ext.original
    members = fam.members()
    order = FamilyOrder(table for _, table in members)
    member_of = {sel.mask: i for (sel, _), i in zip(members, order.index)}
    for sel_a, _ in members:
        for sel_b, _ in members:
            joined = order.lub(member_of[sel_a.mask], member_of[sel_b.mask])
            if joined != member_of[sel_a.mask | sel_b.mask]:
                return CheckResult(
                    name,
                    False,
                    f"({sel_a.label()}, {sel_b.label()}): union is not the least upper bound",
                )
    top = lat.top
    if lat.ji_mask >> top & 1 and top in ext.new_atoms:
        w1 = ext.new_atoms[top]
        for sel, _ in members:
            if w1 in sel:
                continue
            if member_of.get(sel.mask | 1 << w1) != member_of[sel.mask]:
                return CheckResult(
                    name, False, f"adding {ext.extended.name(w1)} to {sel.label()} changed the restriction"
                )
    return CheckResult(name, True)


def run_all_checks(lat: FiniteLattice, atom_cap: int = CHECK_ATOM_CAP) -> list[CheckResult]:
    """Run the five checks on one extension, one lifted family and one S-family.

    An atomistic lattice is its own extension. A check whose family exceeds
    ``atom_cap`` fails under its function name with the cap's message.
    """
    ext = extend(lat)
    note = "" if lat.is_atomistic() else " (on the atomistic extension)"
    try:
        family = generated_family(ext.extended, atom_cap=atom_cap)
        fam = s_family(ext, family)
    except BoundExceeded as exc:
        family = fam = exc
    results = []
    for fn, args, suffix in (
        (check_lift_restriction_roundtrip, (ext.extended, family), note),
        (check_semicontinuity_criterion, (ext.extended, family), note),
        (check_family_isomorphism, (ext.extended, family), note),
        (check_extension_gate, (fam,), ""),
        (check_restriction_joins, (fam,), ""),
    ):
        exceeded = next((a for a in args if isinstance(a, BoundExceeded)), None)
        res = fn(*args) if exceeded is None else CheckResult(fn.__name__, False, str(exceeded))
        results.append(CheckResult(res.name + suffix, res.passed, res.detail))
    return results
