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
)
from .errors import DegenerateLength, LatnormError
from .extension import SFamily, extend, s_family
from .lattice import FiniteLattice
from .tnorm import is_left_semicontinuous, tnorm_le, verify_tnorm

CHECK_ATOM_CAP = 12

# the display name of each check, read by the check and by run_all_checks
_ROUNDTRIP = "lift-restriction round-trip"
_CRITERION = "left-semicontinuity criterion vs table scan"
_ISOMORPHISM = "family vs atom-powerset isomorphism"
_GATE = "extension restriction gate (both directions)"
_JOINS = "restriction family joins"


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

    The cells are those of the member's own skeleton table, whose elements
    keep their names in ``lat``. A cell whose value lies outside the
    skeleton fails like a wrong value.
    """
    name = _ROUNDTRIP
    for g in family:
        ids = [lat.index(x) for x in g.on_skeleton.lattice.names]
        pos = {p: i for i, p in enumerate(ids)}
        rows = g.lifted.table
        if any(tuple(pos.get(rows[x][y]) for y in ids) != row for x, row in zip(ids, g.on_skeleton.table)):
            return CheckResult(name, False, f"selection {g.selection.label()} does not round-trip")
    return CheckResult(name, True)


def check_semicontinuity_criterion(lat: FiniteLattice, family: list[GeneratedTNorm]) -> CheckResult:
    """The selection-level criterion matches the table scan for every selection."""
    name = _CRITERION
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
    """The lifted family is the atom powerset as an ordered structure."""
    name = _ISOMORPHISM
    try:
        verdict = family_powerset_isomorphism(lat, family)
    except DegenerateLength:
        return CheckResult(name, True, "degenerate length; unique t-norm")
    if not verdict.ok:
        a, b = verdict.witness
        return CheckResult(name, False, f"selection inclusion and pointwise order disagree on ({a}, {b})")
    return CheckResult(name, True)


def _closed(grid, n0: int) -> bool:
    """True when the first ``n0`` rows and columns of ``grid`` hold only
    ids below ``n0``, the original lattice's elements."""
    return all(v < n0 for row in grid[:n0] for v in row[:n0])


def check_extension_gate(fam: SFamily) -> CheckResult:
    """The restriction gate holds exactly when the restriction is a t-norm.

    Reads each member's gate verdict and restriction from the S-family and
    sets them against its own closure scan of the lifted table.
    """
    name = _GATE
    n0 = fam.ext.original.n
    for entry in fam.entries:
        gate = entry.condition_c
        closed = _closed(entry.source.lifted.table, n0)
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

    Let raw(S) be S's lift read on the original lattice's cells, a grid of
    extension elements; when S passes the gate it is S's restriction. Four
    linear tests decide the claim:

    - the entries hold every subset of the union of their selections;
    - every one-atom step is a join: raw(S) = raw(S - {a}) v raw({a}) cell
      by cell in the extension, for each non-empty S and its lowest atom a
      (w = u v v exactly when the up-set of w is the common up-set of u
      and v, so each cell compares up-set masks);
    - S passes the gate exactly when raw(S) is closed, that is, when every
      cell holds an element of the original;
    - the original's elements are closed under the extension's join.

    By induction raw(S) is raw(empty) joined with raw({a}) for every atom a
    of S, and the step at a singleton puts raw(empty) below every raw({a}),
    so raw(S + T) = raw(S) v raw(T) cell by cell. For gated S and T both
    grids are closed, so their join is closed too, and S + T, an entry by
    the first test, is gated by the third: unions of gated selections are
    gated. The original's elements keep their order in the extension, so
    for gated S and V the restriction of S lies below that of V exactly
    when raw({a}) <= raw(V) for every a in S. The restriction of S + T
    therefore lies above those of S and T and below every gated restriction
    above both: it is their least upper bound in the family. Only when a
    test fails are all pairs walked with :func:`tnorm_le`, naming the first
    pair whose union is not the least upper bound.

    Also confirms that adding the atom inserted under a join-irreducible
    top never changes a restriction.
    """
    name = _JOINS
    ext, lat = fam.ext, fam.ext.original
    n0 = lat.n
    masks, join = ext.extended.ups, ext.extended.join
    raw = {e.selection.mask: [row[:n0] for row in e.source.lifted.table[:n0]] for e in fam.entries}
    members = fam.members()
    table_of = {sel.mask: t for sel, t in members}

    def is_step_join(s):
        low = s & -s
        rest, atom = raw.get(s & ~low), raw.get(low)
        return (
            rest is not None
            and atom is not None
            and all(
                masks[u] & masks[v] == masks[w] for r1, r2, r in zip(rest, atom, raw[s]) for u, v, w in zip(r1, r2, r)
            )
        )

    selected = 0
    for s in raw:
        selected |= s
    if not (
        len(raw) == 1 << selected.bit_count()
        and all(is_step_join(s) for s in raw if s)
        and all((s in table_of) == _closed(grid, n0) for s, grid in raw.items())
        and all(join(x, y) < n0 for x in range(n0) for y in range(n0))
    ):
        tables = [t for _, t in members]
        ups = [sum(1 << j for j, t in enumerate(tables) if tnorm_le(s, t)) for s in tables]
        position = {sel.mask: i for i, (sel, _) in enumerate(members)}
        for i, (sel_a, _) in enumerate(members):
            for j, (sel_b, _) in enumerate(members):
                bounds = ups[i] & ups[j]
                u = position.get(sel_a.mask | sel_b.mask)
                if u is None or not bounds >> u & 1 or ups[u] & bounds != bounds:
                    return CheckResult(
                        name,
                        False,
                        f"({sel_a.label()}, {sel_b.label()}): union is not the least upper bound",
                    )
    top = lat.top
    if lat.ji_mask >> top & 1 and top in ext.new_atoms:
        w1 = ext.new_atoms[top]
        for sel, table in members:
            if w1 not in sel and table_of.get(sel.mask | 1 << w1) != table:
                return CheckResult(
                    name, False, f"adding {ext.extended.name(w1)} to {sel.label()} changed the restriction"
                )
    return CheckResult(name, True)


def run_all_checks(lat: FiniteLattice, atom_cap: int = CHECK_ATOM_CAP) -> list[CheckResult]:
    """Run the five checks on one extension, one lifted family and one S-family.

    An atomistic lattice is its own extension. When the family cannot be
    built (it exceeds ``atom_cap``, or two lifts coincide) every check
    fails; when only the S-family cannot (restricting a member that passed
    the gate raises) only the two checks that read it fail. A failed check
    is reported under its display name with the error's message.
    """
    ext = extend(lat)
    note = "" if lat.is_atomistic() else " (on the atomistic extension)"
    try:
        family = generated_family(ext.extended, atom_cap=atom_cap)
    except LatnormError as exc:
        family = fam = exc
    else:
        try:
            fam = s_family(ext, family)
        except LatnormError as exc:
            fam = exc
    results = []
    for fn, name, args, suffix in (
        (check_lift_restriction_roundtrip, _ROUNDTRIP, (ext.extended, family), note),
        (check_semicontinuity_criterion, _CRITERION, (ext.extended, family), note),
        (check_family_isomorphism, _ISOMORPHISM, (ext.extended, family), note),
        (check_extension_gate, _GATE, (fam,), ""),
        (check_restriction_joins, _JOINS, (fam,), ""),
    ):
        missing = next((a for a in args if isinstance(a, LatnormError)), None)
        res = fn(*args) if missing is None else CheckResult(name, False, str(missing))
        results.append(CheckResult(res.name + suffix, res.passed, res.detail))
    return results
