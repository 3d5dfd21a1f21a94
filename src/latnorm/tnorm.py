"""T-norm tables on a finite lattice: axioms, order, idempotents, continuity.

A t-norm is a commutative, associative, monotone binary operation with the
top element as neutral element. Tables are plain index grids over one
lattice; every predicate returns a verdict carrying a minimal witness so a
failed theorem check reads as a concrete counterexample.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import itemgetter

from .errors import LatticeMismatch, NotClosed, TopMissing, UnknownLabel
from .lattice import ElementSet, FiniteLattice, induced_sublattice


@dataclass(frozen=True)
class Verdict:
    """Outcome of a table check; ``witness`` names the first violation found."""

    ok: bool
    axiom: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return f"violates {self.axiom} at {self.witness}"


OK = Verdict(True)


class TNormTable:
    """A total binary operation table over one lattice's elements.

    ``verdict`` caches the verification result; None means unchecked.
    ``_monotone`` caches whether every row is monotone, which the
    continuity scans test first and ``verify_tnorm`` learns on the way;
    None means untested. ``_row_classes`` lists, in element order, the
    first row x != top of each class of rows that agree off column top;
    ``verify_tnorm`` sets it once neutrality, commutativity and
    monotonicity hold, and None means unknown. Neither cache is part of
    ``==`` or ``hash``.
    """

    __slots__ = ("lattice", "table", "verdict", "_monotone", "_row_classes")

    def __init__(self, lattice: FiniteLattice, table):
        n = lattice.n
        rows = tuple(tuple(row) for row in table)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"table must be {n}x{n}")
        for row in rows:
            for v in row:
                if not 0 <= v < n:
                    raise ValueError(f"table entry {v} is not an element id")
        self.lattice = lattice
        self.table = rows
        self.verdict = None
        self._monotone = None
        self._row_classes = None

    def value(self, x: int, y: int) -> int:
        return self.table[x][y]

    def by_names(self, xname: str, yname: str) -> str:
        lat = self.lattice
        return lat.name(self.table[lat.index(xname)][lat.index(yname)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TNormTable):
            return NotImplemented
        same = self.lattice is other.lattice or self.lattice == other.lattice
        return same and self.table == other.table

    def __hash__(self) -> int:
        return hash((self.lattice.names, self.table))

    def __repr__(self) -> str:
        return f"TNormTable(on {self.lattice.n} elements)"


def verify_tnorm(t: TNormTable) -> Verdict:
    """Check the four t-norm axioms, returning the first violation found.

    The axioms are checked in the order neutral, commutativity,
    monotonicity, associativity; the last two sweep whole rows.

    - Monotonicity is only checked across cover pairs; transitivity of the
      order carries it to all comparable pairs (cross-checked in the tests
      against the all-pairs formulation). Commutativity holds by then, so
      column ``lo`` is row ``lo``, and a cover (lo, hi) holds when every
      cell pair of rows ``lo`` and ``hi`` is a comparable pair.
    - Associativity compares, for each (x, y), the row of T(x, y) with row
      x gathered through row y: they are T(T(x, y), z) and T(x, T(y, z))
      for every z at once.

    Associativity is swept over one row per class only. Once the first
    three axioms hold, the rows x != top are grouped by their values off
    column top, and the first row of each class in element order is kept
    (``t._row_classes``). This is exact. A triple with top in it holds by
    neutrality. For y, z != top, T(y, z) <= T(y, top) = y < top, so when
    rows x and x' agree off column top the checks at (x, y, z) and
    (x', y, z) read equal cells; by commutativity the same holds for y and
    a y' whose row agrees with y's. So the first failing (x, y) of the
    plain sweep has both x and y first in their classes, and the sweep
    over those meets it first.

    A failed row is rescanned cell by cell in the order of the plain sweep
    (cover, then x; x, then y, then z), so the witness is the first
    violation that sweep meets, not merely one in the failed row.
    """
    if t.verdict is not None:
        return t.verdict
    lat = t.lattice
    tbl = t.table
    n = lat.n
    top = lat.top
    verdict = OK
    for x in range(n):
        if tbl[x][top] != x:
            verdict = Verdict(False, "neutral", (lat.name(x), lat.name(top)))
            break
        if tbl[top][x] != x:
            verdict = Verdict(False, "neutral", (lat.name(top), lat.name(x)))
            break
    if verdict.ok:
        for x in range(n):
            row = tbl[x]
            for y in range(x + 1, n):
                if row[y] != tbl[y][x]:
                    verdict = Verdict(False, "commutativity", (lat.name(x), lat.name(y)))
                    break
            if not verdict.ok:
                break
    if verdict.ok:
        comparable = lat.comparable_pairs()
        for lo, hi in lat.covers:
            if not comparable.issuperset(zip(tbl[lo], tbl[hi])):
                x = next(x for x, pair in enumerate(zip(tbl[lo], tbl[hi])) if pair not in comparable)
                verdict = Verdict(False, "monotonicity", (lat.name(x), lat.name(lo), lat.name(hi)))
                break
        # the table is commutative here, so this is the continuity scans' gate
        t._monotone = verdict.ok
    if verdict.ok:
        firsts: dict = {}
        for x, row in enumerate(tbl):
            if x != top:
                firsts.setdefault(row[:top] + row[top + 1 :], x)
        reps = t._row_classes = tuple(firsts.values())
        # two or more elements whenever there is a class, so itemgetter
        # returns a row rather than a bare value
        gathers = [(y, itemgetter(*tbl[y])) for y in reps]
        for x in reps:
            rx = tbl[x]
            for y, gather in gathers:
                lhs, rhs = tbl[rx[y]], gather(rx)
                if lhs != rhs:
                    z = next(z for z, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
                    verdict = Verdict(False, "associativity", (lat.name(x), lat.name(y), lat.name(z)))
                    break
            if not verdict.ok:
                break
    t.verdict = verdict
    return verdict


def t_min(lat: FiniteLattice) -> TNormTable:
    """The strongest t-norm: pointwise meet."""
    return TNormTable(lat, lat.meet_table)


def t_drastic(lat: FiniteLattice) -> TNormTable:
    """The weakest t-norm: meet when top is an argument, bottom otherwise."""
    top, bot = lat.top, lat.bottom
    n = lat.n
    tbl = [[bot] * n for _ in range(n)]
    for x in range(n):
        tbl[x][top] = x
        tbl[top][x] = x
    return TNormTable(lat, tbl)


def tnorm_le(t1: TNormTable, t2: TNormTable) -> bool:
    """Pointwise order between two tables on the same lattice."""
    if t1.lattice is not t2.lattice:
        raise LatticeMismatch("tables live on different lattices")
    ups = t1.lattice.ups
    return all(ups[a] >> b & 1 for r1, r2 in zip(t1.table, t2.table) for a, b in zip(r1, r2))


def idempotents(t: TNormTable) -> ElementSet:
    """Elements fixed on the diagonal."""
    mask = 0
    for x in range(t.lattice.n):
        if t.table[x][x] == x:
            mask |= 1 << x
    return ElementSet(t.lattice, mask)


def _preserves(t: TNormTable, axiom: str, op: str, unit: int, skip: int = -1) -> Verdict:
    """First place where a row of ``t`` fails to preserve the lattice's ``op``.

    Checks T(a, x op y) = T(a, x) op T(a, y) for all a and all element ids
    x <= y, in that order, leaving out pairs with x op y = ``skip``; ``op``
    names the operation, "join" or "meet". The binary form suffices:
    general finite families follow by induction. The empty family, whose
    op is ``unit``, is checked first as T(a, unit) = a ∧ unit, which reads
    T(a, 0) = 0 for joins and the neutral axiom for meets.

    Most pairs cannot fail. A diagonal pair never does, and when every row
    is monotone (T(a, x) <= T(a, y) whenever x <= y) neither does a pair
    with x and y comparable: x op y is then one of x and y, and so is
    T(a, x) op T(a, y), the same one. So after the empty family comes a
    gate: the table's columns are compared across every cover, once per
    table (the result is kept on it). A monotone table is scanned over the
    lattice's planned pairs only, the incomparable x < y whose op is not
    ``skip`` (:meth:`FiniteLattice.incomparable_pairs`, built once per
    lattice); any other table over every x <= y. Both domains keep the
    (a, x, y) order and leave out only pairs that hold, so the witness is
    the first violation of the full scan in either case.

    With ``skip`` = top (left-semicontinuity) on a table whose row classes
    ``verify_tnorm`` has stored, the a-loop runs over the first row of each
    class only. No scanned pair reads column top then: x op y is not top,
    and x and y lie below it. So rows that agree off column top give
    identical checks, and a row left out has a twin earlier in element
    order that was checked already. The top row is left out too;
    neutrality, which holds whenever the classes are stored, makes it the
    identity, which preserves every join. The other two scans keep every
    row: left-continuity reads column top wherever x ∨ y = top.
    """
    lat = t.lattice
    tbl = t.table
    n = lat.n
    meet = lat.meet_table
    for a in range(n):
        if tbl[a][unit] != meet[a][unit]:
            return Verdict(False, f"{axiom}(empty)", (lat.name(a), lat.name(unit)))
    monotone = t._monotone
    if monotone is None:
        comparable = lat.comparable_pairs()
        cols = tuple(zip(*tbl))
        monotone = t._monotone = all(comparable.issuperset(zip(cols[lo], cols[hi])) for lo, hi in lat.covers)
    if monotone:
        pairs = lat.incomparable_pairs(op, skip)
    else:
        pairs = [(x, range(x, n)) for x in range(n)]
    table = lat.join_table if op == "join" else meet
    rows = t._row_classes
    if rows is None or skip != lat.top:
        rows = range(n)
    for a in rows:
        row = tbl[a]
        for x, ys in pairs:
            opx = table[x]
            oprx = table[row[x]]
            for y in ys:
                j = opx[y]
                if j != skip and row[j] != oprx[row[y]]:
                    return Verdict(False, axiom, (lat.name(a), lat.name(x), lat.name(y)))
    return OK


def is_left_continuous(t: TNormTable) -> Verdict:
    """Join preservation in each argument over arbitrary finite families."""
    lat = t.lattice
    return _preserves(t, "left-continuity", "join", lat.bottom)


def is_right_continuous(t: TNormTable) -> Verdict:
    """Meet preservation in each argument; the empty family is the neutral axiom."""
    lat = t.lattice
    return _preserves(t, "right-continuity", "meet", lat.top)


def is_continuous(t: TNormTable) -> Verdict:
    left = is_left_continuous(t)
    if not left.ok:
        return left
    return is_right_continuous(t)


def is_left_semicontinuous(t: TNormTable) -> Verdict:
    """Join preservation restricted to families whose join stays below top.

    Binary reduction is sound here because every partial join of such a
    family also stays below top.
    """
    lat = t.lattice
    return _preserves(t, "left-semicontinuity", "join", lat.bottom, skip=lat.top)


def restrict(t: TNormTable, members: ElementSet) -> TNormTable:
    """Restrict the table to a sub-poset containing the top element.

    Requires the member set to be closed under the table; the result is a
    table over the induced sublattice (elements keep their names and
    relative order). A closed restriction of a t-norm is again a t-norm.
    """
    lat = t.lattice
    if members.lattice is not lat:
        raise LatticeMismatch("restriction set belongs to a different lattice")
    if lat.top not in members:
        raise TopMissing("restriction set must contain the top element")
    ids = list(members)
    for x in ids:
        for y in ids:
            v = t.table[x][y]
            if v not in members:
                raise NotClosed(lat.name(x), lat.name(y), lat.name(v))
    sub = induced_sublattice(lat, members)
    pos = {e: i for i, e in enumerate(ids)}
    table = [[pos[t.table[x][y]] for y in ids] for x in ids]
    return TNormTable(sub, table)


def table_to_csv(t: TNormTable) -> str:
    """Cayley table as CSV: header row/column of element names in file order."""
    lat = t.lattice
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(lat.names))
    for x in range(lat.n):
        writer.writerow([lat.names[x]] + [lat.names[v] for v in t.table[x]])
    return buf.getvalue()


def table_from_csv(lat: FiniteLattice, text: str) -> TNormTable:
    """Parse a Cayley-table CSV against a known lattice.

    The header may list the elements in any order, but must cover exactly
    the lattice's elements; row labels must match the header.
    """
    rows = [row for row in csv.reader(io.StringIO(text)) if row]
    if not rows:
        raise ValueError("empty table")
    header = rows[0][1:]
    if sorted(header) != sorted(lat.names):
        raise UnknownLabel(f"header {header!r} does not match the lattice elements")
    if len(rows) != lat.n + 1:
        raise ValueError(f"expected {lat.n} data rows, found {len(rows) - 1}")
    n = lat.n
    table = [[0] * n for _ in range(n)]
    seen = set()
    for row in rows[1:]:
        if len(row) != n + 1:
            raise ValueError(f"malformed row {row!r}")
        x = lat.index(row[0])
        if x in seen:
            raise ValueError(f"row {row[0]!r} appears twice")
        seen.add(x)
        for col, cell in zip(header, row[1:]):
            table[x][lat.index(col)] = lat.index(cell)
    return TNormTable(lat, table)
