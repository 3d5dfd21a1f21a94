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
from functools import reduce
from itertools import chain
from operator import itemgetter, or_

from .errors import LatticeMismatch, NotClosed, TopMissing, UnknownLabel
from .lattice import ElementSet, FiniteLattice, induced_sublattice, iter_bits


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
    """

    __slots__ = ("lattice", "table", "verdict")

    def __init__(self, lattice: FiniteLattice, table, verdict: Verdict | None = None):
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
        self.verdict = verdict

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
        comparable = {(a, b) for a in range(n) for b in iter_bits(lat.ups[a])}
        for lo, hi in lat.covers:
            if not comparable.issuperset(zip(tbl[lo], tbl[hi])):
                x = next(x for x, pair in enumerate(zip(tbl[lo], tbl[hi])) if pair not in comparable)
                verdict = Verdict(False, "monotonicity", (lat.name(x), lat.name(lo), lat.name(hi)))
                break
    # a 1x1 table is associative, and itemgetter of one index returns a
    # bare value rather than a row
    if verdict.ok and n > 1:
        gathers = [itemgetter(*row) for row in tbl]
        for x in range(n):
            rx = tbl[x]
            for y in range(n):
                lhs, rhs = tbl[rx[y]], gathers[y](rx)
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


class FamilyOrder:
    """The pointwise order of a family of tables, computed once as bitmasks.

    Tables are deduplicated by their rows: ``members`` holds the distinct
    ones in first-seen order and ``index[p]`` is the member id of the p-th
    input table. Bit j of ``ups[i]`` (``downs[i]``) is set when member i
    lies below (above) member j.

    The order is read from the cells of the tables themselves, never
    assumed from how the tables were made. Each member is cut into value
    planes: plane v has bit c set when cell c (row-major) holds v, and its
    at-least plane for v is the OR of the value planes of the elements
    above v. Member i lies below member j exactly when, for every v, the
    value plane v of i lies inside the at-least plane v of j: one big-int
    AND per value instead of one test per cell. ``tnorm_le`` is the same
    order for a single pair, cell by cell.
    """

    __slots__ = ("members", "index", "ups", "downs")

    def __init__(self, tables):
        ids: dict = {}
        members: list[TNormTable] = []
        index = []
        for t in tables:
            i = ids.get(t.table)
            if i is None:
                i = ids[t.table] = len(members)
                members.append(t)
            index.append(i)
        if any(t.lattice is not members[0].lattice for t in members):
            raise LatticeMismatch("tables live on different lattices")
        planes = []
        not_above = []
        for t in members:
            lat = t.lattice
            by_value = [0] * lat.n
            bit = 1
            for v in chain.from_iterable(t.table):
                by_value[v] |= bit
                bit <<= 1
            planes.append([(v, p) for v, p in enumerate(by_value) if p])
            # the complements of the at-least planes: cells holding an
            # element that is not above v
            cells = bit - 1
            not_above.append([cells ^ reduce(or_, map(by_value.__getitem__, iter_bits(up))) for up in lat.ups])
        ups = [1 << i for i in range(len(members))]
        downs = ups[:]
        for i, pi in enumerate(planes):
            for j, nj in enumerate(not_above):
                if i == j:
                    continue
                for v, p in pi:
                    if p & nj[v]:
                        break
                else:
                    ups[i] |= 1 << j
                    downs[j] |= 1 << i
        self.members = members
        self.index = index
        self.ups = ups
        self.downs = downs

    def le(self, i: int, j: int) -> bool:
        return bool(self.ups[i] >> j & 1)

    def lub(self, i: int, j: int) -> int | None:
        """The least member above both, or None when there is none."""
        return self._extreme(self.ups[i] & self.ups[j], self.ups)

    def glb(self, i: int, j: int) -> int | None:
        """The greatest member below both, or None when there is none."""
        return self._extreme(self.downs[i] & self.downs[j], self.downs)

    @staticmethod
    def _extreme(bounds: int, cones: list[int]) -> int | None:
        # the bound whose own cone holds every other bound; antisymmetry
        # of the pointwise order makes it unique when it exists
        for m in iter_bits(bounds):
            if cones[m] & bounds == bounds:
                return m
        return None


def idempotents(t: TNormTable) -> ElementSet:
    """Elements fixed on the diagonal."""
    mask = 0
    for x in range(t.lattice.n):
        if t.table[x][x] == x:
            mask |= 1 << x
    return ElementSet(t.lattice, mask)


def _preserves(t: TNormTable, axiom: str, op, unit: int, skip: int = -1) -> Verdict:
    """First place where a row of ``t`` fails to preserve the operation ``op``.

    Checks T(a, x op y) = T(a, x) op T(a, y) for all a and all element ids
    x <= y, in that order, leaving out pairs with x op y = ``skip``. The binary form
    suffices: general finite families follow by induction. The empty
    family, whose op is ``unit``, is checked first as T(a, unit) = a ∧ unit,
    which reads T(a, 0) = 0 for joins and the neutral axiom for meets.
    """
    lat = t.lattice
    tbl = t.table
    n = lat.n
    meet = lat.meet_table
    for a in range(n):
        if tbl[a][unit] != meet[a][unit]:
            return Verdict(False, f"{axiom}(empty)", (lat.name(a), lat.name(unit)))
    for a in range(n):
        row = tbl[a]
        for x in range(n):
            rx = row[x]
            opx = op[x]
            for y in range(x, n):
                j = opx[y]
                if j != skip and row[j] != op[rx][row[y]]:
                    return Verdict(False, axiom, (lat.name(a), lat.name(x), lat.name(y)))
    return OK


def is_left_continuous(t: TNormTable) -> Verdict:
    """Join preservation in each argument over arbitrary finite families."""
    lat = t.lattice
    return _preserves(t, "left-continuity", lat.join_table, lat.bottom)


def is_right_continuous(t: TNormTable) -> Verdict:
    """Meet preservation in each argument; the empty family is the neutral axiom."""
    lat = t.lattice
    return _preserves(t, "right-continuity", lat.meet_table, lat.top)


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
    return _preserves(t, "left-semicontinuity", lat.join_table, lat.bottom, skip=lat.top)


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
