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
from itertools import chain, compress
from operator import itemgetter, ne

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

    ``_generator_rows`` lists, in element order, the class rows of a
    generating set of the table without top (see :func:`verify_tnorm`);
    it is set only once the table has verified as a t-norm, and None
    means unknown. It is not part of ``==`` or ``hash``.
    """

    __slots__ = ("lattice", "table", "_generator_rows")

    def __init__(self, lattice: FiniteLattice, table):
        n = lattice.n
        rows = tuple(map(tuple, table))
        if len(rows) != n or set(map(len, rows)) != {n}:
            raise ValueError(f"table must be {n}x{n}")
        ids = lattice._memo.get("ids")
        if ids is None:
            ids = lattice._memo["ids"] = frozenset(range(n))
        if not ids.issuperset(chain.from_iterable(rows)):
            bad = next(v for v in chain.from_iterable(rows) if v not in ids)
            raise ValueError(f"table entry {bad} is not an element id")
        self.lattice = lattice
        self.table = rows
        self._generator_rows = None

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
    monotonicity, associativity; the last two compare rows at once.

    - Monotonicity is only checked across cover pairs; transitivity of the
      order carries it to all comparable pairs (cross-checked in the tests
      against the all-pairs formulation). Commutativity holds by then, so
      column ``lo`` is row ``lo``, and a cover (lo, hi) holds when every
      cell pair of rows ``lo`` and ``hi`` is a comparable pair.
    - Associativity compares, for each (x, y), the row of T(x, y) with row
      x gathered through row y: they are T(T(x, y), z) and T(x, T(y, z))
      for every z at once.

    Both sweeps read class columns. Once neutrality and commutativity
    hold, the rows x != top are grouped by their values off column top,
    and the first row of each class in element order is kept. Every row v is then read once at those columns
    and at top, as ``proj[v]``, and the sweeps compare these projections.

    - A cover (lo, hi) with hi != top compares the projections of rows lo
      and hi. When rows x and x' agree off column top, with x, x' != top,
      then T(lo, x) = T(x, lo) = T(x', lo) = T(lo, x') since lo != top,
      and likewise T(hi, x) = T(hi, x'). Column top holds the cover
      itself. A cover into top keeps its whole row: row top is the
      identity, and x and x' differ there.
    - Such a cover is checked once per pair of row classes. At the class
      columns, which are not top, ``proj[lo]`` and ``proj[hi]`` equal the
      projections of the first rows of their classes, by the argument
      above; at column top they read (lo, hi), a comparable pair. So the
      outcome depends only on the ordered pair of classes. A cover whose
      rows share a class compares equal cells and holds; one whose pair
      has held before holds again. Both are skipped; the sweep stops at
      its first failure, so every pair it records has held, and the first
      failing cover in cover order is still the one it meets.
    - Associativity, x and y. A triple with top in it holds by
      neutrality. For y, z != top, T(y, z) <= T(y, top) = y < top, so
      when rows x and x' agree off column top the checks at (x, y, z) and
      (x', y, z) read equal cells; by commutativity the same holds for y
      and a y' whose row agrees with y's. So the first failing (x, y) of
      the plain sweep has both x and y first in their classes, and the
      sweep over those meets it first.
    - Associativity, z. For x, y != top, T(x, y) <= T(x, top) = x < top.
      So when rows z and z' agree off column top, with z, z' != top,
      T(T(x, y), z) = T(z, T(x, y)) = T(z', T(x, y)) = T(T(x, y), z'),
      and T(y, z) = T(z, y) = T(z', y) = T(y, z'), so T(x, T(y, z)) =
      T(x, T(y, z')). At z = top both sides are T(x, y). So (x, y) fails
      at some z exactly when it fails at a class column: comparing
      ``proj[T(x, y)]`` with row x gathered through ``proj[y]`` decides
      it, and only a failing (x, y) is read again in whole rows to name
      its first z.

    Associativity needs even less: Light's test. If (x g) z = x (g z) for
    all x, z and every g of a set G that generates the table, the table
    is associative; the g for which it holds are closed under T, since
    for such g and h, (x (g h)) z = ((x g) h) z = (x g)(h z) =
    x (g (h z)) = x ((g h) z). Here G is found from the order. With the
    first three axioms, T(a, b) <= a ∧ b, so an element v = T(a, b) with
    a != v and b != v is made from two strictly larger elements; the
    elements made in no such way generate every element, by induction
    down from top, which is always among them and, by neutrality, can be
    left out as g. One pass over the class rows marks the made elements;
    a cell missed in a twin row only leaves G larger, which is still
    exact. The middle argument then runs over the class rows of G
    (``t._generator_rows``, stored once the table verifies), x over every
    class row and z over the class columns, which decide each (x, g) as
    above since g != top. When that sweep fails, the plain
    class sweep runs again, so the witness is still its first violation.

    A failed row is rescanned cell by cell in the order of the plain sweep
    (cover, then x; x, then y, then z), so the witness is the first
    violation that sweep meets, not merely one in the failed row.
    """
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
    if verdict.ok and tuple(zip(*tbl)) != tbl:
        x, y = next((x, y) for x in range(n) for y in range(x + 1, n) if tbl[x][y] != tbl[y][x])
        verdict = Verdict(False, "commutativity", (lat.name(x), lat.name(y)))
    if verdict.ok:
        firsts: dict = {}
        # the first row of each element's class; top is its own
        rep = [x if x == top else firsts.setdefault(row[:top] + row[top + 1 :], x) for x, row in enumerate(tbl)]
        reps = tuple(firsts.values())
        comparable = lat.comparable_pairs()
        # two or more elements whenever there is a cover, so pick returns a tuple
        pick = itemgetter(*reps, top)
        proj = [pick(row) for row in tbl]
        passed: set = set()  # class pairs of covers below top that held
        for lo, hi in lat.covers:
            if hi == top:
                cells = zip(tbl[lo], tbl[hi])
            else:
                classes = (rep[lo], rep[hi])
                if classes[0] == classes[1] or classes in passed:
                    continue
                passed.add(classes)
                cells = zip(proj[lo], proj[hi])
            if not comparable.issuperset(cells):
                x = next(x for x, pair in enumerate(zip(tbl[lo], tbl[hi])) if pair not in comparable)
                verdict = Verdict(False, "monotonicity", (lat.name(x), lat.name(lo), lat.name(hi)))
                break
    if verdict.ok:
        made: set = set()
        for a in reps:
            row = tbl[a]
            # the values T(a, b) other than a and b
            made |= set(compress(row, map(ne, row, range(n)))) - {a}
        generators = tuple(sorted({rep[g] for g in range(n) if g != top and g not in made}))
        if _associativity_failure(tbl, proj, reps, generators) is None:
            t._generator_rows = generators
        else:
            # Light's test is exact, so the plain class sweep fails too
            x, y, z = _associativity_failure(tbl, proj, reps, reps)
            verdict = Verdict(False, "associativity", (lat.name(x), lat.name(y), lat.name(z)))
    return verdict


def _associativity_failure(tbl: tuple, proj: list, xs: tuple, ys: tuple) -> tuple[int, int, int] | None:
    """The first (x, y, z) with T(T(x, y), z) != T(x, T(y, z)), x in ``xs``,
    then y in ``ys``, then z over the whole row; None if there is none.

    ``proj[v]`` is row v read at the class columns and top, which decide
    each (x, y) (see :func:`verify_tnorm`): (x, y) holds exactly when
    ``proj[w]``, w = T(x, y), equals row x gathered through ``proj[y]``.
    A failing (x, y) is read again in whole rows to name its first z.
    The table must be commutative.

    Row y's compare can run on value blocks. Let D_y be the distinct
    values of ``proj[y]``, and let the block of d in D_y be the columns
    where ``proj[y]`` holds d. The gathered row reads x's cell at d, that
    is T(x, d), at every column of d's block. So the compare holds
    exactly when ``proj[w]`` is constant on every block and its value on
    d's block is T(x, d):

    - if the compare holds, then at each column c of d's block
      ``proj[w]`` reads T(x, d), the same for every such c;
    - if ``proj[w]`` reads T(x, d) throughout each block of d, it reads
      at c the gathered cell T(x, proj[y][c]).

    So for each w, the values of ``proj[w]`` at the first column of each
    block are the expected tuple when it is constant on the blocks, and
    "never" (None) otherwise, and each (x, y) gathers x's row at D_y
    alone, |D_y| cells instead of the whole projection. Every verdict is
    the same, so the first failing (x, y) and its rescan are too. The
    expected values are built for each w the sweep meets, T(x, y) for x
    in ``xs``, and no other: each one reads all of ``proj[w]``, and on
    large tables few rows are met from one y.

    The compare on the whole projection is the trivial partition, one
    column per block, with ``proj`` itself as the expected values; both
    run in one loop. Blocks pay only when their set-up costs less than
    they save over ``xs``, so y uses them when 4 |D_y| <= len(xs).
    D_y holds T(y, top) = y and T(y, b) = bottom for the class b of
    bottom, so |D_y| >= 2 unless y is bottom, and below 8 rows of ``xs``
    no D_y is built. Measured on the sweeps of the generator rows (best
    of 9, py3.11): over the 451 tables of a seeded ``check`` pass, all at
    most 8 elements, 0.62 ms whole, 1.11 ms with blocks on the 160 rows
    of 4 to 7 ``xs`` that qualify (all bottom), 3.5 ms with blocks on
    every row; over the five lifts of a seeded ``lift`` pass, 13.3 ms
    whole against 5.2 ms with blocks on 162 of 189 rows (5.4 ms at
    2 |D_y|, 6.6 ms at 8 |D_y|, 5.6 ms on every row).
    """
    blocks = len(xs) >= 8
    plans = []
    for y in ys:
        py = proj[y]
        values = tuple(dict.fromkeys(py)) if blocks else ()
        if blocks and 4 * len(values) <= len(xs):
            slot = dict(zip(values, range(len(values))))
            spread = itemgetter(*map(slot.__getitem__, py))
            starts = tuple(map(py.index, values))
            # padded with a repeated item, so one block still gathers a tuple
            head = itemgetter(*starts, starts[0])
            expected = {}
            # the w = T(x, y) = T(y, x) met, read off row y
            for w in set(map(tbl[y].__getitem__, xs)):
                e = head(proj[w])
                expected[w] = e if spread(e) == proj[w] else None
            plans.append((y, itemgetter(*values, values[0]), expected))
        else:
            # projections have two or more cells, so the gather returns a tuple
            plans.append((y, itemgetter(*py), proj))
    for x in xs:
        rx = tbl[x]
        for y, gather, expected in plans:
            if expected[rx[y]] != gather(rx):
                lhs, rhs = tbl[rx[y]], itemgetter(*tbl[y])(rx)
                return x, y, next(z for z, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    return None


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
    cells = zip(chain.from_iterable(t1.table), chain.from_iterable(t2.table))
    return t1.lattice.comparable_pairs().issuperset(cells)


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

    A diagonal pair never fails: T(a, x op x) = T(a, x) = T(a, x) op
    T(a, x). So the full scan runs over every x < y whose op is not
    ``skip`` (:func:`_every_pair`), and its first violation is the
    witness. Every shortcut below keeps that witness.

    When every row is monotone (T(a, x) <= T(a, y) whenever x <= y), no
    comparable pair fails either: x op y is then one of x and y, and so is
    T(a, x) op T(a, y), the same one. So after the empty family comes a
    gate: a table that has verified as a t-norm (``t._generator_rows`` is
    set) is monotone, and any other has its columns compared across every
    cover. A table that fails the gate is scanned over every x < y,
    listed per call. A monotone one is scanned over one plan per lattice,
    the incomparable pairs with an op-irreducible end
    (:meth:`FiniteLattice.irreducible_end_pairs`). One kernel,
    :func:`_preservation_failure`, scans every domain and every set of
    rows.

    A monotone row passes the plan exactly when it passes every pair.
    Take joins; meets are dual. Let row a preserve the joins of the kept
    pairs, and let x ∨ y != ``skip``. Write y = j1 ∨ ... ∨ jk with every
    ji join-irreducible (k = 0 for y = bottom, where x ∨ y = x is
    comparable to y). Each step s ∨ ji from a partial join s = x ∨ j1 ∨
    ... ∨ j(i-1), or s = j1 ∨ ... ∨ j(i-1), is at most x ∨ y, so it is
    below top whenever x ∨ y is, and it is a kept pair, a diagonal pair
    or a comparable pair, which holds by monotonicity. By induction
    T(a, x ∨ y) = T(a, x) ∨ T(a, j1) ∨ ... ∨ T(a, jk) and T(a, y) =
    T(a, j1) ∨ ... ∨ T(a, jk), so the pair holds. So the first failing
    row is the same on the plan and on every pair, and that row alone is
    scanned again over every x < y, produced lazily up to its first
    failure, to name the witness. On a table that failed the gate the
    rescan meets the failure the full scan found.

    On a table that has verified as a t-norm, left-semicontinuity first
    scans its generator rows alone (``t._generator_rows``, see
    :func:`verify_tnorm`), and if they pass, so does every row. The rows
    that preserve every join below top are closed under T: if rows a1 and
    a2 do, and x ∨ y < top, then T(a2, x) ∨ T(a2, y) <= x ∨ y < top, so
    T(a1, T(a2, ·)) preserves the join of x and y too, and by
    associativity that composed row is row T(a1, a2). Row top is the
    identity, every element is a product of generators, and a generator's
    class row stands for it. No scanned pair reads column top: x ∨ y is
    not top, and x and y lie below it. So rows that agree off column top
    give identical checks. When a generator row fails, every row is
    scanned as before, so the witness does not change.
    """
    lat = t.lattice
    tbl = t.table
    n = lat.n
    meet = lat.meet_table
    for a in range(n):
        if tbl[a][unit] != meet[a][unit]:
            return Verdict(False, f"{axiom}(empty)", (lat.name(a), lat.name(unit)))
    gens = t._generator_rows
    monotone = gens is not None
    if not monotone:
        comparable = lat.comparable_pairs()
        cols = tuple(zip(*tbl))
        monotone = all(comparable.issuperset(zip(cols[lo], cols[hi])) for lo, hi in lat.covers)
    table = lat.join_table if op == "join" else meet
    pairs = lat.irreducible_end_pairs(op, skip) if monotone else list(_every_pair(table, skip))
    if skip == lat.top and gens is not None and _preservation_failure(tbl, gens, pairs, table) is None:
        return OK
    failure = _preservation_failure(tbl, range(n), pairs, table)
    if failure is None:
        return OK
    a, x, y = _preservation_failure(tbl, failure[:1], _every_pair(table, skip), table)
    return Verdict(False, axiom, (lat.name(a), lat.name(x), lat.name(y)))


def _every_pair(table: tuple, skip: int):
    """Yield each x with the ys > x whose op is not ``skip``, ascending;
    ``table`` is op's table."""
    for x, row in enumerate(table):
        yield x, [y for y in range(x + 1, len(row)) if row[y] != skip]


def _preservation_failure(tbl: tuple, rows, pairs, table: tuple) -> tuple[int, int, int] | None:
    """The first (a, x, y) with T(a, x op y) != T(a, x) op T(a, y), a in
    ``rows``, then (x, ys) in ``pairs``, then y in ys; None if there is
    none. ``table`` is op's table."""
    for a in rows:
        row = tbl[a]
        for x, ys in pairs:
            opx = table[x]
            oprx = table[row[x]]
            for y in ys:
                if row[opx[y]] != oprx[row[y]]:
                    return a, x, y
    return None


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
