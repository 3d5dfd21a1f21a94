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
from functools import cached_property
from itertools import chain, compress
from operator import itemgetter, ne
from typing import Callable, Iterator

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

    ``_generator_rows`` lists, in element order, the class rows of a
    generating set of the table without top (see :func:`verify_tnorm`);
    it is set only once the table has verified as a t-norm, and None
    means unknown. It is the one fact about a table, beyond its cells,
    that a continuity scan reads (see :func:`_preserves`). It is not part
    of ``==`` or ``hash``.
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
        self._fill(lattice, rows)

    def _fill(self, lattice: FiniteLattice, rows: tuple) -> None:
        self.lattice = lattice
        self.table = rows
        self._generator_rows = None

    @classmethod
    def _of_rows(cls, lattice: FiniteLattice, rows: tuple) -> TNormTable:
        """The table of ``rows``, unchecked: the caller guarantees a tuple
        of ``lattice.n`` tuples of ``lattice.n`` element ids each."""
        t = cls.__new__(cls)
        t._fill(lattice, rows)
        return t

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


class _Scan:
    """The pair listings of one continuity scan on one lattice, op "join"
    or "meet", leaving out pairs whose op is ``skip``; each listing holds
    one ``(x, ((y, x op y), ...))`` per x with a kept y, by ascending x
    and y.

    A scan is described by its masks and its irreducibles: up-sets and
    ``ji_mask`` for joins, down-sets and ``mi_mask`` for meets. Then
    x op y is the element whose mask is the AND of the masks of x and y:
    w = x ∨ y exactly when ↑w = ↑x ∩ ↑y, and w = x ∧ y exactly when
    ↓w = ↓x ∩ ↓y. Likewise the op of the empty family, bottom for joins
    and top for meets, is the element whose mask is full. So no op table
    is read, and nothing below depends on the op.

    ``plan`` is built with the scan: the incomparable pairs x < y with an
    op-irreducible end. The y incomparable to x and above it in element
    order are the bits of ``full_mask & ~(ups[x] | downs[x])`` above bit
    x; when x is reducible only the irreducible ones are kept. The covers
    (lo, hi) are listed on first use (:meth:`covers`), and so is each row
    of the rescan listing, every x < y (:meth:`rescan`): only unverified
    tables read the first, only failing rows the second, and one lattice
    often has many tables scanned. Why these listings decide each scan
    is in :func:`_preserves`.
    """

    def __init__(self, lat: FiniteLattice, op: str, skip: int):
        self.masks, irreducible = (lat.ups, lat.ji_mask) if op == "join" else (lat.downs, lat.mi_mask)
        self.element = dict(zip(self.masks, range(lat.n)))
        self.skip = skip
        self.lattice_covers = lat.covers
        self.rows: dict = {}
        plan = []
        for x in range(lat.n):
            ys = lat.full_mask & ~(lat.ups[x] | lat.downs[x]) & -(2 << x)
            pairs = self.pairs(x, ys if irreducible >> x & 1 else ys & irreducible)
            if pairs:
                plan.append((x, pairs))
        self.plan = tuple(plan)

    def pairs(self, x: int, ys: int) -> tuple[tuple[int, int], ...]:
        """``(y, x op y)`` for each y in the mask ``ys`` whose x op y is
        not ``skip``, ascending."""
        masks, element, skip = self.masks, self.element, self.skip
        mx = masks[x]
        return tuple((y, xy) for y in iter_bits(ys) if (xy := element[mx & masks[y]]) != skip)

    @cached_property
    def covers(self) -> tuple:
        """The covers (lo, hi) whose op is not ``skip``."""
        above = [0] * len(self.masks)
        for lo, hi in self.lattice_covers:
            above[lo] |= 1 << hi
        return tuple((lo, pairs) for lo, his in enumerate(above) if (pairs := self.pairs(lo, his)))

    def rescan(self) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
        """Yield each x with every y > x whose op is not ``skip``."""
        n = len(self.masks)
        for x in range(n):
            if x not in self.rows:
                self.rows[x] = self.pairs(x, ((1 << n) - 1) & -(2 << x))
            yield x, self.rows[x]


def _scan(lat: FiniteLattice, op: str, skip: int) -> _Scan:
    """The memoised :class:`_Scan` of ``lat`` for ``op`` and ``skip``."""
    key = ("scan", op, skip)
    if key not in lat._memo:
        lat._memo[key] = _Scan(lat, op, skip)
    return lat._memo[key]


def _preserves(t: TNormTable, axiom: str, op: str, skip: int) -> Verdict:
    """First place where a row of ``t`` fails to preserve the lattice's ``op``.

    Checks T(a, x op y) = T(a, x) op T(a, y) for all a and all element ids
    x <= y, in that order, leaving out pairs with x op y = ``skip``; ``op``
    names the operation, "join" or "meet". The binary form suffices:
    general finite families follow by induction. The empty family, whose
    op u is the element whose mask is full (the empty AND, see
    :class:`_Scan`), bottom for joins and top for meets, is checked first
    as T(a, u) = a ∧ u, which reads T(a, 0) = 0 for joins and the
    neutral axiom for meets.

    A diagonal pair never fails: T(a, x op x) = T(a, x) = T(a, x) op
    T(a, x). So the full scan runs over every x < y whose op is not
    ``skip``, and its first violation is the witness. Every shortcut
    below keeps that witness.

    The rows are scanned one after the other over the scan's plan, the
    incomparable pairs with an op-irreducible end (:class:`_Scan`). On a
    table not known to be a t-norm (``t._generator_rows`` unset) the plan
    also holds the covers (lo, hi) whose op is not ``skip``. The op of a
    cover is hi for joins and lo for meets, so either op reads it as
    T(a, lo) <= T(a, hi). One kernel, :func:`_preservation_failure`,
    scans every listing and every set of rows by comparing masks.

    A row passes this plan exactly when it passes every pair. Passing
    every pair, it passes the covers and the plan, which are among them.
    Conversely, a row that passes the covers is monotone, T(a, x) <=
    T(a, y) whenever x <= y, by transitivity along a chain of covers from
    x to y. When ``skip`` is top the covers into top are left out, and
    the row is monotone below top: every cover on a chain up to y < top
    lies below top. A verified table is monotone. A comparable pair
    x <= y with x op y != ``skip`` then holds: x op y is one of x and y,
    and so is T(a, x) op T(a, y), the same one; for joins below top, y
    itself is below top. Now take joins; meets are dual. Let the row pass
    the plan, and let x ∨ y != ``skip``. Write y = j1 ∨ ... ∨ jk with
    every ji join-irreducible (k = 0 for y = bottom, where x ∨ y = x is
    comparable to y). Each step s ∨ ji from a partial join s = x ∨ j1 ∨
    ... ∨ j(i-1), or s = j1 ∨ ... ∨ j(i-1), is at most x ∨ y, so it is
    below top whenever x ∨ y is, and it is a planned pair, a diagonal
    pair or a comparable pair below x ∨ y, which holds. By induction
    T(a, x ∨ y) = T(a, x) ∨ T(a, j1) ∨ ... ∨ T(a, jk) and T(a, y) =
    T(a, j1) ∨ ... ∨ T(a, jk), so the pair holds. So the first failing
    row is the same on the plan and on every pair, and that row alone is
    scanned again over every x < y whose op is not ``skip``
    (:meth:`_Scan.rescan`), up to its first failure, to name the witness.

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
    scan = _scan(lat, op, skip)
    unit = scan.element[lat.full_mask]
    for a in range(n):
        if tbl[a][unit] != meet[a][unit]:
            return Verdict(False, f"{axiom}(empty)", (lat.name(a), lat.name(unit)))
    gens = t._generator_rows
    pairs = scan.plan
    if gens is None:
        pairs = scan.covers + pairs
    elif skip == lat.top and _preservation_failure(tbl, gens, pairs, scan.masks) is None:
        return OK
    failure = _preservation_failure(tbl, range(n), pairs, scan.masks)
    if failure is None:
        return OK
    a, x, y = _preservation_failure(tbl, failure[:1], scan.rescan(), scan.masks)
    return Verdict(False, axiom, (lat.name(a), lat.name(x), lat.name(y)))


def _preservation_failure(tbl: tuple, rows, pairs, masks: tuple) -> tuple[int, int, int] | None:
    """The first (a, x, y) with T(a, x op y) != T(a, x) op T(a, y), a in
    ``rows``, then (x, ys) in ``pairs``, then (y, x op y) in ys; None if
    there is none.

    ``masks`` are the scan's masks, up-sets for joins and down-sets for
    meets, which decide each op (:class:`_Scan`), so no op table is read.
    """
    for a in rows:
        row = tbl[a]
        for x, ys in pairs:
            mx = masks[row[x]]
            for y, xy in ys:
                if masks[row[xy]] != mx & masks[row[y]]:
                    return a, x, y
    return None


def is_left_continuous(t: TNormTable) -> Verdict:
    """Join preservation in each argument over arbitrary finite families."""
    return _preserves(t, "left-continuity", "join", -1)


def is_right_continuous(t: TNormTable) -> Verdict:
    """Meet preservation in each argument; the empty family is the neutral axiom."""
    return _preserves(t, "right-continuity", "meet", -1)


def is_continuous(t: TNormTable) -> Verdict:
    """Left and right continuity, the left verdict first."""
    left = is_left_continuous(t)
    return is_right_continuous(t) if left.ok else left


def is_left_semicontinuous(t: TNormTable) -> Verdict:
    """Join preservation restricted to families whose join stays below top.

    Binary reduction is sound here because every partial join of such a
    family also stays below top.
    """
    return _preserves(t, "left-semicontinuity", "join", t.lattice.top)


def continuity_classifier(lat: FiniteLattice) -> Callable[[tuple], int]:
    """A function from a row of a table on ``lat`` to its continuity bits:
    1 left-semicontinuous, 2 left-continuous, 4 right-continuous.

    Contract: on a commutative, monotone table whose bottom row is
    constant and whose top row is the identity, the AND of the bits of
    its rows, or of its middle rows alone, gives the verdicts of
    :func:`is_left_semicontinuous`, :func:`is_left_continuous` and
    :func:`is_right_continuous`; on any other table it is unspecified.
    A row's bits depend on that row alone, so a search may classify each
    row once it is complete (``enumerate_all_tnorms(..., classify=)``).
    Each distinct row is classified once, by :func:`_preservation_failure`
    on each scan's plan; the memo of rows lives as long as the returned
    function.

    - Each scan first checks the empty family, T(a, 0) = 0 for joins and
      T(a, 1) = a for meets. By commutativity T(0, 1) = T(1, 0) = 0, so
      row bottom and column bottom are all bottom, and column top is row
      top, the identity. So both hold.
    - Each scan then runs its plan over the rows one after the other, an
      unverified table's rows also over the cover pairs. The table's rows
      are monotone, so they pass the cover pairs, and a monotone row
      passes the plan exactly when it passes every pair (the proof is in
      :func:`_preserves`). So the verdict on a row depends on that row
      alone, and the table passes exactly when each row does. A failing
      row's witness is not needed here, so neither is the rescan that
      names it.
    - Row bottom is constant and row top is the identity, so both
      preserve every join and meet: their bits are 7, and the AND over
      the middle rows is the AND over all rows.
    """
    scans = [(bit, _scan(lat, op, skip)) for bit, op, skip in ((1, "join", lat.top), (2, "join", -1), (4, "meet", -1))]
    memo: dict = {}

    def classify(row: tuple) -> int:
        hit = memo.get(row)
        if hit is None:
            hit = memo[row] = sum(
                bit for bit, scan in scans if _preservation_failure((row,), (0,), scan.plan, scan.masks) is None
            )
        return hit

    return classify


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
