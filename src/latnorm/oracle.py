"""Exhaustive enumeration of all t-norms on a small lattice.

This is the ground truth the generation theory is checked against, so it
deliberately shares nothing with the construction pipeline: tables are
found by backtracking over undecided cells straight from the axioms.
Rows and columns of top and bottom are forced, and so is every cell
whose arguments meet at bottom; commutativity halves the rest. The cells
are searched smallest first, so a cell's neighbours below are assigned
before it and those above after it. Monotonicity then makes each cell's
candidates an interval: at least the join of its cover neighbours below,
at most the meet of its arguments. Partial associativity, one comparison
per triple still needed, prunes during the search, and it is complete:
every leaf is a t-norm, and no axiom is checked on it again. That its
cells are element ids is checked once per enumeration, on the values
every leaf is made of, not on each leaf. Every leaf is commutative and
monotone, its bottom row is constant and its top row is the identity, so
the census classifies it by continuity with
:func:`latnorm.tnorm.continuity_classifier`, whose contract asks just
that. It does so inside the search, one row at a time: a row's values
are final once its last free cell is assigned, and they keep them at
every leaf below, so each row is frozen into a tuple and classified
when the search completes it. A leaf's table is the tuple of its frozen
rows, and its bits are the AND of their bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Iterator

from .errors import BoundExceeded, LatnormError
from .lattice import FiniteLattice, iter_bits
from .construction import generated_family, skeleton
from .tnorm import TNormTable, continuity_classifier, is_left_semicontinuous, verify_tnorm

DEFAULT_SIZE_CAP = 8
DEFAULT_COUNT_CAP = 1_000_000
# census streams, keeping one table per class pattern, so its count cap
# bounds only time: it covers every lattice of up to 9 elements (at most
# 14,707,366 t-norms)
CENSUS_COUNT_CAP = 15_000_000

CLASS_NAMES = (
    "left_semicontinuous",
    "left_continuous",
    "right_continuous",
    "continuous",
    "generated",
)


def _check_size(lat: FiniteLattice, size_cap: int) -> None:
    if lat.n > size_cap:
        raise BoundExceeded(f"lattice has {lat.n} elements, oracle size cap is {size_cap}")


def enumerate_all_tnorms(
    lat: FiniteLattice,
    cap: int = DEFAULT_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
    *,
    classify: Callable[[tuple], int] | None = None,
) -> Iterator:
    """Stream every t-norm on the lattice, duplicate-free.

    The free cells (x, y) are searched smallest first: by ascending
    |↓x| + |↓y|, ties broken by ids, so the stream is deterministic.
    Each cell's candidates form an interval: above the join of its
    cover neighbours below, which all come earlier, and below
    ``meet(x, y)``, as every neighbour above comes later; they are tried
    in ascending element order. Raises when the element count exceeds
    ``size_cap`` or more than ``cap`` tables exist.

    With ``classify``, a function from a row (a tuple) to an int, the
    stream yields ``(bits, table)`` per leaf instead, in the same order:
    ``bits`` is the AND of ``classify`` over the leaf's rows, and
    ``table`` is the tuple of row tuples that the plain stream's
    ``TNormTable`` holds.

    Every leaf is a t-norm, so it is yielded without a second check.
    The forced rows give the neutral top and the absorbing bottom,
    assigning each cell on both sides of the diagonal gives
    commutativity, and the intervals give monotonicity. Associativity
    follows from the partial check, one comparison per triple still
    needed, in ``touching``:

    - Forced cells. T(x, y) <= x ∧ y, so a middle cell (x, y) with
      x ∧ y = bottom has the interval [bottom, bottom]. It is set to
      bottom with the forced rows, and it is no free cell. Every cell,
      forced or assigned, lies at or below the meet of its arguments.
    - The order. Let the cell {a, b} lie under {x, y}, with a <= x and
      b <= y after matching, and let the two cells differ. Then one
      inequality is strict, so |↓a| + |↓b| < |↓x| + |↓y|, and the lower
      cell comes first. So every neighbour of a cell below it is assigned
      before it, and every neighbour above it after it.
    - The lower bound. The cover neighbours of (x, y) below are (x', y)
      for each lower cover x' of x and (x, y') for each lower cover y'
      of y; by the order the free ones come first. A neighbour whose
      arguments meet at bottom, (bottom, y) when x is an atom among
      them, is forced to bottom and adds nothing to the join. Let a free
      cell {a, b} lie under {x, y} as above, and say a < x. Then a <= x'
      for some lower cover x' of x, so {a, b} lies under or equals
      (x', y), and x' ∧ y >= a ∧ b is not bottom: (x', y) is free;
      likewise when b < y. Each assigned cell is at least the join of
      its free cover neighbours below, so the assigned cells grow along
      every chain of cover steps, and the join over those neighbours is
      the join over every cell below.
    - A triple with top or bottom in it holds by the forced rows. Fix
      middle elements a, b, c and write ab = T(a, b), bc = T(b, c). The
      triple (a, b, c) states T(ab, c) = T(a, bc) and reads four cells:
      the first-level cells (a, b) and (b, c) and the second-level cells
      (ab, c) and (a, bc). (a, b, a) holds by commutativity: T(ab, a) =
      T(a, ba). The mirror (c, b, a) states the same equation as
      (a, b, c), read on the same cells of the commutative table, so
      only a before c in ``mids`` needs a check.
    - Triples that meet at bottom. T(ab, c) <= ab ∧ c <= a ∧ b ∧ c, and
      likewise T(a, bc) <= a ∧ b ∧ c. So when a ∧ b ∧ c is bottom, both
      sides are bottom and the triple needs no check. In every other
      triple a ∧ b and b ∧ c are not bottom, so both first-level cells
      are free.
    - Second-level cells come early. T(a, b) <= a ∧ b, so (ab, c) lies
      under or equals (b, c), and (a, bc) lies under or equals (a, b).
      As ab < top, a second-level cell is never in the top row; when it
      is forced, it holds its value from the start.
    - So one comparison decides each triple. Let cell k be the later of
      its two first-level cells; ``touching[k]`` holds the triple. When
      cell k is tried, all four cells hold values, so the check compares
      both sides. Cells up to k keep their values while the search goes
      deeper (last item), so a comparison passed on the way to a leaf
      still holds at the leaf.
    - Two of three equations. Take distinct a, b and c, and let
      P = T(T(a, b), c), Q = T(T(b, c), a) and R = T(T(a, c), b). By
      commutativity the triples with middle b, a and c state P = Q,
      P = R and R = Q, and any two of these give the third; the three
      triples share a ∧ b ∧ c, so all three are dropped above or none
      is. Let the latest of the first-level cells {a, b}, {b, c} and
      {a, c} be {u, v}, with u before v in id order, and let w be the
      third element. The equations with middle u and with middle v both
      read {u, v}, so both are checked there. The one with middle w is
      checked at an earlier cell, and its four cells keep their values
      while the search is at {u, v} or deeper. So at {u, v} the equation
      with middle u holds exactly when the one with middle v does, and
      the latter is dropped: every node lets the same values pass, so
      the nodes, the tries and the stream are those of a check of every
      equation.
    - The search is one loop over a stack of candidate iterators, one per
      cell up to the current cell k, in one generator frame. Only cell
      k is ever written: the next value from its iterator, or None when
      the iterator is exhausted. The current cell moves from k to k + 1
      only after a value of cell k passes its triples, and from k back
      to k - 1 only when cell k's iterator is exhausted; there the
      search resumes the iterator of cell k - 1, which it kept. A leaf is
      yielded when the last cell passes, and the search then resumes the
      last cell's iterator. So from the step that leaves cell k upwards
      to the step that returns to it, the current cell stays above k and
      no cell up to k is written: each keeps the value its check passed
      with.
    - Rows are complete at their last free cell. Cell (x, y) writes rows
      x and y. Let cell k be the last free cell in row x, in search
      order, or none. Once cell k has a value that passes, every cell of
      row x holds its value, and by the last item it keeps it at every
      leaf below. So row x is frozen into a tuple once per value of cell
      k, ``classify`` reads that tuple, and every leaf below shares it.
      The AND of the bits of the rows complete at cells up to k, kept per
      depth, is at the last cell the AND over the leaf's rows. The rows
      with no free cell, bottom and top among them, are frozen and read
      once, up front.

    Every cell that is not forced is a free cell, on one side of the
    diagonal or the other, so a leaf's cells are forced values and
    entries of the interval lists. The table is n×n as built, and those
    values are checked once, before the search starts, to be element ids,
    so each leaf is built without ``TNormTable``'s check of every cell. A leaf
    is counted before it is yielded, with or without ``classify``, so
    ``BoundExceeded`` is raised in place of the first table past ``cap``;
    with no free cells, the forced table is the one leaf.
    """
    _check_size(lat, size_cap)
    n = lat.n
    bot, top = lat.bottom, lat.top

    # meet[x][y] is x ∧ y, the element whose down-set is the common
    # down-set; join[x][y] is x ∨ y, its dual on up-sets
    by_downs = dict(zip(lat.downs, range(n)))
    meet = [tuple(map(by_downs.__getitem__, map(d.__and__, lat.downs))) for d in lat.downs]
    by_ups = dict(zip(lat.ups, range(n)))
    join = [tuple(map(by_ups.__getitem__, map(u.__and__, lat.ups))) for u in lat.ups]

    # forced: the top row and column are the identity, and every cell whose
    # arguments meet at bottom, the bottom row and column among them, is
    # bottom
    tbl: list[list[int | None]] = [[bot if m == bot else None for m in row] for row in meet]
    for x in range(n):
        tbl[x][top] = x
        tbl[top][x] = x

    mids = [x for x in range(n) if x not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:] if tbl[x][y] is None]
    cells.sort(key=lambda c: (lat.downs[c[0]].bit_count() + lat.downs[c[1]].bit_count(), c))
    position = {cell: k for k, cell in enumerate(cells)}

    # interval[lo][hi] lists the elements v with lo <= v <= hi, ascending
    interval = [[list(iter_bits(lat.ups[lo] & lat.downs[hi])) for hi in range(n)] for lo in range(n)]

    # Per cell (x, y), its free cover neighbours below, each as a row and a
    # column: (x', y) for each lower cover x' of x and (x, y') for each
    # lower cover y' of y, but for those forced to bottom. Their join is
    # the join over every cell below, as the docstring proves.
    lower = [[lo for lo, hi in lat.covers if hi == x] for x in range(n)]
    below = [
        [(tbl[a], y) for a in lower[x] if meet[a][y] != bot] + [(tbl[x], b) for b in lower[y] if meet[x][b] != bot]
        for x, y in cells
    ]

    # Each triple (a, b, c), a before c, goes to the later of its two
    # first-level cells, but for those that meet at bottom and, of three
    # distinct elements, the one whose middle is the larger end of their
    # latest first-level cell (see the docstring). Each list is then
    # reversed: the order changes only speed, and reversed, a census of
    # the 27 seed-1 perfbench inputs compares 16 % fewer triples.
    touching: list[list[tuple[list, int, list, int]]] = [[] for _ in cells]
    for i, a in enumerate(mids):
        for b in mids:
            ab = meet[a][b]
            if ab == bot:
                continue
            first = position[min(a, b), max(a, b)]
            for c in mids[i + 1 :]:
                if meet[ab][c] == bot:
                    continue
                k = max(first, position[min(b, c), max(b, c)])
                if a != b != c and position[a, c] < k and cells[k][1] == b:
                    continue
                touching[k].append((tbl[a], b, tbl[b], c))
    for triples in touching:
        triples.reverse()

    # Each leaf cell is a forced value or an entry of an interval list, so
    # checking those once stands for TNormTable's check of every leaf.
    values = set(chain.from_iterable(chain.from_iterable(interval)))
    values.update(v for row in tbl for v in row if v is not None)
    bad = values.difference(range(n))
    if bad:
        raise ValueError(f"table entry {min(bad)} is not an element id")

    # per cell: its two rows, its ids, its cover neighbours below, its
    # triples and the meet that bounds its values
    steps = [(tbl[x], tbl[y], x, y, below[k], touching[k], meet[x][y]) for k, (x, y) in enumerate(cells)]
    leaf = TNormTable._of_rows
    too_many = f"more than {cap} t-norms; raise the cap to enumerate them"

    # final[x] is the last free cell in row x, -1 when the row has none;
    # done[k] lists the rows that cell k completes
    final = [-1] * n
    for k, (x, y) in enumerate(cells):
        final[x] = final[y] = k
    done = [[x for x in range(n) if final[x] == k] for k in range(len(cells))]
    # rows[x] is row x frozen: the rows without a free cell here, the
    # others each time the search completes them
    rows = [tuple(row) for row in tbl]
    # the AND of the bits of the rows without a free cell, top's among them
    fixed = -1
    if classify is not None:
        for x in range(n):
            if final[x] < 0:
                fixed &= classify(rows[x])

    def search() -> Iterator:
        count = 0
        if not steps:
            if cap < 1:
                raise BoundExceeded(too_many)
            yield leaf(lat, tuple(rows)) if classify is None else (fixed, tuple(rows))
            return
        last = len(steps) - 1
        # candidates[j] iterates over cell j's interval, for j up to k;
        # acc[j + 1] is the AND of the bits of the rows complete by cell j
        candidates: list = [None] * len(steps)
        acc = [fixed] * (len(steps) + 1)
        k = 0
        while True:
            # enter cell k, whose cover neighbours below hold values
            row_x, row_y, x, y, lower_cells, triples, hi = steps[k]
            lo = bot
            for row, b in lower_cells:
                lo = join[lo][row[b]]
            it = candidates[k] = iter(interval[lo][hi])
            while True:
                # the next value of cell k that passes its triples
                for v in it:
                    row_x[y] = v
                    row_y[x] = v
                    for row_a, b, row_b, c in triples:
                        if tbl[row_a[b]][c] != row_a[row_b[c]]:
                            break
                    else:
                        break
                else:
                    # cell k is exhausted: back to cell k - 1
                    row_x[y] = None
                    row_y[x] = None
                    if k == 0:
                        return
                    k -= 1
                    row_x, row_y, x, y, _, triples, _ = steps[k]
                    it = candidates[k]
                    continue
                bits = acc[k]
                for a in done[k]:
                    row = rows[a] = tuple(tbl[a])
                    if classify is not None:
                        bits &= classify(row)
                acc[k + 1] = bits
                if k < last:
                    break
                count += 1
                if count > cap:
                    raise BoundExceeded(too_many)
                table = tuple(rows)
                yield leaf(lat, table) if classify is None else (bits, table)
            k += 1

    return search()


def _table_rows(lat: FiniteLattice, table: tuple) -> list[list[str]]:
    return [[lat.names[v] for v in row] for row in table]


@dataclass
class CensusReport:
    """Counts and witnesses from exhaustively classifying every t-norm.

    The ``"version"`` key of :meth:`to_json_obj` numbers its JSON layout.
    """

    lattice_hash: str
    total: int
    classes: dict
    witnesses: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "lattice_hash": self.lattice_hash,
            "version": 1,
            "total": self.total,
            "classes": dict(self.classes),
            "witnesses": dict(self.witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


def census(
    lat: FiniteLattice,
    cap: int = CENSUS_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> CensusReport:
    """Classify every t-norm on the lattice by continuity and family membership.

    ``generated`` counts tables that coincide with a lifted family member;
    it is null for non-atomistic lattices, where the family is not
    defined. Every call enumerates afresh; nothing is read from or
    written to disk. The count cap, ``CENSUS_COUNT_CAP`` by default,
    covers every lattice of up to 9 elements: the stream keeps one table
    per class pattern, so the cap bounds time, not memory.
    """
    _check_size(lat, size_cap)
    atomistic = lat.is_atomistic()
    family_tables = None
    if atomistic:
        family_tables = {g.lifted.table for g in generated_family(lat)}

    # each distinct class pattern, bit i for CLASS_NAMES[i] but "continuous",
    # in the order of its first table: [count, first table]
    tally: dict = {}
    classified = enumerate_all_tnorms(lat, cap=cap, size_cap=size_cap, classify=continuity_classifier(lat))
    for bits, table in classified:
        if atomistic and table in family_tables:
            bits |= 16
        hit = tally.get(bits)
        if hit is None:
            tally[bits] = [1, table]
        else:
            hit[0] += 1
    counts = dict.fromkeys(CLASS_NAMES, 0)
    if not atomistic:
        counts["generated"] = None
    witnesses: dict = {}
    for bits, (count, table) in tally.items():
        if bits & 6 == 6:
            bits |= 8
        for i, name in enumerate(CLASS_NAMES):
            if bits >> i & 1:
                counts[name] += count
                if name not in witnesses:
                    witnesses[name] = {"elements": list(lat.names), "rows": _table_rows(lat, table)}
    return CensusReport(
        lattice_hash=lat.fingerprint(),
        total=sum(count for count, _ in tally.values()),
        classes=counts,
        witnesses=witnesses,
    )


@dataclass
class OracleComparison:
    """Brute-force enumeration checked against the generation pipeline."""

    passed: bool
    failures: list[str]


def oracle_vs_construction(lat: FiniteLattice) -> OracleComparison:
    """Confirm the constructed families are complete, sound and classified.

    On the skeleton, brute force must find exactly the selection-generated
    tables; it has length at most 2 and 2^k t-norms, so it is enumerated
    at any size. Every lift must verify as a t-norm. Within
    ``DEFAULT_SIZE_CAP`` elements, the brute-force left-semicontinuous
    tables must be exactly the lifts that are left-semicontinuous
    themselves. That holds on every atomistic lattice:

    - Left-semicontinuity gives T(x, 0) = 0 and T(x, y v z) =
      T(x, y) v T(x, z) whenever y v z < top.
    - Every y < top is the join of the atoms below it, and each partial
      join of those atoms stays below y. So for x, y < top, T(x, y) is
      the join of T(p, q) over the atoms p <= x and q <= y.
    - T(p, q) <= meet(p, q), which is bottom for distinct atoms, and
      T(p, p) is bottom or p. So T(x, y) is the join of the atoms p <=
      meet(x, y) with T(p, p) = p: the lift of that selection. A
      left-semicontinuous t-norm is therefore a left-semicontinuous lift,
      and each such lift is a t-norm that brute force finds.

    Not every lift is left-semicontinuous once the lattice is not
    Boolean: the extension of ``chain(5)`` has 16 lifts and 4
    left-semicontinuous t-norms.
    """
    if not lat.is_atomistic():
        raise LatnormError("oracle comparison needs an atomistic lattice")
    failures: list[str] = []
    skel = skeleton(lat)
    brute = {t.table for t in enumerate_all_tnorms(skel.lattice, size_cap=skel.lattice.n)}
    family = generated_family(lat)
    constructed = {g.on_skeleton.table for g in family}
    if brute != constructed:
        failures.append(
            f"skeleton enumeration ({len(brute)} tables) differs from the "
            f"selection family ({len(constructed)} tables)"
        )
    for g in family:
        verdict = verify_tnorm(g.lifted)
        if not verdict.ok:
            failures.append(f"lift of {g.selection.label()} is not a t-norm: {verdict.describe()}")
    if lat.n <= DEFAULT_SIZE_CAP:
        lsc_lifts = {g.lifted.table for g in family if is_left_semicontinuous(g.lifted)}
        classified = enumerate_all_tnorms(lat, classify=continuity_classifier(lat))
        lsc_tables = {table for bits, table in classified if bits & 1}
        if lsc_tables != lsc_lifts:
            failures.append(
                f"left-semicontinuous tables ({len(lsc_tables)}) are not exactly "
                f"the left-semicontinuous lifts ({len(lsc_lifts)})"
            )
    return OracleComparison(not failures, failures)
