"""Exhaustive enumeration of all t-norms on a small lattice.

This is the ground truth the generation theory is checked against, so it
deliberately shares nothing with the construction pipeline: tables are
found by backtracking over undecided cells straight from the axioms.
Rows and columns of top and bottom are forced; commutativity halves the
cells. The cells are searched smallest first, so a cell's neighbours
below are assigned before it and those above after it. Monotonicity
then makes each cell's candidates an interval: at least the join of its
cover neighbours below, at most the meet of its arguments. Partial
associativity, one comparison per triple, prunes during the search, and
it is complete: every leaf is a t-norm and is yielded unchecked. The
census classifies each table by continuity row by row, and each distinct
row once (:func:`_row_classes`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

from .errors import BoundExceeded, LatnormError
from .lattice import FiniteLattice, iter_bits
from .construction import generated_family, skeleton
from .tnorm import TNormTable, _preservation_failure, is_left_semicontinuous, verify_tnorm

DEFAULT_SIZE_CAP = 8
DEFAULT_COUNT_CAP = 1_000_000

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
) -> Iterator[TNormTable]:
    """Stream every t-norm on the lattice, duplicate-free.

    The free cells (x, y) are searched smallest first: by ascending
    |↓x| + |↓y|, ties broken by ids, so the stream is deterministic.
    Each cell's candidates form an interval: above the join of its
    cover neighbours below, which all come earlier, and below
    ``meet(x, y)``, as every neighbour above comes later; they are tried
    in ascending element order. Raises when the element count exceeds
    ``size_cap`` or more than ``cap`` tables exist.

    Every leaf is a t-norm, so it is yielded without a second check.
    The forced rows give the neutral top and the absorbing bottom,
    assigning each cell on both sides of the diagonal gives
    commutativity, and the intervals give monotonicity. Associativity
    follows from the partial check ``consistent``:

    - The order. Let the cell {a, b} lie under {x, y}, with a <= x and
      b <= y after matching, and let the two cells differ. Then one
      inequality is strict, so |↓a| + |↓b| < |↓x| + |↓y|, and the lower
      cell comes first. So every neighbour of a cell below it is assigned
      before it, and every neighbour above it after it.
    - The lower bound. The cover neighbours of (x, y) below are (x', y)
      for each lower cover x' of x and (x, y') for each lower cover y'
      of y; by the order they come first. When x is an atom, (bottom, y)
      lies in the forced bottom row and adds nothing to the join. Let a
      free cell {a, b} lie under {x, y} as above, and say a < x. Then
      a <= x' for some lower cover x' of x, and x' is not bottom, as a
      is a middle element, so {a, b} lies under or equals the free cell
      (x', y); likewise when b < y. Each assigned cell is at least the
      join of its cover neighbours below, so the assigned cells grow
      along every chain of cover steps, and the join over the cover
      neighbours is the join over every cell below.
    - A triple with top or bottom in it holds by the forced rows. Fix
      middle elements a, b, c and write ab = T(a, b), bc = T(b, c). The
      triple (a, b, c) states T(ab, c) = T(a, bc) and reads four cells:
      the first-level cells (a, b) and (b, c) and the second-level cells
      (ab, c) and (a, bc). (a, b, a) holds by commutativity: T(ab, a) =
      T(a, ba). The mirror (c, b, a) states the same equation as
      (a, b, c), read on the same cells of the commutative table, so
      only a before c in ``mids`` needs a check.
    - Second-level cells come early. T(a, b) <= a ∧ b, so (ab, c) lies
      under or equals (b, c), and (a, bc) lies under or equals (a, b).
      As ab < top, a second-level cell is never in the top row; when ab
      is bottom, (ab, c) is in the forced bottom row, and likewise for
      bc.
    - So one comparison decides each triple. Let cell k be the later of
      its two first-level cells; ``touching[k]`` holds the triple. When
      cell k is tried, all four cells hold values, so ``consistent``
      compares both sides. Cells up to k keep their values while the
      search goes deeper, so a comparison passed on the way to a leaf
      still holds at the leaf.
    """
    _check_size(lat, size_cap)
    n = lat.n
    bot, top = lat.bottom, lat.top
    meet, join = lat.meet_table, lat.join_table

    tbl: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        tbl[x][top] = x
        tbl[top][x] = x
        if x != top:
            tbl[x][bot] = bot
            tbl[bot][x] = bot

    mids = [x for x in range(n) if x not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    cells.sort(key=lambda c: (lat.downs[c[0]].bit_count() + lat.downs[c[1]].bit_count(), c))
    position = {cell: k for k, cell in enumerate(cells)}

    # interval[lo][hi] lists the elements v with lo <= v <= hi, ascending
    interval = [[list(iter_bits(lat.ups[lo] & lat.downs[hi])) for hi in range(n)] for lo in range(n)]

    # Per cell (x, y), its cover neighbours below, each as a row and a
    # column: (x', y) for each lower cover x' of x and (x, y') for each
    # lower cover y' of y. Their join is the join over every cell below,
    # as the docstring proves.
    lower = [[lo for lo, hi in lat.covers if hi == x] for x in range(n)]
    below = [[(tbl[a], y) for a in lower[x]] + [(tbl[x], b) for b in lower[y]] for x, y in cells]

    # Each triple (a, b, c), a before c, goes to the later of its two
    # first-level cells.
    touching: list[list[tuple[list, int, list, int]]] = [[] for _ in cells]
    for i, a in enumerate(mids):
        for b in mids:
            first = position[min(a, b), max(a, b)]
            for c in mids[i + 1 :]:
                k = max(first, position[min(b, c), max(b, c)])
                touching[k].append((tbl[a], b, tbl[b], c))

    def consistent(k: int) -> bool:
        for row_a, b, row_b, c in touching[k]:
            if tbl[row_a[b]][c] != row_a[row_b[c]]:
                return False
        return True

    count = 0
    total_cells = len(cells)

    def search(k: int) -> Iterator[TNormTable]:
        nonlocal count
        if k == total_cells:
            count += 1
            if count > cap:
                raise BoundExceeded(f"more than {cap} t-norms; raise the cap to enumerate them")
            yield TNormTable(lat, tbl)
            return
        x, y = cells[k]
        row_x, row_y = tbl[x], tbl[y]
        lo = bot
        for row, b in below[k]:
            lo = join[lo][row[b]]
        for v in interval[lo][meet[x][y]]:
            row_x[y] = v
            row_y[x] = v
            if consistent(k):
                yield from search(k + 1)
        row_x[y] = None
        row_y[x] = None

    return search(0)


def _table_rows(t: TNormTable) -> list[list[str]]:
    names = t.lattice.names
    return [[names[v] for v in row] for row in t.table]


def _row_classes(lat: FiniteLattice):
    """A function from an oracle leaf's table to its continuity classes.

    It returns bits in ``CLASS_NAMES`` order: 1 left-semicontinuous,
    2 left-continuous, 4 right-continuous. A table's bits are the AND of
    its middle rows' bits. Each distinct row is classified once, by the
    kernel of the three scans, :func:`latnorm.tnorm._preservation_failure`,
    on each scan's plan from ``irreducible_end_pairs``; the memo of rows
    lives as long as the returned function. The bits are the verdicts of
    ``is_left_semicontinuous``, ``is_left_continuous`` and
    ``is_right_continuous`` on every oracle leaf, so census counts and
    witnesses, the first table of each class in the stream, are theirs:

    - Each scan first checks the empty family, T(a, 0) = 0 for joins and
      T(a, 1) = a for meets. Every leaf has its forced rows, so both hold.
    - Every leaf is monotone, as each of its cells lies in its interval,
      so each scan then runs its plan over the rows one after the other.
      A monotone row passes the plan exactly when it passes every pair
      (the proof is in :func:`latnorm.tnorm._preserves`), so the verdict
      on a row depends on that row alone, and the table passes exactly
      when each row does. A failing row's witness is not needed here, so
      neither is the rescan that names it.
    - Row bottom is constant and row top is the identity, so both
      preserve every join and meet, and only the middle rows are read.
    """
    scans = [
        (bit, lat.irreducible_end_pairs(op, skip), lat.join_table if op == "join" else lat.meet_table)
        for bit, op, skip in ((1, "join", lat.top), (2, "join", -1), (4, "meet", -1))
    ]
    mids = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    memo: dict = {}

    def classes(table: tuple) -> int:
        bits = 7
        for a in mids:
            row = table[a]
            hit = memo.get(row)
            if hit is None:
                hit = memo[row] = sum(
                    bit for bit, plan, op in scans if _preservation_failure((row,), (0,), plan, op) is None
                )
            bits &= hit
        return bits

    return classes


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
    cap: int = DEFAULT_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> CensusReport:
    """Classify every t-norm on the lattice by continuity and family membership.

    ``generated`` counts tables that coincide with a lifted family member;
    it is null for non-atomistic lattices, where the family is not
    defined. Every call enumerates afresh; nothing is read from or
    written to disk.
    """
    _check_size(lat, size_cap)
    atomistic = lat.is_atomistic()
    family_tables = None
    if atomistic:
        family_tables = {g.lifted.table for g in generated_family(lat)}

    classes = _row_classes(lat)
    # each distinct class pattern, bit i for CLASS_NAMES[i] but "continuous",
    # in the order of its first table: [count, first table]
    tally: dict = {}
    for t in enumerate_all_tnorms(lat, cap=cap, size_cap=size_cap):
        bits = classes(t.table)
        if atomistic and t.table in family_tables:
            bits |= 16
        hit = tally.get(bits)
        if hit is None:
            tally[bits] = [1, t]
        else:
            hit[0] += 1
    counts = dict.fromkeys(CLASS_NAMES, 0)
    if not atomistic:
        counts["generated"] = None
    witnesses: dict = {}
    for bits, (count, t) in tally.items():
        if bits & 6 == 6:
            bits |= 8
        for i, name in enumerate(CLASS_NAMES):
            if bits >> i & 1:
                counts[name] += count
                if name not in witnesses:
                    witnesses[name] = {"elements": list(lat.names), "rows": _table_rows(t)}
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
    skeleton_count: int
    family_count: int


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
        classes = _row_classes(lat)
        lsc_tables = {t.table for t in enumerate_all_tnorms(lat) if classes(t.table) & 1}
        if lsc_tables != lsc_lifts:
            failures.append(
                f"left-semicontinuous tables ({len(lsc_tables)}) are not exactly "
                f"the left-semicontinuous lifts ({len(lsc_lifts)})"
            )
    return OracleComparison(not failures, failures, len(brute), len(family))
