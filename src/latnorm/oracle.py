"""Exhaustive enumeration of all t-norms on a small lattice.

This is the ground truth the generation theory is checked against, so it
deliberately shares nothing with the construction pipeline: tables are
found by backtracking over undecided cells straight from the axioms.
Rows and columns of top and bottom are forced; commutativity halves the
cells. Monotonicity makes each cell's candidates an interval: at least
the join of its already assigned neighbours below, at most the meet of
those above and of the meet of its arguments. Partial associativity
prunes during the search, and it is complete: every leaf is a t-norm
and is yielded unchecked. The census classifies each table by
continuity; a left-continuous table is left-semicontinuous without a
second scan.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import BoundExceeded, LatnormError
from .lattice import FiniteLattice, iter_bits
from .construction import generated_family, skeleton
from .tnorm import (
    TNormTable,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    verify_tnorm,
)

DEFAULT_SIZE_CAP = 8
DEFAULT_COUNT_CAP = 1_000_000
CENSUS_CACHE_VERSION = 1
CACHE_ENV_VAR = "LATNORM_CACHE_DIR"

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
    cell_order: str = "default",
) -> Iterator[TNormTable]:
    """Stream every t-norm on the lattice, duplicate-free.

    ``cell_order`` picks the backtracking order of the free cells; any
    choice yields the same set of tables, which the tests exploit as a
    determinism check. For a fixed order the stream is deterministic.
    Each cell's candidates form an interval: above the join of its
    monotone neighbours below that are already assigned, and below the
    meet of those above and of ``meet(x, y)``; they are tried in
    ascending element order. Raises when the element count exceeds
    ``size_cap`` or more than ``cap`` tables exist.

    Every leaf is a t-norm, so it is yielded without a second check.
    The forced rows give the neutral top and the absorbing bottom,
    assigning each cell on both sides of the diagonal gives
    commutativity, and the intervals give monotonicity. Associativity
    follows from the partial check ``consistent``:

    - A triple with top or bottom in it holds by the forced rows. Fix
      middle elements a, b, c and write ab = T(a, b), bc = T(b, c). The
      triple (a, b, c) states T(ab, c) = T(a, bc) and reads four cells:
      the first-level cells (a, b) and (b, c) and the second-level cells
      (ab, c) and (a, bc). As ab <= meet(a, b) < top, a second-level
      cell is never in the top row; when ab is bottom, (ab, c) is in the
      forced bottom row, and likewise for bc. The other cells are free.
    - (a, b, a) holds by commutativity: T(ab, a) = T(a, ba). The mirror
      (c, b, a) states the same equation as (a, b, c), read on the same
      cells of the commutative table, so only a before c in ``mids``
      needs a check.
    - Let cell k be the triple's free cell that comes last in ``cells``.
      When cell k is tried with its leaf value, every free cell of the
      triple already holds its leaf value, so both sides can be read.
      Cells up to k keep their values while the search goes deeper, so
      a comparison passed on the way to a leaf still holds at the leaf.
    - If cell k is a first-level cell, the other first-level cell comes
      no later, so ``touching[k]`` holds whichever of the triple and
      its mirror has its first element earlier in ``mids`` and compares
      its two sides. This covers a second-level cell that is also a
      first-level cell, such as (ab, c) = (b, c) when ab = b.
    - Otherwise cell k is (ab, c) or (a, bc), with value v, and the
      first-level cells come earlier. If it is (ab, c), then (a, b) is
      among ``producers[ab]``, and ``consistent`` reads cell k with ab
      first and c second; on the diagonal branch, where ab = c, that is
      the only way to read it. For the producer it compares v with both
      T(a, T(b, c)) and T(b, T(a, c)), so whichever way round (a, b)
      stored its rows, one comparison is the triple's. If cell k is
      (a, bc), the same holds for the mirror (c, b, a): its second-level
      cell (bc, a) is cell k, and the comparison of T(bc, a) with
      T(c, T(b, a)) = T(ab, c) is the triple's.
    """
    _check_size(lat, size_cap)
    n = lat.n
    bot, top = lat.bottom, lat.top
    meet, join = lat.meet_table, lat.join_table
    leq = lat.leq

    tbl: list[list[int | None]] = [[None] * n for _ in range(n)]
    for x in range(n):
        tbl[x][top] = x
        tbl[top][x] = x
        if x != top:
            tbl[x][bot] = bot
            tbl[bot][x] = bot

    mids = [x for x in range(n) if x not in (bot, top)]
    cells = [(x, y) for i, x in enumerate(mids) for y in mids[i:]]
    if cell_order == "default":
        cells.sort(key=lambda c: (-(lat.downs[c[0]].bit_count() + lat.downs[c[1]].bit_count()), c))
    elif cell_order == "lex":
        cells.sort()
    elif cell_order == "reverse":
        cells.sort(reverse=True)
    else:
        raise ValueError(f"unknown cell order {cell_order!r}")
    position = {cell: k for k, cell in enumerate(cells)}

    # interval[lo][hi] lists the elements v with lo <= v <= hi, ascending
    interval = [[list(iter_bits(lat.ups[lo] & lat.downs[hi])) for hi in range(n)] for lo in range(n)]

    def under(p: tuple[int, int], q: tuple[int, int]) -> bool:
        (a, b), (x, y) = p, q
        return (leq(a, x) and leq(b, y)) or (leq(a, y) and leq(b, x))

    # Per cell, the maximal earlier cells below it and the minimal earlier
    # cells above it, each as a row and a column. Assigned cells stay
    # pairwise monotone, so these bound the interval exactly as every
    # assigned neighbour would. Only the touching triples whose other
    # first-level cell is assigned too are kept: on the rest the partial
    # check cannot fail yet. A triple (a, b, c) and its mirror (c, b, a)
    # compare the same two cells of a commutative table, and (a, b, a)
    # compares one cell with itself, so only a < c is kept.
    below: list[list[tuple[list, int]]] = []
    above: list[list[tuple[list, int]]] = []
    touching: list[list[tuple[list, int, list, int]]] = []
    for k, cell in enumerate(cells):
        lower = [p for p in cells[:k] if under(p, cell)]
        upper = [p for p in cells[:k] if under(cell, p)]
        maximal = [p for p in lower if not any(q != p and under(p, q) for q in lower)]
        minimal = [p for p in upper if not any(q != p and under(q, p) for q in upper)]
        below.append([(tbl[a], b) for a, b in maximal])
        above.append([(tbl[a], b) for a, b in minimal])
        pair = set(cell)
        triples = []
        for i, a in enumerate(mids):
            for b in mids:
                for c in mids[i + 1 :]:
                    if {a, b} == pair:
                        other = (b, c)
                    elif {b, c} == pair:
                        other = (a, b)
                    else:
                        continue
                    if position[min(other), max(other)] <= k:
                        triples.append((tbl[a], b, tbl[b], c))
        touching.append(triples)

    # producers[v] holds the rows of the mid cells currently mapping to v,
    # so an assignment can also recheck triples it completes at second level
    producers: list[list[tuple[list, list]]] = [[] for _ in range(n)]

    def consistent(k: int, x: int, y: int, v: int) -> bool:
        for row_a, b, row_b, c in touching[k]:
            abc = tbl[row_a[b]][c]
            if abc is not None:
                a_bc = row_a[row_b[c]]
                if a_bc is not None and a_bc != abc:
                    return False
        # triples whose second-level cell is this one: T(T(a, b), s) with
        # T(a, b) = x and s = y, or the reverse; (s, b, a) and (s, a, b)
        # mirror the two checked here
        for first, second in ((x, y), (y, x)) if x != y else ((x, y),):
            for row_a, row_b in producers[first]:
                bs = row_b[second]
                if bs is not None:
                    a_bs = row_a[bs]
                    if a_bs is not None and a_bs != v:
                        return False
                a_s = row_a[second]
                if a_s is not None:
                    b_as = row_b[a_s]
                    if b_as is not None and b_as != v:
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
        hi = meet[x][y]
        for row, b in above[k]:
            hi = meet[hi][row[b]]
        rows = (row_x, row_y)
        for v in interval[lo][hi]:
            row_x[y] = v
            row_y[x] = v
            producers[v].append(rows)
            if consistent(k, x, y, v):
                yield from search(k + 1)
            producers[v].pop()
        row_x[y] = None
        row_y[x] = None

    return search(0)


def _table_rows(t: TNormTable) -> list[list[str]]:
    names = t.lattice.names
    return [[names[v] for v in row] for row in t.table]


@dataclass
class CensusReport:
    """Counts and witnesses from exhaustively classifying every t-norm."""

    lattice_hash: str
    total: int
    classes: dict
    witnesses: dict = field(default_factory=dict)
    version: int = CENSUS_CACHE_VERSION

    def to_json_obj(self) -> dict:
        return {
            "lattice_hash": self.lattice_hash,
            "version": self.version,
            "total": self.total,
            "classes": dict(self.classes),
            "witnesses": dict(self.witnesses),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj: dict, lat: FiniteLattice) -> "CensusReport":
        """Read a report on ``lat`` back, raising ValueError on a field of the
        wrong type or a value that no census of ``lat`` can produce.

        ``classes`` must map exactly the names in ``CLASS_NAMES`` to counts
        in 0..``total``; a bool is not a count. Only ``generated`` may be
        null, and it is null exactly when ``lat`` is not atomistic. Each
        witness is filed under a class name and holds the lists
        ``elements`` and ``rows``.
        """
        if not isinstance(obj, dict):
            raise ValueError(f"a census report is a JSON object, not {type(obj).__name__}")
        report = cls(
            lattice_hash=obj["lattice_hash"],
            total=obj["total"],
            classes=obj["classes"],
            witnesses=obj.get("witnesses", {}),
            version=obj.get("version", 0),
        )
        classes = report.classes
        if not (
            isinstance(report.lattice_hash, str)
            and type(report.version) is int
            and type(report.total) is int
            and isinstance(classes, dict)
            and classes.keys() == set(CLASS_NAMES)
            and all(v is None or type(v) is int for v in classes.values())
            and isinstance(report.witnesses, dict)
        ):
            raise ValueError("a census report field has the wrong type")
        counts = [v for name, v in classes.items() if v is not None or name != "generated"]
        if report.total < 0 or not all(type(v) is int and 0 <= v <= report.total for v in counts):
            raise ValueError("a census report total is negative or a class count is not in 0..total")
        if (classes["generated"] is None) == lat.is_atomistic():
            raise ValueError("a census report's generated count does not fit the lattice")
        for name, witness in report.witnesses.items():
            if not (
                name in CLASS_NAMES
                and isinstance(witness, dict)
                and isinstance(witness.get("elements"), list)
                and isinstance(witness.get("rows"), list)
            ):
                raise ValueError(f"census report witness {name!r} is not a table")
        return report


def census(
    lat: FiniteLattice,
    cap: int = DEFAULT_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
    cache_dir: str | os.PathLike | None = None,
) -> CensusReport:
    """Classify every t-norm on the lattice by continuity and family membership.

    ``generated`` counts tables that coincide with a lifted family member;
    it is null for non-atomistic lattices, where the family is not
    defined. Reports are cached as JSON keyed by the lattice fingerprint
    when a cache directory is given (or set via ``LATNORM_CACHE_DIR``);
    the cache is advisory: a path that cannot be read, a report with a
    field of the wrong type or an impossible value (see
    :meth:`CensusReport.from_json_obj`) and a version mismatch are all
    misses, and it never answers for a lattice above ``size_cap``. It is
    written through a temporary file, so a reader never sees a
    half-written report.
    """
    _check_size(lat, size_cap)
    fingerprint = lat.fingerprint()
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_ENV_VAR)
    cache_path = None
    if cache_dir:
        cache_path = Path(cache_dir) / f"census_{fingerprint}.json"
        if cache_path.exists():
            try:
                obj = json.loads(cache_path.read_text(encoding="utf-8"))
                report = CensusReport.from_json_obj(obj, lat)
                if report.version == CENSUS_CACHE_VERSION and report.lattice_hash == fingerprint:
                    return report
            except (OSError, ValueError, KeyError):
                pass

    atomistic = lat.is_atomistic()
    family_tables = None
    if atomistic:
        family_tables = {g.lifted.table for g in generated_family(lat)}

    counts = {name: 0 for name in CLASS_NAMES}
    if not atomistic:
        counts["generated"] = None
    witnesses: dict = {}
    total = 0
    for t in enumerate_all_tnorms(lat, cap=cap, size_cap=size_cap):
        total += 1
        left = bool(is_left_continuous(t))
        right = bool(is_right_continuous(t))
        hits = {
            # left-continuity implies left-semicontinuity: the latter checks
            # the same empty family and a subset of the pairs
            "left_semicontinuous": left or bool(is_left_semicontinuous(t)),
            "left_continuous": left,
            "right_continuous": right,
            "continuous": left and right,
        }
        if atomistic:
            hits["generated"] = t.table in family_tables
        for name, hit in hits.items():
            if hit:
                counts[name] += 1
                if name not in witnesses:
                    witnesses[name] = {"elements": list(lat.names), "rows": _table_rows(t)}
    report = CensusReport(
        lattice_hash=fingerprint,
        total=total,
        classes=counts,
        witnesses=witnesses,
    )
    if cache_path is not None:
        tmp_name = None
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            with tempfile.NamedTemporaryFile(
                "w", encoding="utf-8", dir=cache_path.parent, prefix=f"{cache_path.name}.", delete=False
            ) as tmp:
                tmp_name = tmp.name
                tmp.write(report.to_json())
            os.replace(tmp_name, cache_path)
        except OSError:
            if tmp_name is not None:
                Path(tmp_name).unlink(missing_ok=True)
    return report


@dataclass
class OracleComparison:
    """Brute-force enumeration checked against the generation pipeline."""

    passed: bool
    failures: list[str]
    skeleton_count: int
    family_count: int


def oracle_vs_construction(
    lat: FiniteLattice,
    cap: int = DEFAULT_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> OracleComparison:
    """Confirm the constructed families are complete, sound and classified.

    On the skeleton, brute force must find exactly the selection-generated
    tables. Every lift must verify as a t-norm. Within ``size_cap``, the
    brute-force left-semicontinuous tables must be exactly the lifts that
    are left-semicontinuous themselves. That holds on every atomistic
    lattice:

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
    brute = {t.table for t in enumerate_all_tnorms(skel.lattice, cap=cap, size_cap=size_cap)}
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
    if lat.n <= size_cap:
        lsc_lifts = {g.lifted.table for g in family if is_left_semicontinuous(g.lifted)}
        lsc_tables = {
            t.table
            for t in enumerate_all_tnorms(lat, cap=cap, size_cap=size_cap)
            if is_left_semicontinuous(t)
        }
        if lsc_tables != lsc_lifts:
            failures.append(
                f"left-semicontinuous tables ({len(lsc_tables)}) are not exactly "
                f"the left-semicontinuous lifts ({len(lsc_lifts)})"
            )
    return OracleComparison(not failures, failures, len(brute), len(family))
