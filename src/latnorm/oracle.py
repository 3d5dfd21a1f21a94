"""Exhaustive enumeration of all t-norms on a small lattice.

This is the ground truth the generation theory is checked against, so it
deliberately shares nothing with the construction pipeline: tables are
found by backtracking over undecided cells straight from the axioms.
Rows and columns of top and bottom are forced; commutativity halves the
cells; candidate values stay below the meet; monotonicity and partial
associativity prune during the search and a full associativity sweep
gates every leaf.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from .errors import BoundExceeded, LatnormError
from .lattice import FiniteLattice
from .construction import generated_family
from .tnorm import (
    TNormTable,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
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
    determinism check. Raises when the element count exceeds ``size_cap``
    or more than ``cap`` tables exist.
    """
    _check_size(lat, size_cap)
    n = lat.n
    bot, top = lat.bottom, lat.top
    meet = lat.meet_table
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

    domains = [[v for v in range(n) if leq(v, meet[x][y])] for x, y in cells]
    below: list[list[tuple[int, int]]] = []
    above: list[list[tuple[int, int]]] = []
    for x, y in cells:
        lo, hi = [], []
        for a, b in cells:
            if (a, b) == (x, y):
                continue
            if (leq(a, x) and leq(b, y)) or (leq(a, y) and leq(b, x)):
                lo.append((a, b))
            if (leq(x, a) and leq(y, b)) or (leq(x, b) and leq(y, a)):
                hi.append((a, b))
        below.append(lo)
        above.append(hi)

    triples = [(a, b, c) for a in mids for b in mids for c in mids]
    touching: list[list[tuple[int, int, int]]] = []
    for x, y in cells:
        pair = {x, y}
        touching.append([t for t in triples if {t[0], t[1]} == pair or {t[1], t[2]} == pair])

    # producers[v] holds the mid cells currently mapping to v, so an
    # assignment can also recheck triples it completes at second level
    producers: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def triple_ok(a: int, b: int, c: int) -> bool:
        ab = tbl[a][b]
        if ab is None:
            return True
        abc = tbl[ab][c]
        if abc is None:
            return True
        bc = tbl[b][c]
        if bc is None:
            return True
        a_bc = tbl[a][bc]
        if a_bc is None:
            return True
        return abc == a_bc

    def partial_ok(k: int, x: int, y: int) -> bool:
        for a, b, c in touching[k]:
            if not triple_ok(a, b, c):
                return False
        for first, second in ((x, y), (y, x)) if x != y else ((x, y),):
            for a, b in producers[first]:
                if not (
                    triple_ok(a, b, second)
                    and triple_ok(b, a, second)
                    and triple_ok(second, a, b)
                    and triple_ok(second, b, a)
                ):
                    return False
        return True

    def fully_associative() -> bool:
        for a, b, c in triples:
            if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                return False
        return True

    count = 0
    total_cells = len(cells)

    def search(k: int) -> Iterator[TNormTable]:
        nonlocal count
        if k == total_cells:
            if fully_associative():
                count += 1
                if count > cap:
                    raise BoundExceeded(f"more than {cap} t-norms; raise the cap to enumerate them")
                yield TNormTable(lat, [row[:] for row in tbl])
            return
        x, y = cells[k]
        for v in domains[k]:
            ok = all(tbl[a][b] is None or leq(tbl[a][b], v) for a, b in below[k]) and all(
                tbl[a][b] is None or leq(v, tbl[a][b]) for a, b in above[k]
            )
            if not ok:
                continue
            tbl[x][y] = v
            tbl[y][x] = v
            producers[v].append((x, y))
            if partial_ok(k, x, y):
                yield from search(k + 1)
            producers[v].pop()
            tbl[x][y] = None
            tbl[y][x] = None

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
    def from_json_obj(cls, obj: dict) -> "CensusReport":
        return cls(
            lattice_hash=obj["lattice_hash"],
            total=obj["total"],
            classes=obj["classes"],
            witnesses=obj.get("witnesses", {}),
            version=obj.get("version", 0),
        )


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
    the cache is advisory and ignored on version mismatch, but never
    answers for a lattice above ``size_cap``. It is written through a
    temporary file, so a reader never sees a half-written report.
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
                report = CensusReport.from_json_obj(obj)
                if report.version == CENSUS_CACHE_VERSION and report.lattice_hash == fingerprint:
                    return report
            except (ValueError, KeyError):
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
            "left_semicontinuous": bool(is_left_semicontinuous(t)),
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
    tables. Every lift must verify as a t-norm. On powerset-isomorphic
    lattices the brute-force left-semicontinuous tables must be exactly
    the lifted family.
    """
    from .construction import skeleton
    from .tnorm import verify_tnorm

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
    if lat.is_boolean_atomistic() and lat.n <= size_cap:
        lifted_tables = {g.lifted.table for g in family}
        lsc_tables = {
            t.table
            for t in enumerate_all_tnorms(lat, cap=cap, size_cap=size_cap)
            if is_left_semicontinuous(t)
        }
        if lsc_tables != lifted_tables:
            failures.append(
                f"left-semicontinuous tables ({len(lsc_tables)}) are not exactly "
                f"the lifted family ({len(lifted_tables)})"
            )
    return OracleComparison(not failures, failures, len(brute), len(family))
