"""Independent reference implementations used only by the tests.

Everything here recomputes a property straight from its quantified
definition (all subsets, all pairs, double joins), deliberately sharing
no code path with the production reductions it cross-checks.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from latnorm.errors import BoundExceeded
from latnorm.lattice import FiniteLattice, iter_bits
from latnorm.construction import AtomSelection, AtomSkeleton
from latnorm.oracle import DEFAULT_COUNT_CAP, DEFAULT_SIZE_CAP, _check_size
from latnorm.tnorm import OK, TNormTable, Verdict


def set_based_meets_joins(names, cover_pairs):
    """Meets and joins recomputed with frozensets only; None if not a lattice.

    Returns (meets, joins) keyed by name pairs, or None when some pair has
    no unique greatest lower / least upper bound.
    """
    below = {n: {n} for n in names}
    changed = True
    while changed:
        changed = False
        for lo, hi in cover_pairs:
            new = below[lo] | {lo}
            if not new <= below[hi]:
                below[hi] |= new
                changed = True
    above = {n: {m for m in names if n in below[m]} for n in names}

    meets, joins = {}, {}
    for x in names:
        for y in names:
            lower = below[x] & below[y]
            greatest = [z for z in lower if lower <= below[z]]
            if len(greatest) != 1:
                return None
            meets[x, y] = greatest[0]
            upper = above[x] & above[y]
            least = [z for z in upper if upper <= above[z]]
            if len(least) != 1:
                return None
            joins[x, y] = least[0]
    return meets, joins


def join_of(lat: FiniteLattice, elements) -> int:
    out = lat.bottom
    for e in elements:
        out = lat.join(out, e)
    return out


def double_join_lift(lat: FiniteLattice, skel: AtomSkeleton, t_on_c: TNormTable) -> list[list[int]]:
    """Lift by the literal double join over the skeleton values.

    For each argument, gather every non-bottom skeleton element below it,
    join all pairwise skeleton products. No closed form involved.
    """
    kappa = []
    skel_ids = [i for i in skel.to_parent if i != lat.bottom]
    for x in range(lat.n):
        kappa.append([u for u in skel_ids if lat.leq(u, x)])

    def c_of(parent_id: int) -> int:
        return skel.from_parent[parent_id]

    table = []
    for x in range(lat.n):
        row = []
        for y in range(lat.n):
            acc = lat.bottom
            for u in kappa[x]:
                for v in kappa[y]:
                    prod_c = t_on_c.table[c_of(u)][c_of(v)]
                    acc = lat.join(acc, skel.to_parent[prod_c])
            row.append(acc)
        table.append(row)
    return table


def all_subsets_left_continuous(t: TNormTable) -> bool:
    """Literal definition: T(a, vS) = v{T(a,s)} for every subset S."""
    lat = t.lattice
    n = lat.n
    for a in range(n):
        for mask in range(1 << n):
            members = list(iter_bits(mask))
            vs = join_of(lat, members)
            rhs = join_of(lat, [t.table[a][s] for s in members])
            if t.table[a][vs] != rhs:
                return False
    return True


def all_subsets_right_continuous(t: TNormTable) -> bool:
    """Literal definition over nonempty subsets; the empty family collapses
    to the neutral axiom, which is asserted directly."""
    lat = t.lattice
    n = lat.n
    for a in range(n):
        if t.table[a][lat.top] != a:
            return False
        for mask in range(1, 1 << n):
            members = list(iter_bits(mask))
            ms = lat.top
            for s in members:
                ms = lat.meet(ms, s)
            rhs = lat.top
            for s in members:
                rhs = lat.meet(rhs, t.table[a][s])
            if t.table[a][ms] != rhs:
                return False
    return True


def all_subsets_left_semicontinuous(t: TNormTable) -> bool:
    """Literal definition restricted to subsets whose join is not top."""
    lat = t.lattice
    n = lat.n
    for a in range(n):
        for mask in range(1 << n):
            members = list(iter_bits(mask))
            vs = join_of(lat, members)
            if vs == lat.top:
                continue
            rhs = join_of(lat, [t.table[a][s] for s in members])
            if t.table[a][vs] != rhs:
                return False
    return True


def all_subsets_atom_union(lat: FiniteLattice) -> bool:
    """Atoms below a join equal the union of atoms below, for every subset."""
    n = lat.n
    am = lat.atoms_mask
    for mask in range(1 << n):
        members = list(iter_bits(mask))
        vs = join_of(lat, members)
        union = 0
        for x in members:
            union |= am & lat.downs[x]
        if am & lat.downs[vs] != union:
            return False
    return True


def all_subsets_semicontinuity_condition(lat: FiniteLattice, selection: AtomSelection) -> bool:
    """Literal selection-level condition over every subset with join below top.

    No selected atom may lie below the join of a family without lying
    below one of its members.
    """
    n = lat.n
    am = lat.atoms_mask
    for mask in range(1 << n):
        members = list(iter_bits(mask))
        vs = join_of(lat, members)
        if vs == lat.top:
            continue
        covered = 0
        for x in members:
            covered |= am & lat.downs[x]
        stray = (am & lat.downs[vs]) & ~covered
        if stray & selection.mask:
            return False
    return True


def full_pairs_monotone(t: TNormTable) -> bool:
    """Monotonicity over every comparable pair, both arguments."""
    lat = t.lattice
    n = lat.n
    for x in range(n):
        for y in range(n):
            for x2 in range(n):
                if not lat.leq(x, x2):
                    continue
                for y2 in range(n):
                    if lat.leq(y, y2) and not lat.leq(t.table[x][y], t.table[x2][y2]):
                        return False
    return True


def independent_subsets_spanning(lat: FiniteLattice, x: int) -> list[frozenset[int]]:
    """Independent atom sets below x that join back to x, from the definition."""
    atoms = [a for a in iter_bits(lat.atoms_mask) if lat.leq(a, x)]
    out = []
    for size in range(len(atoms) + 1):
        for combo in combinations(atoms, size):
            ok = True
            for a in combo:
                rest = join_of(lat, [b for b in combo if b != a])
                if lat.meet(a, rest) != lat.bottom:
                    ok = False
                    break
            if ok and join_of(lat, combo) == x:
                out.append(frozenset(combo))
    return out


def scan_family_bounds(tables: list[TNormTable]):
    """Pointwise order, least upper and greatest lower bounds by list scans.

    Straight from the definitions over one family: ``le[i][j]`` compares
    tables i and j cell by cell, and ``lub[i][j]`` (``glb[i][j]``) is the
    rows of the unique family table above (below) both that lies below
    (above) every other such table, or None when there is none.
    """
    if not tables:
        return [], [], []
    lat = tables[0].lattice
    n = lat.n
    m = len(tables)
    le = [
        [all(lat.leq(a.table[x][y], b.table[x][y]) for x in range(n) for y in range(n)) for b in tables]
        for a in tables
    ]

    def extreme(bounds, inside):
        best = {tables[u].table for u in bounds if all(inside(u, o) for o in bounds)}
        return best.pop() if len(best) == 1 else None

    lub = [
        [extreme([u for u in range(m) if le[i][u] and le[j][u]], lambda u, o: le[u][o]) for j in range(m)]
        for i in range(m)
    ]
    glb = [
        [extreme([u for u in range(m) if le[u][i] and le[u][j]], lambda u, o: le[o][u]) for j in range(m)]
        for i in range(m)
    ]
    return le, lub, glb


def reference_verify_tnorm(t: TNormTable) -> Verdict:
    """The four t-norm axioms swept cell by cell, first violation returned.

    The body of ``verify_tnorm`` before its row sweeps, kept verbatim except
    that it neither reads nor writes ``t.verdict``: neutral, commutativity,
    monotonicity over covers (x inner), then associativity in (x, y, z)
    order, each stopping at its first failing cell.
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
        for lo, hi in lat.covers:
            for x in range(n):
                if not lat.leq(tbl[x][lo], tbl[x][hi]):
                    verdict = Verdict(False, "monotonicity", (lat.name(x), lat.name(lo), lat.name(hi)))
                    break
            if not verdict.ok:
                break
    if verdict.ok:
        for x in range(n):
            for y in range(n):
                xy = tbl[x][y]
                for z in range(n):
                    if tbl[xy][z] != tbl[x][tbl[y][z]]:
                        verdict = Verdict(False, "associativity", (lat.name(x), lat.name(y), lat.name(z)))
                        break
                if not verdict.ok:
                    break
            if not verdict.ok:
                break
    return verdict


def reference_enumerate_all_tnorms(
    lat: FiniteLattice,
    cap: int = DEFAULT_COUNT_CAP,
    size_cap: int = DEFAULT_SIZE_CAP,
    cell_order: str = "default",
) -> Iterator[TNormTable]:
    """Every t-norm on the lattice, streamed by the original backtracking search.

    The body of ``enumerate_all_tnorms`` before its interval domains,
    kept verbatim except for this docstring: every candidate is tested
    against every monotone neighbour, ``triple_ok`` runs on every touching
    triple, and the leaf sweep indexes a list of triples. The production
    enumerator must yield the same tables in the same order, and raise
    ``BoundExceeded`` at the same ``cap``.
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
