"""Finite bounded lattices: construction, validation and order-theoretic queries.

Elements are identified by their position in the input element list (the
"file order"); every table and export keeps that order so golden files are
byte-stable. Every lattice is built and validated by one constructor,
:func:`lattice_from_covers`. Order data is held as per-element bitmasks:
each meet and join is one lookup of a common down-set or up-set mask, which
keeps construction fast enough for exhaustive desk-scale work.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Iterator, Sequence

from .errors import (
    BoundExceeded,
    CycleDetected,
    DuplicateLabel,
    LatticeMismatch,
    NoBottom,
    NotALattice,
    NoTop,
    UnknownLabel,
)

POWERSET_MAX_ATOMS = 10
DEFAULT_ATOM_CAP = 20


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ElementSet:
    """A subset of one lattice's elements, stored as a bitmask.

    Set operations require both operands to belong to the same lattice
    object; mixing indices from two lattices is an error, never a coercion.
    Immutable, since it hashes by its mask.
    """

    __slots__ = ("lattice", "mask")

    def __init__(self, lattice: "FiniteLattice", mask: int):
        if mask < 0 or mask >> lattice.n:
            raise ValueError(f"mask {mask:#x} has bits outside the {lattice.n}-element universe")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

    def _check_same(self, other: "ElementSet") -> None:
        if self.lattice is not other.lattice:
            raise LatticeMismatch("element sets belong to different lattices")

    def __or__(self, other: "ElementSet") -> "ElementSet":
        self._check_same(other)
        return ElementSet(self.lattice, self.mask | other.mask)

    def __and__(self, other: "ElementSet") -> "ElementSet":
        self._check_same(other)
        return ElementSet(self.lattice, self.mask & other.mask)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        self._check_same(other)
        return ElementSet(self.lattice, self.mask & ~other.mask)

    def __le__(self, other: "ElementSet") -> bool:
        self._check_same(other)
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.lattice is other.lattice
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((id(self.lattice), self.mask))

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def names(self) -> tuple[str, ...]:
        return tuple(self.lattice.names[i] for i in self)

    def __repr__(self) -> str:
        return "{" + ", ".join(self.names()) + "}"


class FiniteLattice:
    """Validated finite bounded lattice.

    Immutable after construction; safe to share between threads. Use
    :func:`lattice_from_covers` or :func:`powerset_lattice` to build one.
    The fingerprint, the set of element ids and the pair sets of the order
    are derived data, filled on first use and kept in ``_memo`` for the
    lattice's life; equality, hashing and serialization never read them.
    """

    __slots__ = (
        "names",
        "_index",
        "ups",
        "downs",
        "covers",
        "meet_table",
        "join_table",
        "bottom",
        "top",
        "atoms_mask",
        "ji_mask",
        "mi_mask",
        "length",
        "full_mask",
        "_memo",
    )

    def __init__(self, **kw):
        for slot in self.__slots__:
            object.__setattr__(self, slot, kw[slot])

    def __setattr__(self, name, value):
        raise AttributeError("FiniteLattice is immutable")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownLabel(f"no element named {name!r}") from None

    def name(self, element: int) -> str:
        return self.names[element]

    def leq(self, x: int, y: int) -> bool:
        return bool(self.ups[x] >> y & 1)

    def meet(self, x: int, y: int) -> int:
        return self.meet_table[x][y]

    def join(self, x: int, y: int) -> int:
        return self.join_table[x][y]

    def join_all(self, elements: Iterable[int]) -> int:
        """Join of an arbitrary finite family; the empty join is bottom."""
        out = self.bottom
        row = self.join_table
        for e in elements:
            out = row[out][e]
        return out

    def element_set(self, members: Iterable[int | str] = (), mask: int | None = None) -> ElementSet:
        if mask is None:
            mask = 0
            for m in members:
                mask |= 1 << (self.index(m) if isinstance(m, str) else m)
        return ElementSet(self, mask)

    # -- order-theoretic queries -------------------------------------------------

    def atoms(self) -> ElementSet:
        """Elements covering bottom."""
        return ElementSet(self, self.atoms_mask)

    def join_irreducibles(self) -> ElementSet:
        """Nonzero elements with exactly one lower cover."""
        return ElementSet(self, self.ji_mask)

    def atoms_below(self, x: int) -> ElementSet:
        return ElementSet(self, self.atoms_mask & self.downs[x])

    def is_atomistic(self) -> bool:
        """True iff every element is the join of the atoms below it.

        That is, iff every join-irreducible is an atom. If all are atoms,
        every element, as the join of the join-irreducibles below it, is a
        join of atoms below it, hence the join of all of them. Conversely,
        a join-irreducible j that is no atom is not the join of the atoms
        below it: they lie strictly below j, and so does every finite join
        of elements strictly below j, the empty join included.
        """
        return not self.ji_mask & ~self.atoms_mask

    def is_boolean_atomistic(self) -> bool:
        """True iff the lattice is atomistic with 2^k elements for its k atoms.

        In an atomistic lattice x <= y exactly when the atoms below x lie
        below y, since x is the join of its atoms; so x -> (atoms below x)
        is an order embedding into the powerset of the atoms. With 2^k
        elements it is onto, so it is an isomorphism, and atom sets turn
        joins into unions. Conversely, a lattice isomorphic to the powerset
        of its atoms has 2^k elements. A true result certifies that the
        lattice is isomorphic to the powerset of its atoms.
        """
        return self.is_atomistic() and self.n == 1 << self.atoms_mask.bit_count()

    def is_independent(self, subset: ElementSet) -> bool:
        """True iff every member meets the join of the others at bottom.

        The quantifier runs over the members of the subset itself; bottom
        may not be a member.
        """
        if subset.lattice is not self:
            raise LatticeMismatch("subset belongs to a different lattice")
        if self.bottom in subset:
            raise ValueError("independence is defined for subsets excluding bottom")
        for a in subset:
            rest = self.join_all(iter_bits(subset.mask & ~(1 << a)))
            if self.meet_table[a][rest] != self.bottom:
                return False
        return True

    def maximal_independent_subsets(self, base: ElementSet) -> list[ElementSet]:
        """All independent subsets of ``base`` maximal under inclusion within it.

        Independence is inherited by subsets, so the maximal ones are the
        maximal elements of the independent family. Exhaustive over base
        subsets; capped to keep the blow-up explicit.
        """
        if base.lattice is not self:
            raise LatticeMismatch("base belongs to a different lattice")
        members = list(base)
        k = len(members)
        if k > DEFAULT_ATOM_CAP:
            raise BoundExceeded(f"base has {k} elements, cap is {DEFAULT_ATOM_CAP}")
        independent = []
        for sub in range(1 << k):
            mask = 0
            for i in iter_bits(sub):
                mask |= 1 << members[i]
            if self.is_independent(ElementSet(self, mask)):
                independent.append(mask)
        maximal = [
            m for m in independent
            if not any(other != m and other & m == m for other in independent)
        ]
        return [ElementSet(self, m) for m in sorted(maximal)]

    def comparable_pairs(self) -> frozenset[tuple[int, int]]:
        """Every pair (x, y) of element ids with x <= y."""
        pairs = self._memo.get("comparable")
        if pairs is None:
            pairs = self._memo["comparable"] = frozenset(
                (x, y) for x in range(self.n) for y in iter_bits(self.ups[x])
            )
        return pairs

    def irreducible_end_pairs(self, op: str, skip: int = -1) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The incomparable pairs x < y with an ``op``-irreducible end.

        An end is join-irreducible (``ji_mask``) for ``op`` "join" and
        meet-irreducible (``mi_mask``) for "meet". Pairs whose join (``op``
        "join") or meet (``op`` "meet") is ``skip`` are left out. The plan
        holds one ``(x, ys)`` for each x that has some kept y, with ``ys``
        ascending. The y incomparable to x and above it in element order
        are the bits of ``full_mask & ~(ups[x] | downs[x])`` above bit x;
        when x is reducible only the irreducible ones are kept. A monotone
        row passes the plan exactly when it passes every pair x < y whose
        op is not ``skip`` (the proof is in :func:`latnorm.tnorm._preserves`,
        which names a failing row's witness by scanning it again over every
        pair). Memoised.
        """
        key = (op, skip)
        memo = self._memo.get(key)
        if memo is None:
            table = self.join_table if op == "join" else self.meet_table
            irreducible = self.ji_mask if op == "join" else self.mi_mask
            full, ups, downs = self.full_mask, self.ups, self.downs
            plan = []
            for x in range(self.n):
                row = table[x]
                ys = full & ~(ups[x] | downs[x]) & -(2 << x)
                if not irreducible >> x & 1:
                    ys &= irreducible
                ys = tuple(y for y in iter_bits(ys) if row[y] != skip)
                if ys:
                    plan.append((x, ys))
            memo = self._memo[key] = tuple(plan)
        return memo

    # -- serialization -----------------------------------------------------------

    def covers_named(self) -> list[tuple[str, str]]:
        return [(self.names[lo], self.names[hi]) for lo, hi in self.covers]

    def to_json_obj(self) -> dict:
        return {
            "elements": list(self.names),
            "covers": [[lo, hi] for lo, hi in self.covers_named()],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def to_dot(self) -> str:
        """Cover diagram in DOT form, bottom-to-top ranks, deterministic order."""

        def q(s: str) -> str:
            return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'

        lines = ["digraph lattice {", "  rankdir=BT;"]
        lines += [f"  {q(name)} [label={q(name)}];" for name in self.names]
        lines += [f"  {q(self.names[lo])} -> {q(self.names[hi])};" for lo, hi in self.covers]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        """Canonical hash of the element list and cover relation."""
        fp = self._memo.get("fingerprint")
        if fp is None:
            blob = json.dumps(self.to_json_obj(), separators=(",", ":")).encode()
            fp = self._memo["fingerprint"] = hashlib.sha256(blob).hexdigest()
        return fp

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FiniteLattice)
            and self.names == other.names
            and self.covers == other.covers
        )

    def __hash__(self) -> int:
        return hash((self.names, self.covers))

    def __repr__(self) -> str:
        return f"FiniteLattice({self.n} elements, length {self.length})"


def lattice_from_covers(names: Sequence[str], covers: Iterable[Sequence[str]]) -> FiniteLattice:
    """Build and validate a lattice from element labels and cover pairs.

    The order relation is the reflexive-transitive closure of the pairs;
    the stored cover list is its transitive reduction, so redundant input
    pairs are normalized away. One topological order of the pairs gives
    everything else: the cycle test, the up-sets (walked backwards), the
    down-sets and the length; the covers are the input pairs with nothing
    strictly between their ends. Fails if the closure has a cycle, if there
    is no unique bottom or top, or if some pair lacks a unique meet or
    join.
    """
    names = list(names)
    if not names:
        raise NoBottom("a lattice needs at least one element")
    index: dict[str, int] = {}
    for name in names:
        if name in index:
            raise DuplicateLabel(f"element {name!r} declared twice")
        index[name] = len(index)
    n = len(names)

    adj: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for pair in covers:
        lo, hi = pair
        if lo not in index:
            raise UnknownLabel(f"cover pair references unknown element {lo!r}")
        if hi not in index:
            raise UnknownLabel(f"cover pair references unknown element {hi!r}")
        if lo == hi:
            raise CycleDetected(f"cover pair ({lo!r}, {hi!r}) is a self-loop")
        adj[index[lo]].append(index[hi])
        pred[index[hi]].append(index[lo])

    # one topological order of the input pairs (Kahn's) feeds everything below
    indegree = [len(p) for p in pred]
    order = [x for x in range(n) if not indegree[x]]
    for x in order:
        for hi in adj[x]:
            indegree[hi] -= 1
            if not indegree[hi]:
                order.append(hi)
    if len(order) < n:
        # an element left out has a predecessor left out, so n steps back
        # from one lands on a cycle
        x = next(x for x in range(n) if indegree[x])
        for _ in range(n):
            x = next(lo for lo in pred[x] if indegree[lo])
        raise CycleDetected(f"cover relation has a cycle through {names[x]!r}")

    ups = [0] * n
    for x in reversed(order):
        mask = 1 << x
        for hi in adj[x]:
            mask |= ups[hi]
        ups[x] = mask
    downs = [0] * n
    for x in order:
        mask = 1 << x
        for lo in pred[x]:
            mask |= downs[lo]
        downs[x] = mask

    minimal = [i for i in range(n) if downs[i] == 1 << i]
    if len(minimal) != 1:
        raise NoBottom(f"expected one minimal element, found {[names[i] for i in minimal]}")
    maximal = [i for i in range(n) if ups[i] == 1 << i]
    if len(maximal) != 1:
        raise NoTop(f"expected one maximal element, found {[names[i] for i in maximal]}")
    bottom, top = minimal[0], maximal[0]

    # x and y have a meet exactly when their common down-set is itself the
    # down-set of some element, which is then the meet; joins likewise
    # with up-sets. Masks are distinct because the order is antisymmetric.
    by_downs = {d: x for x, d in enumerate(downs)}
    by_ups = {u: x for x, u in enumerate(ups)}
    meet_table = [[0] * n for _ in range(n)]
    join_table = [[0] * n for _ in range(n)]
    for xi in range(n):
        dx, ux = downs[xi], ups[xi]
        for yi in range(xi, n):
            g = by_downs.get(dx & downs[yi])
            if g is None:
                raise NotALattice((names[xi], names[yi]), "meet")
            meet_table[xi][yi] = meet_table[yi][xi] = g
            s = by_ups.get(ux & ups[yi])
            if s is None:
                raise NotALattice((names[xi], names[yi]), "join")
            join_table[xi][yi] = join_table[yi][xi] = s

    # A cover of the closure is itself an input pair: a longer path from lo
    # to hi would put an element strictly between them. So filtering the
    # input pairs gives the transitive reduction.
    reduced = sorted({(lo, hi) for lo in range(n) for hi in adj[lo] if ups[lo] & downs[hi] == 1 << lo | 1 << hi})
    lower: list[list[int]] = [[] for _ in range(n)]
    upper = [0] * n
    for lo, hi in reduced:
        lower[hi].append(lo)
        upper[lo] += 1
    # longest chain: lower covers come earlier in the order
    height = [0] * n
    for x in order:
        height[x] = max((height[lo] + 1 for lo in lower[x]), default=0)
    return FiniteLattice(
        names=tuple(names),
        _index=index,
        ups=tuple(ups),
        downs=tuple(downs),
        covers=tuple(reduced),
        meet_table=tuple(tuple(row) for row in meet_table),
        join_table=tuple(tuple(row) for row in join_table),
        bottom=bottom,
        top=top,
        atoms_mask=sum(1 << x for x in range(n) if lower[x] == [bottom]),
        ji_mask=sum(1 << x for x in range(n) if len(lower[x]) == 1),
        mi_mask=sum(1 << x for x in range(n) if upper[x] == 1),
        length=max(height),
        full_mask=(1 << n) - 1,
        _memo={},
    )


def induced_sublattice(parent: FiniteLattice, members: ElementSet) -> FiniteLattice:
    """Materialize the sub-poset on ``members`` as its own lattice.

    Elements keep their parent names and relative order. Every comparable
    pair of members goes to :func:`lattice_from_covers`, which reduces them
    to the covers. Raises :class:`NoBottom` or :class:`NoTop` when the
    members have no least or greatest element (``{a, b, 1}`` of M3 has no
    least one) and :class:`NotALattice` when some pair of them lacks a
    meet or join among them.
    """
    if members.lattice is not parent:
        raise LatticeMismatch("members belong to a different lattice")
    names = parent.names
    pairs = [(names[a], names[b]) for a in members for b in iter_bits(parent.ups[a] & members.mask & ~(1 << a))]
    return lattice_from_covers(members.names(), pairs)


def powerset_lattice(k: int) -> FiniteLattice:
    """Boolean lattice of all subsets of ``k`` atoms, ordered by inclusion.

    Atoms are named a, b, c, ...; an element's name concatenates its atom
    letters ("0" for the empty set), and elements come in subset-mask
    order. Built through :func:`lattice_from_covers` like every lattice.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > POWERSET_MAX_ATOMS:
        raise BoundExceeded(f"powerset bound is {POWERSET_MAX_ATOMS} atoms, got {k}")
    letters = [chr(ord("a") + i) for i in range(k)]
    names = ["0" if s == 0 else "".join(letters[i] for i in iter_bits(s)) for s in range(1 << k)]
    covers = [(names[s], names[s | 1 << i]) for s in range(1 << k) for i in range(k) if not s >> i & 1]
    return lattice_from_covers(names, covers)


def lattice_from_json_obj(obj: dict) -> FiniteLattice:
    if not isinstance(obj, dict) or "elements" not in obj or "covers" not in obj:
        raise ValueError('lattice JSON needs "elements" and "covers" keys')
    elements, covers = obj["elements"], obj["covers"]
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise ValueError('lattice JSON "elements" must be a list of strings')
    if not isinstance(covers, list) or not all(
        isinstance(c, list) and len(c) == 2 and all(isinstance(e, str) for e in c) for c in covers
    ):
        raise ValueError('lattice JSON "covers" must be a list of pairs of strings')
    return lattice_from_covers(elements, covers)


def lattice_from_json(text: str) -> FiniteLattice:
    return lattice_from_json_obj(json.loads(text))


def load_lattice(path) -> FiniteLattice:
    with open(path, encoding="utf-8") as fh:
        return lattice_from_json(fh.read())
