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
INDEPENDENCE_BASE_CAP = 20


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
    """

    __slots__ = ("lattice", "mask")

    def __init__(self, lattice: "FiniteLattice", mask: int):
        if mask < 0 or mask >> lattice.n:
            raise ValueError(f"mask {mask:#x} has bits outside the {lattice.n}-element universe")
        self.lattice = lattice
        self.mask = mask

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
        "length",
        "full_mask",
        "_fingerprint",
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

    def meet_all(self, elements: Iterable[int]) -> int:
        out = self.top
        row = self.meet_table
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

    def ji_below(self, x: int) -> ElementSet:
        return ElementSet(self, self.ji_mask & self.downs[x])

    def is_atomistic(self) -> bool:
        """True iff every element is the join of the atoms below it."""
        return all(self.join_all(iter_bits(self.atoms_mask & self.downs[x])) == x for x in range(self.n))

    def is_boolean_atomistic(self) -> bool:
        """True iff the lattice is atomistic and atom sets turn joins into unions.

        The pairwise form suffices: unions over arbitrary finite families
        follow by induction, with the empty family handled by A(0) = {}.
        A true result certifies that the lattice is isomorphic to the
        powerset of its atoms.
        """
        if not self.is_atomistic():
            return False
        am = self.atoms_mask
        downs = self.downs
        for x in range(self.n):
            ax = am & downs[x]
            for y in range(x, self.n):
                if am & downs[self.join_table[x][y]] != ax | (am & downs[y]):
                    return False
        return True

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
        if k > INDEPENDENCE_BASE_CAP:
            raise BoundExceeded(f"base has {k} elements, cap is {INDEPENDENCE_BASE_CAP}")
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
        fp = self._fingerprint
        if fp[0] is None:
            blob = json.dumps(self.to_json_obj(), separators=(",", ":")).encode()
            fp[0] = hashlib.sha256(blob).hexdigest()
        return fp[0]

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
    pairs are normalized away. Fails if the closure has a cycle, if there
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
    for pair in covers:
        lo, hi = pair
        if lo not in index:
            raise UnknownLabel(f"cover pair references unknown element {lo!r}")
        if hi not in index:
            raise UnknownLabel(f"cover pair references unknown element {hi!r}")
        if lo == hi:
            raise CycleDetected(f"cover pair ({lo!r}, {hi!r}) is a self-loop")
        adj[index[lo]].append(index[hi])

    # upward reachability with cycle detection (iterative DFS, three colors)
    ups = [0] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 done
    for root in range(n):
        if state[root]:
            continue
        stack = [(root, iter(adj[root]))]
        state[root] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state[nxt] == 1:
                    raise CycleDetected(f"cover relation has a cycle through {names[nxt]!r}")
                if state[nxt] == 0:
                    state[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                mask = 1 << node
                for nxt in adj[node]:
                    mask |= ups[nxt]
                ups[node] = mask
                state[node] = 2
                stack.pop()

    downs = [0] * n
    for i in range(n):
        for j in iter_bits(ups[i]):
            downs[j] |= 1 << i

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

    reduced = []
    for lo in range(n):
        for hi in iter_bits(ups[lo] & ~(1 << lo)):
            if ups[lo] & downs[hi] == (1 << lo) | (1 << hi):
                reduced.append((lo, hi))
    reduced.sort()

    atoms_mask = 0
    lower_cover_count = [0] * n
    up_adj: list[list[int]] = [[] for _ in range(n)]
    for lo, hi in reduced:
        lower_cover_count[hi] += 1
        up_adj[lo].append(hi)
        if lo == bottom:
            atoms_mask |= 1 << hi
    ji_mask = 0
    for x in range(n):
        if x != bottom and lower_cover_count[x] == 1:
            ji_mask |= 1 << x
    # longest chain: DP over a topological order of the cover DAG
    height = [0] * n
    for x in sorted(range(n), key=lambda v: downs[v].bit_count()):
        hx = height[x]
        for hi in up_adj[x]:
            if height[hi] < hx + 1:
                height[hi] = hx + 1
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
        atoms_mask=atoms_mask,
        ji_mask=ji_mask,
        length=max(height),
        full_mask=(1 << n) - 1,
        _fingerprint=[None],
    )


def induced_sublattice(parent: FiniteLattice, members: ElementSet) -> FiniteLattice:
    """Materialize the sub-poset on ``members`` as its own lattice.

    Elements keep their parent names and relative order. Raises
    :class:`NotALattice` when the induced order fails the lattice axioms.
    """
    if members.lattice is not parent:
        raise LatticeMismatch("members belong to a different lattice")
    ids = list(members)
    names = [parent.names[i] for i in ids]
    pos = {e: i for i, e in enumerate(ids)}
    covers = []
    for a in ids:
        for b in ids:
            if a != b and parent.leq(a, b):
                between = parent.ups[a] & parent.downs[b] & members.mask
                if between == (1 << a) | (1 << b):
                    covers.append((names[pos[a]], names[pos[b]]))
    return lattice_from_covers(names, covers)


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
    return lattice_from_covers(obj["elements"], obj["covers"])


def lattice_from_json(text: str) -> FiniteLattice:
    return lattice_from_json_obj(json.loads(text))


def load_lattice(path) -> FiniteLattice:
    with open(path, encoding="utf-8") as fh:
        return lattice_from_json(fh.read())
