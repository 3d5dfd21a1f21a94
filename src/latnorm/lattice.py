"""Finite bounded lattices: construction, validation and order-theoretic queries.

Elements are identified by their position in the input element list (the
"file order"); every table and export keeps that order so golden files are
byte-stable. Every lattice is built and validated by one constructor,
:func:`lattice_from_covers`. Order data is held as per-element bitmasks:
a meet is the element whose down-set is the common down-set, a join the
one whose up-set is the common up-set, so each is one lookup of a mask.
No n×n table is built with the lattice or kept on it: lattice-ness is
decided on pairs of lower covers, and each table derived from the order
lives with the module that reads it (the meet table is ``tnorm.t_min``).
That keeps construction fast enough for exhaustive desk-scale work. A
lattice's ``_memo`` holds what is derived from it on first use: this
module writes the fingerprint and the atom keys, :mod:`latnorm.tnorm` the
set of element ids, the comparable pairs and the continuity scans.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
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

    Two sets are equal only when they belong to the same lattice object;
    combine sets through their masks. Immutable, since it hashes by its
    mask.
    """

    __slots__ = ("lattice", "mask")

    def __init__(self, lattice: "FiniteLattice", mask: int):
        if mask < 0 or mask >> lattice.n:
            raise ValueError(f"mask {mask:#x} has bits outside the {lattice.n}-element universe")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("ElementSet is immutable")

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
    The lattice holds the order and its masks. ``_memo`` keeps, for the
    lattice's life, what is derived from it alone on first use: the
    fingerprint and the atom keys, written here, and the set of element
    ids, the comparable pairs and the continuity scans' pair listings,
    written by :mod:`latnorm.tnorm`. Equality, hashing and serialization
    never read it. Meets are read off ``_by_downs``, the map from each
    element's down-set mask to the element, and joins off ``_by_ups``,
    its dual.
    """

    __slots__ = (
        "names",
        "_index",
        "ups",
        "downs",
        "covers",
        "_by_downs",
        "_by_ups",
        "bottom",
        "top",
        "atoms_mask",
        "ji_mask",
        "mi_mask",
        "length",
        "full_mask",
        "_memo",
    )

    def __init__(
        self, names, _index, ups, downs, covers, _by_downs, _by_ups, bottom, top,
        atoms_mask, ji_mask, mi_mask, length, full_mask, _memo,
    ):
        # one parameter per slot, in slot order, each set through its slot
        # descriptor (``__setattr__`` refuses every write)
        s = _SLOT_SETTERS
        s[0](self, names)
        s[1](self, _index)
        s[2](self, ups)
        s[3](self, downs)
        s[4](self, covers)
        s[5](self, _by_downs)
        s[6](self, _by_ups)
        s[7](self, bottom)
        s[8](self, top)
        s[9](self, atoms_mask)
        s[10](self, ji_mask)
        s[11](self, mi_mask)
        s[12](self, length)
        s[13](self, full_mask)
        s[14](self, _memo)

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
        return self._by_downs[self.downs[x] & self.downs[y]]

    def join(self, x: int, y: int) -> int:
        return self._by_ups[self.ups[x] & self.ups[y]]

    def join_all(self, elements: Iterable[int]) -> int:
        """Join of an arbitrary finite family; the empty join is bottom.

        The upper bounds of the family are the common up-set, the AND of
        the members' up-sets (every element for the empty family), and
        the join is its least element: the one whose up-set it is.
        """
        mask = self.full_mask
        ups = self.ups
        for e in elements:
            mask &= ups[e]
        return self._by_ups[mask]

    def element_set(self, members: Iterable[int | str]) -> ElementSet:
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
            if self.meet(a, rest) != self.bottom:
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

    def atom_keys(self) -> tuple[tuple[int, ...], "AtomJoins"]:
        """Each element's atom key, and the joins of atom keys.

        Number the atoms 0..k-1 in element order; the key of a set of
        atoms has bit i for atom i. ``keys[x]`` is the key of the atoms
        below x, so the key of the atoms below x ∧ y is ``keys[x] &
        keys[y]``. ``joins[key]`` is the join of the key's atoms, each
        computed on first lookup. Both are kept for the lattice's life, so
        every lift on it shares them.
        """
        found = self._memo.get("atom_keys")
        if found is None:
            keys = [0] * self.n
            atoms = tuple(iter_bits(self.atoms_mask))
            for i, a in enumerate(atoms):
                bit = 1 << i
                for x in iter_bits(self.ups[a]):
                    keys[x] |= bit
            joins = AtomJoins(tuple(self.ups[a] for a in atoms), self._by_ups, self.full_mask)
            found = self._memo["atom_keys"] = (tuple(keys), joins)
        return found

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


class AtomJoins(dict):
    """Map from an atom key (see :meth:`FiniteLattice.atom_keys`) to the
    join of its atoms, filled on first lookup: the join is the element
    whose up-set is the AND of the atoms' up-sets."""

    __slots__ = ("_atom_ups", "_by_ups", "_full")

    def __init__(self, atom_ups: tuple[int, ...], by_ups: dict, full: int):
        super().__init__()
        self._atom_ups = atom_ups
        self._by_ups = by_ups
        self._full = full

    def __missing__(self, key: int) -> int:
        mask = self._full
        for i in iter_bits(key):
            mask &= self._atom_ups[i]
        join = self[key] = self._by_ups[mask]
        return join


_SLOT_SETTERS = tuple(FiniteLattice.__dict__[slot].__set__ for slot in FiniteLattice.__slots__)


def lattice_from_covers(names: Sequence[str], covers: Iterable[Sequence[str]]) -> FiniteLattice:
    """Build and validate a lattice from element labels and cover pairs.

    The order relation is the reflexive-transitive closure of the pairs;
    the stored cover list is its transitive reduction, so redundant input
    pairs are normalized away. One topological order of the pairs gives
    everything else: the cycle test, the length, the up-sets (walked
    backwards) and the down-sets; the covers are the input pairs with
    nothing strictly between their ends. Fails if the closure has a cycle,
    if there is no unique bottom or top, or if some pair lacks a unique
    meet or join.

    The length is the longest path over the input pairs, relaxed along the
    topological order. That is the longest chain of covers: each input
    pair is a strict step, so a path of k pairs is a chain of k + 1
    elements, and a chain refines to a chain of covers at least as long;
    conversely every cover is an input pair (see ``reduced`` below), so a
    chain of covers is a path of pairs. Join-irreducibles and
    meet-irreducibles are the elements with exactly one lower or upper
    cover, counted off the reduced pairs; the atoms are the
    join-irreducibles whose down-set is themselves and bottom.

    Lattice-ness is decided on pairs of lower covers. In a finite poset
    with a unique maximal element, that element is the top, since every
    element lies below some maximal one. Such a poset is a lattice
    exactly when every two lower covers x, y of a common element have a
    meet, which holds when ``downs[x] & downs[y]`` is the down-set of some
    element. Necessity is plain. For sufficiency, show by induction up
    the order that any a, b <= z have a meet, for every z. If a or b is
    z, the meet is the other. Otherwise take lower covers a1 of z above a
    and b1 of z above b, and let c = a1 ∧ b1, which exists by the
    assumption. Now a, c <= a1 < z, so d = a ∧ c exists by induction,
    and d, b <= b1 < z, so e = d ∧ b exists. e is a lower bound of a and
    b, and any lower bound l of a and b lies below a1 and b1, so below
    c, so below d, so below e: e = a ∧ b. With z = top, every pair has a
    meet, and so does every nonempty finite set, by induction. Then x and
    y have a join: their common upper bounds form a set U that holds
    top, and x and y are lower bounds of U, so they lie below its meet
    m, which is then in U and least in it. 2^8 has 1,792 such pairs,
    against 32,896 cells on and above the diagonal of its meet table.
    When a meet is missing, the pairs xi <= yi are swept in file order,
    meet before join at each pair (a join may be missing at an earlier
    pair), and :class:`NotALattice` names the first pair and kind
    missing.
    """
    names = list(names)
    n = len(names)
    if not n:
        raise NoBottom("a lattice needs at least one element")
    index = dict(zip(names, range(n)))
    if len(index) < n:
        seen: set[str] = set()
        for name in names:
            if name in seen:
                raise DuplicateLabel(f"element {name!r} declared twice")
            seen.add(name)

    adj: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    get = index.get
    for lo, hi in covers:
        x, y = get(lo), get(hi)
        if x is None:
            raise UnknownLabel(f"cover pair references unknown element {lo!r}")
        if y is None:
            raise UnknownLabel(f"cover pair references unknown element {hi!r}")
        if x == y:
            raise CycleDetected(f"cover pair ({lo!r}, {hi!r}) is a self-loop")
        adj[x].append(y)
        pred[y].append(x)

    # one topological order of the input pairs (Kahn's) feeds everything
    # below; when x is taken from the order, all its predecessors have
    # been, so height[x] is the longest path of pairs ending at x
    indegree = [len(p) for p in pred]
    order = [x for x in range(n) if not indegree[x]]
    height = [0] * n
    for x in order:
        step = height[x] + 1
        for hi in adj[x]:
            if height[hi] < step:
                height[hi] = step
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

    # A cover of the closure is itself an input pair: a longer path from lo
    # to hi would put an element strictly between them. So filtering the
    # input pairs gives the transitive reduction.
    reduced = sorted({(lo, hi) for lo in range(n) for hi in adj[lo] if ups[lo] & downs[hi] == 1 << lo | 1 << hi})
    lower: list[list[int]] = [[] for _ in range(n)]
    upper = [0] * n
    for lo, hi in reduced:
        lower[hi].append(lo)
        upper[lo] += 1

    # x and y have a meet exactly when their common down-set is itself the
    # down-set of some element, which is then the meet; joins likewise
    # with up-sets. Masks are distinct because the order is antisymmetric.
    by_downs = dict(zip(downs, range(n)))
    by_ups = dict(zip(ups, range(n)))
    for covered in lower:
        for x, y in combinations(covered, 2):
            if downs[x] & downs[y] not in by_downs:
                raise _first_missing(names, downs, ups, by_downs, by_ups)

    atoms_mask = ji_mask = mi_mask = 0
    bottom_bit = 1 << bottom
    for x in range(n):
        bit = 1 << x
        if len(lower[x]) == 1:
            ji_mask |= bit
            if downs[x] == bit | bottom_bit:
                atoms_mask |= bit
        if upper[x] == 1:
            mi_mask |= bit
    # in slot order: a class call packs keyword arguments into a dict
    return FiniteLattice(
        tuple(names),
        index,
        tuple(ups),
        tuple(downs),
        tuple(reduced),
        by_downs,
        by_ups,
        bottom,
        top,
        atoms_mask,
        ji_mask,
        mi_mask,
        max(height),
        (1 << n) - 1,
        {},
    )


def _first_missing(names, downs, ups, by_downs, by_ups) -> NotALattice:
    """The error for the first pair xi <= yi, in file order, that lacks a
    meet or, after it, a join."""
    n = len(names)
    for xi in range(n):
        dx, ux = downs[xi], ups[xi]
        for yi in range(xi, n):
            if dx & downs[yi] not in by_downs:
                return NotALattice((names[xi], names[yi]), "meet")
            if ux & ups[yi] not in by_ups:
                return NotALattice((names[xi], names[yi]), "join")
    raise AssertionError("every pair has a meet and a join")


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
