"""Atom-based generation of t-norms on atomistic lattices.

The pipeline: take the skeleton sub-lattice (atoms plus bottom and top),
enumerate its t-norms (each one is determined by the set of atoms left
idempotent on the diagonal), and lift each of them to the full lattice.
The lifted family is order-isomorphic to the powerset of the atoms.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    DegenerateLength,
    DegenerateLengthWarning,
    LatnormError,
    LatticeMismatch,
    NonAtomInAlpha,
    NotAtomistic,
)
from .lattice import DEFAULT_ATOM_CAP, ElementSet, FiniteLattice, induced_sublattice, iter_bits
from .tnorm import TNormTable, Verdict, OK, tnorm_le


class AtomSelection(ElementSet):
    """A subset of a lattice's atoms, the parameter of one generated t-norm.

    An :class:`ElementSet` that holds atoms only; it equals a plain element
    set with the same lattice and mask.
    """

    __slots__ = ()

    def __init__(self, lattice: FiniteLattice, mask: int):
        super().__init__(lattice, mask)
        if mask & ~lattice.atoms_mask:
            bad = ElementSet(lattice, mask & ~lattice.atoms_mask)
            raise NonAtomInAlpha(f"not atoms: {', '.join(bad.names())}")

    @classmethod
    def from_names(cls, lat: FiniteLattice, names) -> "AtomSelection":
        return cls(lat, lat.element_set(names).mask)

    def label(self) -> str:
        """Filename-friendly label: member names joined in element order."""
        return "_".join(self.names()) if self else "empty"


@dataclass(frozen=True)
class AtomSkeleton:
    """The sub-lattice of atoms together with bottom and top.

    ``lattice`` is the materialized skeleton (length at most 2, always a
    lattice), whose element ids follow ``members``; ``from_parent`` maps
    each member's parent id to its skeleton id.
    """

    parent: FiniteLattice
    members: ElementSet
    lattice: FiniteLattice
    from_parent: dict


def skeleton(lat: FiniteLattice) -> AtomSkeleton:
    """Build the atoms-plus-bounds sub-lattice.

    The generation theory needs an atomistic parent of length at least 2;
    shorter lattices degenerate (the skeleton is the lattice itself) and
    only warn. Non-atomistic parents are rejected.
    """
    if not lat.is_atomistic():
        raise NotAtomistic("skeleton generation needs an atomistic lattice")
    if lat.length <= 1:
        warnings.warn(
            f"lattice has length {lat.length}; the skeleton equals the lattice and "
            "the generated family collapses to the unique t-norm",
            DegenerateLengthWarning,
            stacklevel=2,
        )
    members = ElementSet(lat, lat.atoms_mask | 1 << lat.bottom | 1 << lat.top)
    return AtomSkeleton(
        parent=lat,
        members=members,
        lattice=induced_sublattice(lat, members),
        from_parent={p: i for i, p in enumerate(members)},
    )


def skeleton_tnorm(skel: AtomSkeleton, selection: AtomSelection) -> TNormTable:
    """The skeleton t-norm with exactly the selected atoms idempotent.

    Rows and columns of top act as identity, selected atoms are fixed on
    the diagonal, and everything else is bottom. Always a t-norm.
    """
    if selection.lattice is not skel.parent:
        raise LatticeMismatch("selection belongs to a different lattice")
    sub = skel.lattice
    n = sub.n
    bot, top = sub.bottom, sub.top
    chosen = {skel.from_parent[a] for a in selection}
    tbl = [[bot] * n for _ in range(n)]
    for x in range(n):
        tbl[x][top] = x
        tbl[top][x] = x
        if x in chosen:
            tbl[x][x] = x
    return TNormTable(sub, tbl)


def enumerate_skeleton_tnorms(skel: AtomSkeleton, cap: int = DEFAULT_ATOM_CAP):
    """Stream one skeleton t-norm per subset of the atoms other than top, in mask order.

    Top is an atom only on a 2-element chain, where selecting it changes
    no table, so every lattice of length at most 1 has the single empty
    selection. More than ``cap`` such atoms raise :class:`BoundExceeded`.
    """
    lat = skel.parent
    atoms = list(iter_bits(lat.atoms_mask & ~(1 << lat.top)))
    k = len(atoms)
    if k > cap:
        raise BoundExceeded(f"{k} atoms exceeds the enumeration cap {cap}")
    for sub in range(1 << k):
        mask = 0
        for i in iter_bits(sub):
            mask |= 1 << atoms[i]
        selection = AtomSelection(lat, mask)
        yield selection, skeleton_tnorm(skel, selection)


def lift(lat: FiniteLattice, t_on_skeleton: TNormTable) -> TNormTable:
    """Extend a skeleton t-norm to the whole atomistic lattice.

    Off the top row/column the value is the join of the idempotent atoms
    below the meet of the arguments; this closed form agrees with the
    double join over all atoms below each argument (kept as a test
    oracle) and always yields a t-norm.

    The atoms below x ∧ y are those below both x and y, so with the atom
    keys of :meth:`FiniteLattice.atom_keys` and the key ``sel`` of the
    idempotent atoms, T(x, y) = join(keys[x] & keys[y] & sel) off top.
    The selection is read off the keys too: an atom's key is its own
    bit, so ``sel`` is the OR of ``keys[p]`` over the idempotent atoms p.
    Row x depends only on keys[x] & sel, so one row is computed per
    distinct such key and copied to each of its elements with column top
    set to x. No meet table is read.

    The table's elements must be named, in order, as the bottom, the
    atoms and the top of ``lat``: a missing name raises
    :class:`UnknownLabel`, any other list :class:`LatticeMismatch`.
    """
    if not lat.is_atomistic():
        raise NotAtomistic("lift needs an atomistic lattice")
    ids = [lat.index(name) for name in t_on_skeleton.lattice.names]
    if ids != list(iter_bits(lat.atoms_mask | 1 << lat.bottom | 1 << lat.top)):
        raise LatticeMismatch("table is not on the skeleton of this lattice")
    on_skeleton = t_on_skeleton.table
    keys, joins = lat.atom_keys()
    # sel is the key of the idempotent atoms, an atom's key its own bit.
    # The atom guard matters: keys[top] holds every atom. sel may hold
    # top's bit: top is an atom only on the 2-element chain, where only
    # row and column top, both set apart below, lie above it
    am = lat.atoms_mask
    sel = 0
    for i, p in enumerate(ids):
        if am >> p & 1 and on_skeleton[i][i] == i:
            sel |= keys[p]
    keys = [k & sel for k in keys]
    n = lat.n
    top = lat.top
    rows = {}
    tbl = []
    for x, kx in enumerate(keys):
        row = rows.get(kx)
        if row is None:
            row = rows[kx] = list(map(joins.__getitem__, map(kx.__and__, keys)))
        row[top] = x
        tbl.append(tuple(row))
    tbl[top] = tuple(range(n))
    return TNormTable(lat, tbl)


@dataclass(frozen=True)
class GeneratedTNorm:
    """One member of the generated family: selection, skeleton table, lift."""

    selection: AtomSelection
    on_skeleton: TNormTable
    lifted: TNormTable


def generated_family(lat: FiniteLattice, atom_cap: int = DEFAULT_ATOM_CAP) -> list[GeneratedTNorm]:
    """All lifted t-norms, one per selection of :func:`enumerate_skeleton_tnorms`, in mask order.

    On lattices of length at most 1 that is the unique t-norm under the
    empty selection, and :func:`skeleton` warns.
    """
    skel = skeleton(lat)
    family = []
    seen = set()
    for selection, on_c in enumerate_skeleton_tnorms(skel, cap=atom_cap):
        lifted = lift(lat, on_c)
        if lifted.table in seen:
            raise LatnormError("duplicate lift; the generated family must be pairwise distinct")
        seen.add(lifted.table)
        family.append(GeneratedTNorm(selection, on_c, lifted))
    return family


def idempotents_via_independence(g: GeneratedTNorm) -> ElementSet:
    """Idempotents of the lift, classified through independent atom sets.

    An element x outside the bounds is idempotent exactly when some
    maximal independent subset of the atoms below x lies inside the
    selection and joins back to x. The join-back requirement matters:
    maximal independent subsets can join strictly below x when the
    lattice is not semimodular.
    """
    lat = g.lifted.lattice
    alpha = g.selection.mask
    mask = 1 << lat.bottom | 1 << lat.top
    for x in range(lat.n):
        if x == lat.bottom or x == lat.top:
            continue
        for b in lat.maximal_independent_subsets(lat.atoms_below(x)):
            if b.mask & ~alpha == 0 and lat.join_all(b) == x:
                mask |= 1 << x
                break
    return ElementSet(lat, mask)


def semicontinuity_criterion(lat: FiniteLattice, selection: AtomSelection) -> Verdict:
    """Decide left-semicontinuity of the lift from the selection alone.

    The lift fails left-semicontinuity exactly when some selected atom u
    sits below the join of the elements below some z < top that do not
    dominate u; the pair (u, z) is then the witness. Single-element
    witnesses z are equivalent to quantifying over arbitrary families
    (the family's join serves as z, and the witness set serves as the
    family), which keeps the check polynomial.

    The gathered join runs over the join-irreducibles below z that do not
    dominate u, and that is the same element: every w below z that does
    not dominate u is the join of the join-irreducibles below w, and none
    of those dominates u either, since w would then dominate u.
    """
    if selection.lattice is not lat:
        raise LatticeMismatch("selection belongs to a different lattice")
    top = lat.top
    for u in selection:
        candidates = lat.ji_mask & ~lat.ups[u]
        for z in range(lat.n):
            if z == top:
                continue
            gathered = lat.join_all(iter_bits(lat.downs[z] & candidates))
            if lat.leq(u, gathered):
                return Verdict(False, "left-semicontinuity-criterion", (lat.name(u), lat.name(z)))
    return OK


def family_powerset_isomorphism(lat: FiniteLattice, family: list[GeneratedTNorm]) -> Verdict:
    """Verify that selection inclusion is exactly the pointwise order of the lifts.

    ``family`` is the lifted family of ``lat``, one member per subset of
    the atoms. Two linear sweeps decide the statement:

    - every one-atom step holds: lift(m) <= lift(m + {a}) for each member
      m and each atom a not in m;
    - no singleton lies below its complement: lift({a}) is not below
      lift(atoms - {a}) for any atom a.

    Both sweeps are instances of the statement. Conversely, the pointwise
    order is transitive, so the steps give inclusion => order. And if S is
    not inside T, take a in S - T: lift(S) <= lift(T) would give
    lift({a}) <= lift(S) <= lift(T) <= lift(atoms - {a}), which the second
    sweep rules out. Two equal lifts fail the same way. Only when a sweep
    fails are the pairs walked in family order; the witness is the labels
    of the first pair whose inclusion and order disagree.

    Once inclusion matches the order in both directions, the family is
    order-isomorphic to the atom powerset: joins are unions, meets are
    intersections and complementary selections give complements. On a
    Boolean lattice, where x <= y exactly when the atoms below x lie
    below y, the family is then also order-isomorphic to the lattice
    itself.
    """
    if lat.length <= 1:
        raise DegenerateLength("the family collapses on lattices of length at most 1")
    full = lat.atoms_mask
    lifts = {g.selection.mask: g.lifted for g in family}
    steps = all(tnorm_le(t, lifts[m | 1 << a]) for m, t in lifts.items() for a in iter_bits(full & ~m))
    if steps and not any(tnorm_le(lifts[1 << a], lifts[full & ~(1 << a)]) for a in iter_bits(full)):
        return OK
    gi, gj = next(
        (gi, gj)
        for gi in family
        for gj in family
        if (gi.selection.mask & ~gj.selection.mask == 0) != tnorm_le(gi.lifted, gj.lifted)
    )
    return Verdict(False, "family-isomorphism", (gi.selection.label(), gj.selection.label()))
