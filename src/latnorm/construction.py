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
from .lattice import ElementSet, FiniteLattice, induced_sublattice, iter_bits
from .tnorm import FamilyOrder, TNormTable, Verdict, OK

DEFAULT_ATOM_CAP = 20
ISOMORPHISM_ATOM_CAP = 6  # the isomorphism check compares 4^k pairs of lifts


@dataclass(frozen=True)
class AtomSelection:
    """A subset of a lattice's atoms, the parameter of one generated t-norm."""

    members: ElementSet

    def __post_init__(self):
        lat = self.members.lattice
        if self.members.mask & ~lat.atoms_mask:
            bad = ElementSet(lat, self.members.mask & ~lat.atoms_mask)
            raise NonAtomInAlpha(f"not atoms: {', '.join(bad.names())}")

    @classmethod
    def from_names(cls, lat: FiniteLattice, names) -> "AtomSelection":
        return cls(lat.element_set(names))

    @classmethod
    def from_mask(cls, lat: FiniteLattice, mask: int) -> "AtomSelection":
        return cls(ElementSet(lat, mask))

    @property
    def lattice(self) -> FiniteLattice:
        return self.members.lattice

    @property
    def mask(self) -> int:
        return self.members.mask

    def names(self) -> tuple[str, ...]:
        return self.members.names()

    def label(self) -> str:
        """Filename-friendly label: member names joined in element order."""
        return "_".join(self.names()) if self.members else "empty"

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, element: int) -> bool:
        return element in self.members


@dataclass(frozen=True)
class AtomSkeleton:
    """The sub-lattice of atoms together with bottom and top.

    ``lattice`` is the materialized skeleton (length at most 2, always a
    lattice); ``to_parent[i]`` maps its element ids back into the parent.
    """

    parent: FiniteLattice
    members: ElementSet
    lattice: FiniteLattice
    to_parent: tuple[int, ...]
    from_parent: dict


def skeleton(lat: FiniteLattice, allow_non_atomistic: bool = False) -> AtomSkeleton:
    """Build the atoms-plus-bounds sub-lattice.

    The generation theory needs an atomistic parent of length at least 2;
    shorter lattices degenerate (the skeleton is the lattice itself) and
    only warn. Non-atomistic parents are rejected unless explicitly
    allowed for diagnostics.
    """
    if not allow_non_atomistic and not lat.is_atomistic():
        raise NotAtomistic("skeleton generation needs an atomistic lattice (or allow_non_atomistic=True)")
    if lat.length <= 1:
        warnings.warn(
            f"lattice has length {lat.length}; the skeleton equals the lattice and "
            "the generated family collapses to the unique t-norm",
            DegenerateLengthWarning,
            stacklevel=2,
        )
    members = ElementSet(lat, lat.atoms_mask | 1 << lat.bottom | 1 << lat.top)
    sub = induced_sublattice(lat, members)
    to_parent = tuple(members)
    return AtomSkeleton(
        parent=lat,
        members=members,
        lattice=sub,
        to_parent=to_parent,
        from_parent={p: i for i, p in enumerate(to_parent)},
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
        tbl[x][top] = sub.meet(x, top)
        tbl[top][x] = sub.meet(top, x)
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
        selection = AtomSelection.from_mask(lat, mask)
        yield selection, skeleton_tnorm(skel, selection)


def lift(lat: FiniteLattice, t_on_skeleton: TNormTable) -> TNormTable:
    """Extend a skeleton t-norm to the whole atomistic lattice.

    Off the top row/column the value is the join of the idempotent atoms
    below the meet of the arguments; this closed form agrees with the
    double join over all atoms below each argument (kept as a test
    oracle) and always yields a t-norm.
    """
    if not lat.is_atomistic():
        raise NotAtomistic("lift needs an atomistic lattice")
    sub = t_on_skeleton.lattice
    idem_mask = 0
    for ci in range(sub.n):
        if ci != sub.bottom and ci != sub.top and t_on_skeleton.table[ci][ci] == ci:
            idem_mask |= 1 << lat.index(sub.names[ci])
    # top can be an atom only in the degenerate length-1 case; there the
    # formula below never consults idem_mask
    n = lat.n
    top = lat.top
    am = lat.atoms_mask
    spans = [lat.join_all(iter_bits(am & lat.downs[z] & idem_mask)) for z in range(n)]
    meet = lat.meet_table
    tbl = [[0] * n for _ in range(n)]
    for x in range(n):
        row = tbl[x]
        if x == top:
            for y in range(n):
                row[y] = y
        else:
            mrow = meet[x]
            for y in range(n):
                row[y] = x if y == top else spans[mrow[y]]
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
    """
    if selection.lattice is not lat:
        raise LatticeMismatch("selection belongs to a different lattice")
    top = lat.top
    for u in selection:
        not_above_u = ~lat.ups[u]
        for z in range(lat.n):
            if z == top:
                continue
            gathered = lat.join_all(iter_bits(lat.downs[z] & not_above_u))
            if lat.leq(u, gathered):
                return Verdict(False, "left-semicontinuity-criterion", (lat.name(u), lat.name(z)))
    return OK


@dataclass
class FamilyIsomorphismReport:
    """Outcome of checking the generated family against the atom powerset."""

    passed: bool
    failures: list[str]
    family: list[GeneratedTNorm]
    boolean_self_isomorphic: bool | None

    def selection_of(self, table: TNormTable) -> AtomSelection | None:
        for g in self.family:
            if g.lifted == table:
                return g.selection
        return None


def family_powerset_isomorphism(lat: FiniteLattice, atom_cap: int = ISOMORPHISM_ATOM_CAP) -> FamilyIsomorphismReport:
    """Verify that selections order-embed onto the lifted family.

    Checks, all by exhaustive comparison inside the family poset:
    inclusion of selections matches pointwise order of lifts in both
    directions; joins and meets of family members are realized by union
    and intersection of selections; complementary selections give
    complements. On a powerset-isomorphic lattice the family is
    additionally matched order-isomorphically against the lattice itself.
    """
    if lat.length <= 1:
        raise DegenerateLength("the family collapses on lattices of length at most 1")
    k = lat.atoms_mask.bit_count()
    if k > atom_cap:
        raise BoundExceeded(f"{k} atoms exceeds the isomorphism-check cap {atom_cap}")
    family = generated_family(lat, atom_cap=atom_cap)
    failures: list[str] = []
    # the family is pairwise distinct, so member ids are family positions
    order = FamilyOrder(g.lifted for g in family)
    count = len(family)
    masks = [g.selection.mask for g in family]
    by_mask = {m: i for i, m in enumerate(masks)}
    for i in range(count):
        for j in range(count):
            inc = masks[i] & ~masks[j] == 0
            if inc != order.le(i, j):
                failures.append(
                    f"selection inclusion and pointwise order disagree on "
                    f"({family[i].selection.label()}, {family[j].selection.label()})"
                )
    for i in range(count):
        for j in range(count):
            join = order.lub(i, j)
            if join is None or masks[join] != masks[i] | masks[j]:
                failures.append(
                    f"join of ({family[i].selection.label()}, {family[j].selection.label()}) "
                    "is not the union selection"
                )
            meet = order.glb(i, j)
            if meet is None or masks[meet] != masks[i] & masks[j]:
                failures.append(
                    f"meet of ({family[i].selection.label()}, {family[j].selection.label()}) "
                    "is not the intersection selection"
                )
    full = lat.atoms_mask
    top_idx, bot_idx = by_mask[full], by_mask[0]
    for j in range(count):
        comp = by_mask[full & ~masks[j]]
        if order.lub(j, comp) != top_idx or order.glb(j, comp) != bot_idx:
            failures.append(f"complement of {family[j].selection.label()} fails the lattice laws")

    boolean_self = None
    if lat.is_boolean_atomistic():
        boolean_self = True
        image = {}
        for x in range(lat.n):
            image[x] = by_mask[lat.atoms_mask & lat.downs[x]]
        if len(set(image.values())) != lat.n or lat.n != count:
            boolean_self = False
            failures.append("atom-set map is not a bijection onto the family")
        else:
            for x in range(lat.n):
                for y in range(lat.n):
                    if lat.leq(x, y) != order.le(image[x], image[y]):
                        boolean_self = False
                        failures.append(
                            f"lattice order and family order disagree on "
                            f"({lat.name(x)}, {lat.name(y)})"
                        )
    return FamilyIsomorphismReport(not failures, failures, family, boolean_self)
