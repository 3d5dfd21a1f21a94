"""Atomistic extension of a finite lattice and restriction back.

Every finite lattice embeds cover-preservingly into an atomistic one:
insert, under each join-irreducible p that is not an atom, a fresh atom
w_p squeezed between bottom and p. Lifted t-norms on the extension
restrict to t-norms on the original exactly when they never land on an
inserted atom; that closure gate is decidable from the selection alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConditionCViolated, DuplicateLabel, LatticeMismatch
from .lattice import FiniteLattice, iter_bits, lattice_from_covers
from .construction import AtomSelection, GeneratedTNorm
from .tnorm import OK, TNormTable, Verdict, is_left_continuous, is_left_semicontinuous


@dataclass(frozen=True)
class ExtendedLattice:
    """A lattice together with its atomistic extension.

    Original elements keep their ids in the extension (they come first, in
    file order), so an original id is also its extension id; ``new_atoms``
    maps each non-atom join-irreducible (an original id) to its inserted
    atom (an extension id).
    """

    original: FiniteLattice
    extended: FiniteLattice
    new_atoms: dict

    def sidecar_map(self) -> dict:
        """Inserted-atom name to original-element name, in insertion order."""
        return {self.extended.name(w): self.original.name(p) for p, w in self.new_atoms.items()}


def extend(lat: FiniteLattice) -> ExtendedLattice:
    """Build the atomistic extension; the identity when one is not needed.

    New atoms are named ``w_<element>``; a clash with an existing label is
    rejected. The result is atomistic, its atoms are the original atoms
    plus the inserted ones, and it holds a cover-preserving copy of the
    original; the test suite checks all three over the corpus.
    """
    h_mask = lat.ji_mask & ~lat.atoms_mask
    names = list(lat.names)
    covers = lat.covers_named()
    new_names = []
    for p in iter_bits(h_mask):
        wname = f"w_{lat.name(p)}"
        if wname in lat.names or wname in new_names:
            raise DuplicateLabel(f"inserted atom name {wname!r} collides with an existing element")
        new_names.append(wname)
        covers.append((lat.name(lat.bottom), wname))
        covers.append((wname, lat.name(p)))
    ext = lattice_from_covers(names + new_names, covers)
    new_atoms = {p: ext.index(f"w_{lat.name(p)}") for p in iter_bits(h_mask)}
    return ExtendedLattice(original=lat, extended=ext, new_atoms=new_atoms)


def condition_c(ext: ExtendedLattice, selection: AtomSelection) -> Verdict:
    """Gate for restricting a lifted t-norm back to the original lattice.

    For every non-atom join-irreducible p of the original other than top:
    if its inserted atom is selected, some other atom below p must be
    selected too. The witness on failure is p.
    """
    if selection.lattice is not ext.extended:
        raise LatticeMismatch("selection must live on the extended lattice")
    lat = ext.extended
    sel = selection.mask
    for p, w in ext.new_atoms.items():
        if p == lat.top:
            continue
        if sel >> w & 1 and not (lat.atoms_mask & lat.downs[p] & ~(1 << w) & sel):
            return Verdict(False, "restriction-gate", (lat.name(p),))
    return OK


def restrict_to_original(ext: ExtendedLattice, g: GeneratedTNorm) -> TNormTable:
    """Restrict a lifted t-norm on the extension back to the original.

    Succeeds exactly when the gate (:func:`condition_c`) holds; otherwise
    raises, carrying the join-irreducible whose inserted atom the table
    lands on plus the first offending argument pair in file order.
    """
    if g.lifted.lattice is not ext.extended:
        raise LatticeMismatch("generated t-norm must live on the extended lattice")
    n0 = ext.original.n
    rows = [row[:n0] for row in g.lifted.table[:n0]]
    for x, row in enumerate(rows):
        if max(row) >= n0:
            # the first cell in row-major order that leaves the original
            y, v = next((y, v) for y, v in enumerate(row) if v >= n0)
            inserted_under = {w: p for p, w in ext.new_atoms.items()}
            raise ConditionCViolated(
                ext.extended.name(inserted_under[v]),
                (ext.original.name(x), ext.original.name(y)),
            )
    return TNormTable(ext.original, rows)


@dataclass(frozen=True)
class SFamilyEntry:
    """One selection's fate under the restriction gate."""

    source: GeneratedTNorm
    condition_c: Verdict
    restricted: TNormTable | None

    @property
    def selection(self) -> AtomSelection:
        return self.source.selection


@dataclass(frozen=True)
class SFamily:
    """All restrictions of gated lifts, raw (per selection) and deduplicated.

    Distinct selections can restrict to the same table, so ``distinct``
    groups the raw members by table.
    """

    ext: ExtendedLattice
    entries: tuple[SFamilyEntry, ...]

    def members(self) -> list[tuple[AtomSelection, TNormTable]]:
        return [(e.selection, e.restricted) for e in self.entries if e.restricted is not None]

    def distinct(self) -> list[tuple[TNormTable, list[AtomSelection]]]:
        groups: dict = {}
        for sel, table in self.members():
            groups.setdefault(table.table, (table, []))[1].append(sel)
        return list(groups.values())


def s_family(ext: ExtendedLattice, family: list[GeneratedTNorm]) -> SFamily:
    """Gate each member of the extension's lifted family and restrict those that pass.

    ``family`` is :func:`~latnorm.construction.generated_family` of
    ``ext.extended``; entry i holds ``family[i]`` itself, so nothing is
    lifted again. A member of another lattice raises
    :class:`LatticeMismatch`.
    """
    entries = []
    for g in family:
        gate = condition_c(ext, g.selection)
        restricted = restrict_to_original(ext, g) if gate.ok else None
        entries.append(SFamilyEntry(g, gate, restricted))
    return SFamily(ext, tuple(entries))


@dataclass(frozen=True)
class RestrictionContinuityReport:
    """Continuity facts about one restriction, with the licensing hypotheses.

    A restriction inherits left-semicontinuity from its source lift, and
    is fully left-continuous whenever the original lattice's top is
    join-irreducible; ``implications_hold`` records that whatever those
    hypotheses promise was indeed observed.
    """

    source_left_semicontinuous: bool
    restriction_left_semicontinuous: Verdict
    top_is_join_irreducible: bool
    restriction_left_continuous: Verdict
    implications_hold: bool


def continuity_of_restriction(
    ext: ExtendedLattice,
    source: GeneratedTNorm,
    restricted: TNormTable,
) -> RestrictionContinuityReport:
    """Continuity of ``restricted``, the restriction of ``source`` to the
    original lattice (as :func:`restrict_to_original` or an
    :class:`SFamilyEntry` gives it), against what its source promises.
    A restriction off ``ext.original`` or a source off ``ext.extended``
    raises :class:`LatticeMismatch`."""
    if restricted.lattice is not ext.original:
        raise LatticeMismatch("restriction must live on the original lattice")
    if source.lifted.lattice is not ext.extended:
        raise LatticeMismatch("generated t-norm must live on the extended lattice")
    src_lsc = bool(is_left_semicontinuous(source.lifted))
    lsc = is_left_semicontinuous(restricted)
    lc = is_left_continuous(restricted)
    top_ji = bool(ext.original.ji_mask >> ext.original.top & 1)
    ok = True
    if src_lsc and not lsc.ok:
        ok = False
    if src_lsc and top_ji and not lc.ok:
        ok = False
    return RestrictionContinuityReport(
        source_left_semicontinuous=src_lsc,
        restriction_left_semicontinuous=lsc,
        top_is_join_irreducible=top_ji,
        restriction_left_continuous=lc,
        implications_hold=ok,
    )
