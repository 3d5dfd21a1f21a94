"""T-norms on finite lattices: atom-based generation, extension, brute-force checks."""

from .errors import (
    AmbiguousAlpha,
    BoundExceeded,
    ConditionCViolated,
    CycleDetected,
    DegenerateLength,
    DegenerateLengthWarning,
    DuplicateLabel,
    LatnormError,
    LatticeMismatch,
    NoBottom,
    NonAtomInAlpha,
    NotALattice,
    NotAtomistic,
    NotClosed,
    NoTop,
    OutputCollision,
    TopMissing,
    UnknownLabel,
    UnsafeFileName,
)
from .lattice import (
    ElementSet,
    FiniteLattice,
    induced_sublattice,
    lattice_from_covers,
    lattice_from_json,
    load_lattice,
    powerset_lattice,
)
from .tnorm import (
    TNormTable,
    Verdict,
    idempotents,
    is_continuous,
    is_left_continuous,
    is_left_semicontinuous,
    is_right_continuous,
    restrict,
    t_drastic,
    t_min,
    table_from_csv,
    table_to_csv,
    tnorm_le,
    verify_tnorm,
)
from .construction import (
    AtomSelection,
    AtomSkeleton,
    GeneratedTNorm,
    enumerate_skeleton_tnorms,
    family_powerset_isomorphism,
    generated_family,
    idempotents_via_independence,
    lift,
    semicontinuity_criterion,
    skeleton,
    skeleton_tnorm,
)
from .extension import (
    ExtendedLattice,
    RestrictionContinuityReport,
    SFamily,
    SFamilyEntry,
    condition_c,
    continuity_of_restriction,
    extend,
    restrict_to_original,
    s_family,
)
from .oracle import (
    CensusReport,
    OracleComparison,
    census,
    enumerate_all_tnorms,
    oracle_vs_construction,
)
from .checks import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
