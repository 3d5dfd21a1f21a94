"""Exception types shared across the package."""


class LatnormError(Exception):
    """Base class for all latnorm errors."""


class DuplicateLabel(LatnormError):
    pass


class UnknownLabel(LatnormError):
    pass


class CycleDetected(LatnormError):
    pass


class NotALattice(LatnormError):
    """Some pair of elements lacks a unique meet or join."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind
        super().__init__(f"elements {pair[0]!r} and {pair[1]!r} have no unique {kind}")


class NoBottom(LatnormError):
    pass


class NoTop(LatnormError):
    pass


class BoundExceeded(LatnormError):
    pass


class LatticeMismatch(LatnormError):
    """Operands belong to different lattices."""


class NotAtomistic(LatnormError):
    pass


class NonAtomInAlpha(LatnormError):
    pass


class AmbiguousAlpha(LatnormError):
    """An atom name contains the ``,`` that separates the names in ``--alpha``."""


class TopMissing(LatnormError):
    pass


class NotClosed(LatnormError):
    """A restriction target is not closed under the operation."""

    def __init__(self, x, y, witness):
        self.x = x
        self.y = y
        self.witness = witness
        super().__init__(f"table value at ({x!r}, {y!r}) is {witness!r}, outside the restriction set")


class ConditionCViolated(LatnormError):
    """The restriction gate fails: the lifted operation lands on an inserted atom."""

    def __init__(self, p, witness):
        self.p = p
        self.witness = witness
        super().__init__(f"restriction gate fails at join-irreducible {p!r} (witness pair {witness!r})")


class OutputCollision(LatnormError):
    """Two outputs of one export would be written to the same file."""

    def __init__(self, file_name, first, second):
        self.file_name = file_name
        super().__init__(f"{first} and {second} would both be written to {file_name!r}")


class UnsafeFileName(LatnormError):
    """An output file name is not a single path component of the output directory."""

    def __init__(self, file_name, selection):
        self.file_name = file_name
        super().__init__(f"{selection} would be written to {file_name!r}, which is not a plain file name")


class DegenerateLength(LatnormError):
    """The lattice has length at most 1, so the generation theory degenerates."""


class DegenerateLengthWarning(UserWarning):
    """The lattice has length at most 1; the generation pipeline degenerates."""
