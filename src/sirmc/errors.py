"""Exception types shared across the package."""


class SirmcError(Exception):
    """Base class for all package errors."""


class NonPositiveParameter(SirmcError, ValueError):
    """A threshold or shape parameter that must be positive is not."""


class BiasConstraintViolated(SirmcError, ValueError):
    """Shape parameter exceeds the bound needed to beat soft-threshold bias."""


class ZeroDerivativeAtThreshold(SirmcError, ValueError):
    """Generator slope vanishes at the threshold; splice constants undefined."""


class GeneratorNotConvex(SirmcError, ValueError):
    """Numerical certification of the convexity hypothesis failed."""


class DomainError(SirmcError, ValueError):
    """Argument outside the operation's domain."""


class NonFiniteInput(SirmcError, ValueError):
    """Input contains NaN or infinity."""


class SvdFailure(SirmcError, RuntimeError):
    """The SVD backend did not converge."""


class NonFiniteIterate(SirmcError, RuntimeError):
    """A computed iterate went NaN/inf (a solver iterate, or the factors of a
    shrink); aborting instead of emitting garbage."""


class ZeroNormInput(SirmcError, ValueError):
    """Observed matrix has zero Frobenius norm; relative error is undefined."""


class InvalidSpec(SirmcError, ValueError):
    """Synthetic-data specification violates its invariants."""


class ShapeMismatch(SirmcError, ValueError):
    """Matrix shapes do not agree."""


class ParseError(SirmcError, ValueError):
    """Malformed matrix or mask file; message carries file/line/column."""


class IndexOutOfRange(SirmcError, ValueError):
    """Mask coordinate outside the matrix."""


class DuplicateCoordinate(SirmcError, ValueError):
    """Mask file lists the same position twice."""


class EmptyObservation(SirmcError, ValueError):
    """No observed entries at all."""


class IoError(SirmcError, OSError):
    """Filesystem failure while reading or writing."""


class UsageError(SirmcError, ValueError):
    """Bad command-line arguments."""
