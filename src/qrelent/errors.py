"""Exception types raised by validation and identity checks.

Every error raised on purpose by this package derives from
:class:`QrelentError`, so callers can catch one base class at API
boundaries (the CLI maps them to exit code 2).  The errors for bad
argument values also derive from :class:`ValueError`.
"""


__all__ = [
    "BadObservableError",
    "BadSpecError",
    "BadToleranceError",
    "BadTraceError",
    "ConfigError",
    "DimensionMismatchError",
    "FileFormatError",
    "LeakedSupportError",
    "LengthMismatchError",
    "MassLossError",
    "NotARefinementError",
    "NotBlockDiagonalError",
    "NotDiagonalizingError",
    "NotHermitianError",
    "NotIdempotentError",
    "NotOrthogonalError",
    "NotOrthonormalError",
    "NotPositiveError",
    "QrelentError",
    "SolverFailureError",
    "SupportViolationError",
]


class QrelentError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitianError(QrelentError):
    """Input matrix is not Hermitian within tolerance (or not square)."""


class NotPositiveError(QrelentError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class BadTraceError(QrelentError):
    """A density matrix input whose trace is not 1 within tolerance."""


class BadToleranceError(QrelentError, ValueError):
    """A tolerance that is not a finite positive float."""


class SolverFailureError(QrelentError):
    """The underlying eigensolver failed to converge or produced a
    decomposition that does not satisfy the quality checks."""


class NotIdempotentError(QrelentError):
    """A matrix offered as an orthogonal projector fails P @ P == P."""


class NotOrthogonalError(QrelentError):
    """Projectors required to be mutually orthogonal are not."""


class NotOrthonormalError(QrelentError):
    """A set of vectors required to be orthonormal is not."""


class NotDiagonalizingError(QrelentError, ValueError):
    """A basis offered as an eigenbasis does not diagonalize the state."""


class BadObservableError(QrelentError, ValueError):
    """Eigenvalues and projectors that do not form a projective observable:
    counts that differ, repeated eigenvalues, or a family that does not
    resolve the identity."""


class MassLossError(QrelentError):
    """A pinching map lost trace mass, i.e. the projector family does not
    cover the state's support."""


class LeakedSupportError(QrelentError):
    """A state has weight outside the union of the given subspaces."""


class NotBlockDiagonalError(QrelentError):
    """A state has coherences between subspaces it is required to be
    block diagonal in."""


class SupportViolationError(QrelentError):
    """An operation that requires supp(rho) <= supp(sigma) was invoked on
    a pair that violates it."""


class DimensionMismatchError(QrelentError):
    """Operands live on Hilbert spaces of different dimensions."""


class LengthMismatchError(QrelentError):
    """Probability vectors (or aligned sequences) of different lengths."""


class NotARefinementError(QrelentError):
    """The finer projector family does not refine the coarser one."""


class BadSpecError(QrelentError):
    """A generation request with inconsistent parameters (rank out of
    range, block sizes that do not fit the dimension, ...)."""


class ConfigError(QrelentError):
    """An invalid verification-campaign configuration."""


class FileFormatError(QrelentError):
    """A matrix or projector file that cannot be parsed."""
