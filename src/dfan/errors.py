"""Exception hierarchy shared across the package."""


class DfanError(Exception):
    """Base class for all package errors."""


class RingMismatchError(DfanError):
    """Operands live over different ring descriptors."""


class ZeroInputError(DfanError):
    """An operation that needs a nonzero element received zero."""


class HomogeneityError(DfanError):
    """An element expected to be homogeneous is not."""


class WeightError(DfanError):
    """A weight form violates its sign constraints or context."""


class ConeError(DfanError):
    """A cone is not basic / rays are invalid."""


class ResourceBoundExceeded(DfanError):
    """A configured degree/step/cone-count cap was hit; the verdict is
    explicitly inconclusive rather than silently wrong.

    ``cap`` names the module constant that set the bound, ``limit`` is
    the bound and ``observed`` the count or size that went over it."""

    def __init__(self, message: str, *, cap: str, limit: int, observed: int):
        super().__init__(message)
        self.cap = cap
        self.limit = limit
        self.observed = observed


class CertificateError(DfanError):
    """A flatness certificate could not be produced or verified."""


class MembershipInconclusive(CertificateError):
    """The bounded t-power membership search found no power up to
    ``l_max``: the certificate is inconclusive at that bound."""

    def __init__(self, message: str, l_max: int):
        super().__init__(message)
        self.l_max = l_max


class SyntaxErrorWithPos(DfanError):
    """Parse error carrying a line/column position.  Column 0 means only
    the line is known; line 0 marks a flag's value, whose error carries
    the bare message."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        where = f" (line {line}, column {column})" if column else f" (line {line})"
        super().__init__(message + where if line else message)
        self.message = message
        self.line = line
        self.column = column


class SemanticError(DfanError):
    """Well-formed input that violates a semantic constraint."""
