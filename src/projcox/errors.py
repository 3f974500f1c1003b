"""Exception types shared across the package: every refusal the library
makes is one of three kinds, each a ProjCoxError."""


class ProjCoxError(Exception):
    """Base class for all package-specific errors."""


class DomainError(ProjCoxError, ValueError):
    """An argument the function does not accept: a coordinate off its
    chart, an order or a count out of range, an order table of another
    size than the system, a gauge the point does not allow."""


class UnsupportedShape(ProjCoxError):
    """A configuration the function does not handle: a matrix of the
    wrong shape, an order table that is not the quad prism's, covectors
    of no known form, or a semisimplicity that no proven nonsingular
    block decides."""


class InvariantViolation(ProjCoxError):
    """A system or Cartan matrix that breaks a structural invariant."""
