"""Exception types shared across the package."""


class ProjCoxError(Exception):
    """Base class for all package-specific errors."""


class NormalizationError(ProjCoxError):
    """A reflection pair (a, v) does not satisfy a(v) = 2."""


class InfiniteOrder(ProjCoxError):
    """An operation requiring a finite edge order received an infinite one."""


class NonHyperbolic(ProjCoxError):
    """The orbifold signature has nonnegative Euler characteristic."""


class InvariantViolation(ProjCoxError):
    """A computed object breaks a structural invariant beyond tolerance."""


class UnsupportedShape(ProjCoxError):
    """Input falls outside the configurations this package handles."""


class DomainError(ProjCoxError):
    """Chart parameters violate the chart's defining inequalities."""


class GaugeError(ProjCoxError):
    """An inconsistent gauge choice (e.g. a4 = 0 with a4*v44 != 0)."""


class WrongDiagram(ProjCoxError):
    """The edge-order pattern is not the one this test applies to."""
