"""Edge-order combinatorics and orbifold numerics.

Side labels are 1-based throughout, matching the usual labeling of the
quadrilateral (sides 1..4, opposite pairs (1,3) and (2,4)).  Infinite
edge orders are represented by the :data:`INFINITY` singleton, never by
a float, so arithmetic on an infinite order fails loudly.

Euler characteristics are exact rationals: the hyperbolicity test
chi < 0 must not depend on rounding.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .errors import DomainError, UnsupportedShape


class _Infinity(enum.Enum):
    """Distinguished infinite edge order (a one-member enum)."""

    INFINITY = "INFINITY"

    def __repr__(self):
        return "INFINITY"

    __str__ = __repr__


INFINITY = _Infinity.INFINITY


def mu(n) -> float:
    """4 cos^2(pi/n) for a finite order n >= 2, which it checks."""
    if n is INFINITY:
        raise DomainError("mu is undefined for infinite orders; use the T >= 4 parameter")
    if not isinstance(n, int) or n < 2:
        raise DomainError(f"edge order must be an integer >= 2 or INFINITY, got {n!r}")
    return 4.0 * math.cos(math.pi / n) ** 2


class EdgeOrders:
    """Symmetric table of edge orders of an f-sided labeled polytope.

    ``orders`` maps unordered 1-based side pairs {i, j} (stored as
    sorted tuples) to orders in Z_{>=2} or INFINITY.  Missing pairs are
    not allowed; every off-diagonal pair must be present.

    ``mu_table`` holds ((i, j), n, mu(n)) for every pair, sorted by
    pair, with None for mu of an infinite order; each mu is computed
    once, at construction.  A finite order whose mu rounds to 4 (from
    about n = 3e8) cannot be told from an infinite one in doubles and is
    rejected.

    The fields ``size``, ``orders`` and ``mu_table`` are read-only;
    ``orders`` is a read-only mapping (``dict(orders)`` copies it).
    Tables of one class compare and hash by (size, orders), and a
    pickle or copy builds the table again from them.
    """

    def __init__(self, size: int, orders: dict = None):
        if size < 2:
            raise DomainError("need at least two sides")
        normalized = {}
        for (i, j), n in (orders or {}).items():
            if i == j or not (1 <= i <= size and 1 <= j <= size):
                raise DomainError(f"bad side pair ({i},{j})")
            key = (i, j) if i < j else (j, i)
            if normalized.setdefault(key, n) != n:
                raise DomainError(f"conflicting orders for pair {key}")
        if len(normalized) < size * (size - 1) // 2:
            missing = next((i, j) for i in range(1, size + 1) for j in range(i + 1, size + 1)
                           if (i, j) not in normalized)
            raise DomainError(f"missing order for pair ({missing[0]},{missing[1]})")
        table = tuple((pair, n, None if n is INFINITY else mu(n))
                      for pair, n in sorted(normalized.items()))
        for pair, n, mu_n in table:
            if mu_n == 4.0:
                raise DomainError(f"order {n} of pair {pair} is too large: mu(n) rounds "
                                  "to 4 in doubles, the value of an infinite order")
        vars(self).update(size=size, orders=MappingProxyType(normalized), mu_table=table)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.size, self.orders) == (other.size, other.orders)

    def __hash__(self):
        return hash((self.size, frozenset(self.orders.items())))

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size!r}, orders={dict(self.orders)!r})"

    def __reduce__(self):
        return type(self), (self.size, dict(self.orders))


#: the most distinct quad-prism order tables QuadPrismOrders keeps: about
#: three times the 337 order tuples of the certify workload's pool
QUAD_PRISM_CACHE_SIZE = 1024


class QuadPrismOrders(EdgeOrders):
    """Orders of the labeled quadrilateral prism: finite n12, n23, n34,
    n14 (all >= 3) on the four adjacent pairs, infinite on (1,3), (2,4).
    The names n12..n14 read the order table.

    A table is built and validated once per distinct order tuple and
    shared: equal orders of equal types, positional or by keyword, give
    equal tables, and the same object while their tuple is in the cache;
    so do pickle and copy.  The cache keeps the last
    QUAD_PRISM_CACHE_SIZE distinct tuples, a constant; a bad order
    raises DomainError on every call.
    """

    __init__ = object.__init__   # __new__ returns the table built

    def __new__(cls, n12: int, n23: int, n34: int, n14: int):
        try:
            return _quad_prism_orders(cls, n12, n23, n34, n14)
        except TypeError:   # an unhashable order, refused by the build itself
            return _quad_prism_orders.__wrapped__(cls, n12, n23, n34, n14)

    def __reduce__(self):
        return type(self), (self.n12, self.n23, self.n34, self.n14)

    # rows of the sorted mu_table: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    n12 = property(lambda self: self.mu_table[0][1])
    n14 = property(lambda self: self.mu_table[2][1])
    n23 = property(lambda self: self.mu_table[3][1])
    n34 = property(lambda self: self.mu_table[5][1])


@lru_cache(maxsize=QUAD_PRISM_CACHE_SIZE, typed=True)
def _quad_prism_orders(cls, n12, n23, n34, n14) -> QuadPrismOrders:
    """The validated table of QuadPrismOrders(n12, n23, n34, n14)."""
    for name, n in (("n12", n12), ("n23", n23), ("n34", n34), ("n14", n14)):
        if not isinstance(n, int) or n < 3:
            raise DomainError(f"{name} must be an integer >= 3, got {n!r}")
    self = object.__new__(cls)
    EdgeOrders.__init__(self, 4, {(1, 2): n12, (2, 3): n23, (3, 4): n34, (1, 4): n14,
                                  (1, 3): INFINITY, (2, 4): INFINITY})
    return self


def _quad_prism_mu(orders: EdgeOrders) -> tuple:
    """(mu12, mu23, mu34, mu14) of a quad-prism order table, the one
    check of the pattern for the chart builders, scans and certificates
    that need it.  Any other table raises UnsupportedShape.  A
    QuadPrismOrders is the quad prism by construction, built once per
    distinct order tuple and shared, so its mu_table is read with no
    scan; only a plain EdgeOrders is scanned, on every call.  Both hold
    the rows of mu_table in the same sorted order."""
    table = orders.mu_table
    if not isinstance(orders, QuadPrismOrders):
        if orders.size != 4 or [p for p, _, mu_n in table if mu_n is None] != [(1, 3), (2, 4)]:
            raise UnsupportedShape("expected the quad-prism pattern: infinite (1,3), (2,4)")
        if any(n < 3 for _, n, mu_n in table if mu_n is not None):
            raise UnsupportedShape("finite orders must be >= 3")
    return table[0][2], table[3][2], table[5][2], table[2][2]


class OrbifoldSignature(namedtuple("OrbifoldSignature", "chi_underlying cone_orders "
                                   "corner_orders full_boundary_count")):
    """Singular-point data of a 2-orbifold entering the Euler
    characteristic and dimension formulas: a named tuple, with
    chi_underlying held as a Fraction and the orders as tuples.
    """

    __slots__ = ()

    def __new__(cls, chi_underlying, cone_orders=(), corner_orders=(),
                full_boundary_count=0):
        from fractions import Fraction
        chi_underlying = Fraction(chi_underlying)
        cone_orders, corner_orders = tuple(cone_orders), tuple(corner_orders)
        for q in cone_orders + corner_orders:
            if not isinstance(q, int) or q < 2:
                raise DomainError(f"singular-point orders must be integers >= 2, got {q!r}")
        if full_boundary_count < 0:
            raise DomainError("full_boundary_count must be >= 0")
        return super().__new__(cls, chi_underlying, cone_orders, corner_orders,
                               full_boundary_count)

    # namedtuple's _replace builds through _make; the constructor validates
    _make = classmethod(lambda cls, fields: cls(*fields))


def quadrilateral_signature(n1: int, n2: int, n3: int, n4: int) -> OrbifoldSignature:
    """Disk with four corner reflectors: D^2(; n1, n2, n3, n4)."""
    return OrbifoldSignature(1, (), (n1, n2, n3, n4), 0)


def euler_characteristic(sig: OrbifoldSignature) -> Fraction:
    """Orbifold Euler characteristic, as an exact rational.

    chi = chi(|O|) - sum(1 - 1/q_i) - (1/2) sum(1 - 1/r_j) - n_O / 2
    over cone points q_i, corner reflectors r_j and full boundary
    components.
    """
    from fractions import Fraction
    chi = sig.chi_underlying
    for q in sig.cone_orders:
        chi -= 1 - Fraction(1, q)
    for r in sig.corner_orders:
        chi -= Fraction(1, 2) * (1 - Fraction(1, r))
    chi -= Fraction(sig.full_boundary_count, 2)
    return chi


def _require_hyperbolic(sig: OrbifoldSignature):
    chi = euler_characteristic(sig)
    if chi >= 0:
        raise DomainError(f"chi = {chi} >= 0")


def teichmuller_dim(sig: OrbifoldSignature) -> int:
    """-3 chi(|O|) + 2k + l for a hyperbolic orbifold (k cone points,
    l corner reflectors).
    """
    _require_hyperbolic(sig)
    value = -3 * sig.chi_underlying + 2 * len(sig.cone_orders) + len(sig.corner_orders)
    if value.denominator != 1:
        raise DomainError("underlying Euler characteristic must make the dimension integral")
    return int(value)


def d_tp(sig: OrbifoldSignature) -> int:
    """Type-preserving deformation count: Teichmueller dimension minus
    the number of full boundary components.
    """
    return teichmuller_dim(sig) - sig.full_boundary_count


def cg05_dim(sig: OrbifoldSignature) -> int:
    """Dimension of the deformation space of a closed hyperbolic
    Coxeter 2-orbifold: -8 chi(|O|) + (6k - 2k2) + (3l - l2), where k2
    and l2 count the order-2 cone points and corner reflectors.
    """
    _require_hyperbolic(sig)
    if sig.full_boundary_count != 0:
        raise DomainError("formula requires an orbifold without boundary components")
    k = len(sig.cone_orders)
    k2 = sum(1 for q in sig.cone_orders if q == 2)
    l = len(sig.corner_orders)
    l2 = sum(1 for r in sig.corner_orders if r == 2)
    value = -8 * sig.chi_underlying + (6 * k - 2 * k2) + (3 * l - l2)
    if value.denominator != 1:
        raise DomainError("underlying Euler characteristic must make the dimension integral")
    return int(value)
