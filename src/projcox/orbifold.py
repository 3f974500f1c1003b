"""Edge-order combinatorics and orbifold numerics.

Side labels are 1-based throughout, matching the usual labeling of the
quadrilateral (sides 1..4, opposite pairs (1,3) and (2,4)).  Infinite
edge orders are represented by the :data:`INFINITY` singleton, never by
a float, so arithmetic on an infinite order fails loudly.

Euler characteristics are exact rationals: the hyperbolicity test
chi < 0 must not depend on rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InfiniteOrder, NonHyperbolic


class _Infinity:
    """Distinguished infinite edge order (singleton)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __reduce__(self):
        return (_Infinity, ())


INFINITY = _Infinity()


def is_finite_order(n) -> bool:
    return not isinstance(n, _Infinity)


def _check_order(n):
    if is_finite_order(n) and (not isinstance(n, int) or n < 2):
        raise ValueError(f"edge order must be an integer >= 2 or INFINITY, got {n!r}")


def mu(n) -> float:
    """4 cos^2(pi/n) for a finite order n >= 2."""
    if not is_finite_order(n):
        raise InfiniteOrder("mu is undefined for infinite orders; use the T >= 4 parameter")
    _check_order(n)
    return 4.0 * math.cos(math.pi / n) ** 2


@dataclass(frozen=True)
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
    """

    size: int
    orders: dict = field(default_factory=dict)
    mu_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2:
            raise ValueError("need at least two sides")
        normalized = {}
        for (i, j), n in self.orders.items():
            if i == j or not (1 <= i <= self.size and 1 <= j <= self.size):
                raise ValueError(f"bad side pair ({i},{j})")
            _check_order(n)
            key = (min(i, j), max(i, j))
            if key in normalized and normalized[key] != n:
                raise ValueError(f"conflicting orders for pair {key}")
            normalized[key] = n
        for i in range(1, self.size + 1):
            for j in range(i + 1, self.size + 1):
                if (i, j) not in normalized:
                    raise ValueError(f"missing order for pair ({i},{j})")
        table = []
        for pair, n in sorted(normalized.items()):
            mu_n = mu(n) if is_finite_order(n) else None
            if mu_n == 4.0:
                raise ValueError(f"order {n} of pair {pair} is too large: mu(n) rounds "
                                 "to 4 in doubles, the value of an infinite order")
            table.append((pair, n, mu_n))
        object.__setattr__(self, "orders", normalized)
        object.__setattr__(self, "mu_table", tuple(table))

    def __hash__(self):
        return hash((self.size, frozenset(self.orders.items())))

    def order(self, i: int, j: int):
        return self.orders[(min(i, j), max(i, j))]


class QuadPrismOrders(EdgeOrders):
    """Orders of the labeled quadrilateral prism: finite n12, n23, n34,
    n14 (all >= 3) on the four adjacent pairs, infinite on (1,3), (2,4).
    The names n12..n14 and mu12..mu14 read the order table.
    """

    def __init__(self, n12: int, n23: int, n34: int, n14: int):
        for name, n in (("n12", n12), ("n23", n23), ("n34", n34), ("n14", n14)):
            if not isinstance(n, int) or n < 3:
                raise ValueError(f"{name} must be an integer >= 3, got {n!r}")
        super().__init__(4, {(1, 2): n12, (2, 3): n23, (3, 4): n34, (1, 4): n14,
                             (1, 3): INFINITY, (2, 4): INFINITY})

    # rows of the sorted mu_table: (1,2), (1,3), (1,4), (2,3), (2,4), (3,4)
    n12 = property(lambda self: self.mu_table[0][1])
    n14 = property(lambda self: self.mu_table[2][1])
    n23 = property(lambda self: self.mu_table[3][1])
    n34 = property(lambda self: self.mu_table[5][1])
    mu12 = property(lambda self: self.mu_table[0][2])
    mu14 = property(lambda self: self.mu_table[2][2])
    mu23 = property(lambda self: self.mu_table[3][2])
    mu34 = property(lambda self: self.mu_table[5][2])


@dataclass(frozen=True)
class OrbifoldSignature:
    """Singular-point data of a 2-orbifold entering the Euler
    characteristic and dimension formulas.
    """

    chi_underlying: Fraction
    cone_orders: tuple = ()
    corner_orders: tuple = ()
    full_boundary_count: int = 0

    def __post_init__(self):
        object.__setattr__(self, "chi_underlying", Fraction(self.chi_underlying))
        object.__setattr__(self, "cone_orders", tuple(self.cone_orders))
        object.__setattr__(self, "corner_orders", tuple(self.corner_orders))
        for q in self.cone_orders + self.corner_orders:
            if not isinstance(q, int) or q < 2:
                raise ValueError(f"singular-point orders must be integers >= 2, got {q!r}")
        if self.full_boundary_count < 0:
            raise ValueError("full_boundary_count must be >= 0")


def quadrilateral_signature(n1: int, n2: int, n3: int, n4: int) -> OrbifoldSignature:
    """Disk with four corner reflectors: D^2(; n1, n2, n3, n4)."""
    return OrbifoldSignature(Fraction(1), (), (n1, n2, n3, n4), 0)


def euler_characteristic(sig: OrbifoldSignature) -> Fraction:
    """Orbifold Euler characteristic, as an exact rational.

    chi = chi(|O|) - sum(1 - 1/q_i) - (1/2) sum(1 - 1/r_j) - n_O / 2
    over cone points q_i, corner reflectors r_j and full boundary
    components.
    """
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
        raise NonHyperbolic(f"chi = {chi} >= 0")


def teichmuller_dim(sig: OrbifoldSignature) -> int:
    """-3 chi(|O|) + 2k + l for a hyperbolic orbifold (k cone points,
    l corner reflectors).
    """
    _require_hyperbolic(sig)
    value = -3 * sig.chi_underlying + 2 * len(sig.cone_orders) + len(sig.corner_orders)
    if value.denominator != 1:
        raise ValueError("underlying Euler characteristic must make the dimension integral")
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
        raise ValueError("formula requires an orbifold without boundary components")
    k = len(sig.cone_orders)
    k2 = sum(1 for q in sig.cone_orders if q == 2)
    l = len(sig.corner_orders)
    l2 = sum(1 for r in sig.corner_orders if r == 2)
    value = -8 * sig.chi_underlying + (6 * k - 2 * k2) + (3 * l - l2)
    if value.denominator != 1:
        raise ValueError("underlying Euler characteristic must make the dimension integral")
    return int(value)
