"""Cartan matrices, Vinberg's conditions, and cyclic invariants.

A reflection system is the tuple (alpha_1..alpha_f, v_1..v_f) of
covectors and vectors defining the projective reflections
R_j = Id - alpha_j (x) v_j.  Its Cartan matrix is M_ij = alpha_i(v_j).
Two systems describe the same polytope up to projective equivalence
exactly when their Cartan matrices are conjugate by a positive diagonal
matrix, which is decided here through cyclic invariants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, permutations

from . import linalg
from .errors import InvariantViolation, UnsupportedShape
from .orbifold import EdgeOrders, QuadPrismOrders

#: generating set of cyclic invariants for the quad-prism diagram
GENERATING_CYCLES = ((1, 3), (2, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4))


@dataclass(frozen=True, init=False)
class ReflectionSystem:
    """Covectors alpha_1..alpha_f and vectors v_1..v_f of f projective
    reflections in dimension d, with their Cartan matrix M_ij =
    alpha_i(v_j).

    All three are held as tuples of rows, each a tuple of Python floats:
    ``alpha_rows``, ``vector_rows`` and ``cartan``.  The chart builders
    hand over the rows of all three, the Cartan rows being the ones
    their coordinates give.  A system given only as (alphas, vectors),
    each read by linalg._rows, multiplies out its Cartan matrix once, at
    construction, as ``alphas @ vectors.T``.  ``alphas`` and
    ``vectors`` are the rows as 2-D float ndarrays, built on first
    access.  The Cartan matrix is not validated here (see cartan_of).
    """

    alpha_rows: tuple
    vector_rows: tuple
    cartan: tuple = field(repr=False)

    def __init__(self, alphas, vectors, cartan=None):
        if cartan is None:
            alphas, vectors = linalg._rows(alphas), linalg._rows(vectors)
            shapes = [(len(x), len(x[0]) if x else 0) for x in (alphas, vectors)]
            if shapes[0] != shapes[1]:
                raise ValueError("alphas shape {} != vectors shape {}".format(*shapes))
        if not all(map(math.isfinite, chain(*alphas, *vectors))):
            raise ValueError("entries must be finite")
        object.__setattr__(self, "alpha_rows", alphas)
        object.__setattr__(self, "vector_rows", vectors)
        if cartan is None:
            cartan = linalg._rows(self.alphas @ self.vectors.T)
        object.__setattr__(self, "cartan", cartan)

    @cached_property
    def alphas(self):
        """The covectors, as the rows of a float ndarray."""
        import numpy as np
        return np.array(self.alpha_rows)

    @cached_property
    def vectors(self):
        """The vectors, as the rows of a float ndarray."""
        import numpy as np
        return np.array(self.vector_rows)


def cartan_of(sys: ReflectionSystem) -> tuple:
    """The system's Cartan matrix rows, validated: diagonal 2,
    off-diagonal <= 0, and zero symmetry (M_ij = 0 iff M_ji = 0).
    """
    c1, c2, c3 = _sign_failures(sys.cartan, linalg.TOL_ALGEBRAIC)
    if any(i == j for i, j in c1):
        raise InvariantViolation("diagonal entries must equal 2")
    if c2:
        raise InvariantViolation("off-diagonal entries must be <= 0")
    if c3:
        i, j = c3[0]
        raise InvariantViolation(f"zero symmetry broken at ({i},{j})")
    return sys.cartan


def _sign_failures(rows, tol: float):
    """Failing 1-based pairs of Vinberg's (C1) diagonal 2 and off-diagonal
    never 2, (C2) off-diagonal <= 0 and (C3) zero symmetry, read off the
    Cartan matrix rows.

    C3 fails a pair when one entry is zero to within tol, the other is
    not, and their product M_ij M_ji is zero to within tol as well.  A
    positive diagonal gauge leaves the product fixed, so a valid pair
    with M_ij = -1e10 and M_ji = -1e-10 passes.
    """
    f = len(rows)
    c1 = [(i + 1, i + 1) for i in range(f) if abs(rows[i][i] - 2.0) > tol]
    c1 += [(i + 1, j + 1) for i in range(f) for j in range(f)
           if i != j and abs(rows[i][j] - 2.0) <= tol]
    c2 = [(i + 1, j + 1) for i in range(f) for j in range(f)
          if i != j and rows[i][j] > tol]
    c3 = [(i + 1, j + 1) for i in range(f) for j in range(i + 1, f)
          if (abs(rows[i][j]) <= tol) != (abs(rows[j][i]) <= tol)
          and not abs(rows[i][j] * rows[j][i]) > tol]
    return c1, c2, c3


@dataclass
class ConditionCheck:
    """Outcome of one Vinberg condition: worst residual and the pairs
    that failed (1-based)."""

    passed: bool
    residual: float = 0.0
    failures: list = field(default_factory=list)


@dataclass
class VinbergReport:
    """Per-condition results of check_vinberg."""

    conditions: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions.values())


def _pair_residuals(rows, orders: EdgeOrders):
    """Yield ((i, j), n, mu(n), p, r) for each pair of the orders table
    (mu from ``orders.mu_table``, None for an infinite order), read off
    the Cartan matrix rows: p = M_ij M_ji and r how far the pair is from
    Vinberg's (C4) for order n.

    r is |p - mu(n)| for n >= 3; max(|M_ij|, |M_ji|) for n = 2, where
    both entries must vanish (p = 0 alone would pass a broken zero
    symmetry); and the shortfall 4 - p for an infinite order, which
    passes at r <= 0.  A NaN r fails every ``not r <= tol`` gate.
    """
    for (i, j), n, mu_n in orders.mu_table:
        mij, mji = rows[i - 1][j - 1], rows[j - 1][i - 1]
        p = mij * mji
        if mu_n is None:
            r = 4.0 - p
        elif n == 2:
            r = max(abs(mij), abs(mji))
        else:
            r = abs(p - mu_n)
        yield (i, j), n, mu_n, p, r


def check_vinberg(sys: ReflectionSystem, orders: EdgeOrders,
                  tol: float = linalg.TOL_ALGEBRAIC) -> VinbergReport:
    """Run conditions (C1)-(C5) on the system and report each outcome.

    C5 (nonempty interior) is certified through the linear-relation
    criterion: either the alphas are independent, or their single
    relation has the alternating sign pattern that writes the dependent
    covector with positive coefficients in the sense of the adjacency
    structure.
    """
    rows = sys.cartan
    f = len(rows)
    if orders.size != f:
        raise ValueError(f"orders table has {orders.size} sides, system has {f}")
    report = {}

    # C1-C3: diagonal 2 and off-diagonal never 2, off-diagonal <= 0,
    # zero symmetry
    c1_fail, c2_fail, c3_fail = _sign_failures(rows, tol)
    diag_res = max(abs(rows[i][i] - 2.0) for i in range(f))
    report["C1"] = ConditionCheck(not c1_fail, diag_res, c1_fail)
    c2_res = max((rows[i - 1][j - 1] for i, j in c2_fail), default=0.0)
    report["C2"] = ConditionCheck(not c2_fail, c2_res, c2_fail)
    report["C3"] = ConditionCheck(not c3_fail, 0.0, c3_fail)

    # C4: products match mu for finite orders, >= 4 for infinite ones
    c4_fail = []
    c4_res = 0.0
    for pair, _, _, _, res in _pair_residuals(rows, orders):
        c4_res = max(c4_res, res)
        if not res <= tol:
            c4_fail.append(pair)
    report["C4"] = ConditionCheck(not c4_fail, c4_res, c4_fail)

    # C5: nonempty interior via the relation-space certificate
    try:
        c5_ok = relation_space_trivial(sys.alpha_rows)
    except UnsupportedShape:
        c5_ok = False
    report["C5"] = ConditionCheck(c5_ok)

    return VinbergReport(report)


def relation_space_trivial(alphas) -> bool:
    """Whether every nonzero linear relation among the alphas has
    coefficients of both signs.

    Independent alphas pass immediately.  With a one-dimensional
    relation space the relation passes iff its coefficients take both
    signs, so neither it nor its negative lies in the nonnegative cone.
    Relation spaces of dimension > 1 are outside the shapes handled
    here.  One complete-pivoting elimination of alphas^T gives both the
    rank (counted as in linalg.rank) and, at rank f - 1, the relation:
    back substitution with the coefficient of the column left without a
    pivot set to 1.
    """
    pivots, free = linalg._eliminate(zip(*linalg._rows(alphas)))
    if not free:
        return True
    if len(free) > 1:
        raise UnsupportedShape("relation space has dimension > 1")
    coeffs = {free[0]: 1.0}
    for j, row in reversed(pivots):
        coeffs[j] = -sum(row[k] * c for k, c in coeffs.items()) / row[j]
    values = coeffs.values()
    cut = 1e-8 * max(map(abs, values))
    return any(c > cut for c in values) and any(c < -cut for c in values)


def _cycle_product(rows, cycle) -> float:
    """M_{i1 i2} M_{i2 i3} ... M_{ik i1} over the matrix rows,
    multiplied left to right starting from 1.0."""
    value = 1.0
    k = len(cycle)
    for t in range(k):
        value *= rows[cycle[t] - 1][cycle[(t + 1) % k] - 1]
    return value


#: the canonical cycles of lengths 2, 3, 4 on sides 1..4, both
#: orientations of each cycle of length >= 3
_CYCLES_4 = (
    tuple(combinations(range(1, 5), 2))
    + tuple((s[0],) + tail for s in combinations(range(1, 5), 3)
            for tail in permutations(s[1:]))
    + tuple((1,) + tail for tail in permutations((2, 3, 4))))


def cyclic_invariants(m) -> dict:
    """All cyclic invariants M_{i1 i2} M_{i2 i3} ... M_{ik i1} of lengths
    2, 3, 4 of a 4x4 Cartan matrix, keyed by canonical cycle (smallest
    index first; both orientations of each cycle of length >= 3)."""
    rows = linalg._rows(m, (4, 4))
    return {c: _cycle_product(rows, c) for c in _CYCLES_4}


def _relative_residual(x: float, y: float) -> float:
    return abs(x - y) / (1.0 + abs(x) + abs(y))


@dataclass
class IdentityReport:
    """Residuals of the eleven derived-invariant identities."""

    residuals: dict
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())


def derived_invariant_identities(inv: dict, orders: QuadPrismOrders,
                                 tol: float = linalg.TOL_ALGEBRAIC) -> IdentityReport:
    """Check that every non-generating cyclic invariant is the stated
    rational expression in the five generators and the mu values.

    For the infinite edge (2,4) the length-2 invariant itself plays the
    role of mu.  Residuals are relative: |x - y| / (1 + |x| + |y|).
    """
    m12, m23, m34, m14 = orders.mu12, orders.mu23, orders.mu34, orders.mu14
    t13 = inv[(1, 3)]
    t24 = inv[(2, 4)]
    g123 = inv[(1, 2, 3)]
    g124 = inv[(1, 2, 4)]
    g134 = inv[(1, 3, 4)]
    expected = {
        (1, 3, 2): m12 * m23 * t13 / g123,
        (1, 4, 2): m12 * m14 * t24 / g124,
        (1, 4, 3): m14 * m34 * t13 / g134,
        (2, 3, 4): t24 * g123 * g134 / (t13 * g124),
        (2, 4, 3): m23 * m34 * t13 * g124 / (g123 * g134),
        (1, 2, 3, 4): g123 * g134 / t13,
        (1, 2, 4, 3): m34 * t13 * g124 / g134,
        (1, 3, 2, 4): m23 * t13 * g124 / g123,
        (1, 3, 4, 2): m12 * t24 * g134 / g124,
        (1, 4, 2, 3): m14 * t24 * g123 / g124,
        (1, 4, 3, 2): m12 * m23 * m34 * m14 * t13 / (g123 * g134),
    }
    residuals = {cycle: _relative_residual(inv[cycle], value)
                 for cycle, value in expected.items()}
    return IdentityReport(residuals, tol)


def projectively_equivalent(m1, m2) -> bool:
    """Whether two 4x4 Cartan matrices are conjugate by a positive
    diagonal matrix, i.e. agree on the generating cyclic invariants.
    Only those five products are taken, each as in cyclic_invariants.
    """
    rows1, rows2 = linalg._rows(m1, (4, 4)), linalg._rows(m2, (4, 4))
    return all(_relative_residual(_cycle_product(rows1, c), _cycle_product(rows2, c))
               <= linalg.TOL_ALGEBRAIC for c in GENERATING_CYCLES)
