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
from functools import cache, cached_property
from itertools import chain, combinations
from operator import itemgetter

from . import linalg
from .errors import DomainError, InvariantViolation, UnsupportedShape
from .orbifold import EdgeOrders, _quad_prism_mu

#: generating set of cyclic invariants for the quad-prism diagram
GENERATING_CYCLES = ((1, 3), (2, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4))


class ReflectionSystem:
    """Covectors alpha_1..alpha_f and vectors v_1..v_f of f projective
    reflections in dimension d, with their Cartan matrix M_ij =
    alpha_i(v_j).

    All three are held as linalg.Rows, which the certificates read as
    held: ``alpha_rows``, ``vector_rows`` and ``cartan``, all read-only.
    The chart builders hand over Rows; other rows are read by
    linalg._rows once, here.  A system given only as (alphas, vectors)
    multiplies out its Cartan matrix once, at construction, as ``alphas
    @ vectors.T``; a given one must be f x f (UnsupportedShape).
    Either way a non-finite alpha, vector or Cartan entry raises
    DomainError.

    Two read-only attributes are computed once, at construction:
    ``known_form``, the form of the covectors, for check_vinberg and
    charts.is_semisimple (_known_form; None for no known form), and
    ``sign_failures``, the failing pairs of (C1)-(C3) at TOL_ALGEBRAIC,
    for cartan_of, check_vinberg and certify.verify_relations
    (_sign_failures).  ``alphas`` and ``vectors`` are the rows as 2-D
    float ndarrays, built on first access.  Systems compare and hash by
    the three row tuples.  The Cartan entries are not validated here
    (see cartan_of).
    """

    def __init__(self, alphas, vectors, cartan=None):
        alphas, vectors = linalg.Rows.of(alphas), linalg.Rows.of(vectors)
        f = len(alphas)
        if cartan is None:
            shapes = [(len(x), len(x[0]) if x else 0) for x in (alphas, vectors)]
            if shapes[0] != shapes[1]:
                raise DomainError("alphas shape {} != vectors shape {}".format(*shapes))
            import numpy as np
            with np.errstate(all="ignore"):
                cartan = np.array(alphas) @ np.array(vectors).T
        cartan = linalg.Rows.of(cartan)
        if len(cartan) != f or cartan and len(cartan[0]) != f:
            raise UnsupportedShape(f"the Cartan matrix of {f} reflections must be {f}x{f}")
        if not all(map(math.isfinite, chain(*alphas, *vectors, *cartan))):
            raise DomainError("alpha, vector and Cartan entries must be finite")
        vars(self).update(alpha_rows=alphas, vector_rows=vectors, cartan=cartan,
                          known_form=_known_form(alphas),
                          sign_failures=_sign_failures(cartan, linalg.TOL_ALGEBRAIC))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha_rows, self.vector_rows, self.cartan) == (
            other.alpha_rows, other.vector_rows, other.cartan)

    def __hash__(self):
        return hash((self.alpha_rows, self.vector_rows, self.cartan))

    def __repr__(self):
        return (f"ReflectionSystem(alpha_rows={self.alpha_rows!r}, "
                f"vector_rows={self.vector_rows!r})")

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


@cache
def _units(f: int) -> tuple:
    """The unit covectors of R^f in order, and a dict from each to its
    index; -0.0 == 0.0 and both hash alike, so zeros of either sign match."""
    units = tuple(tuple(1.0 if i == k else 0.0 for i in range(f)) for k in range(f))
    return units, {row: k for k, row in enumerate(units)}


def _known_form(rows):
    """(m, r) for f covectors in R^f of which every one but row r is a
    distinct unit covector e_k*, in any order, and m the one coordinate
    (0-based) that none of those takes: r is the row that is no unit
    covector, or repeats an earlier one, or else (a dual basis) the
    last.  None for covectors of any other form.  The builders' order,
    e_1*..e_{f-1}* first, is one comparison; any other, one dict lookup
    per row."""
    f = len(rows)
    units, index = _units(f)
    if rows and rows[:-1] == units[:-1] and len(rows[-1]) == f:
        return f - 1, f - 1
    keys = list(map(index.get, rows))
    r = keys.index(None) if None in keys else next(
        (i for i, k in enumerate(keys) if keys.index(k) < i), f - 1)
    others = set(keys[:r] + keys[r + 1:])
    if None not in others and len(others) == f - 1 and len(rows[0]) == f:
        return (set(range(f)) - others).pop(), r
    return None


def cartan_of(sys: ReflectionSystem) -> linalg.Rows:
    """The system's Cartan matrix rows, validated: (C1) M_ii = 2, (C2)
    off-diagonal <= 0, and (C3) zero symmetry (M_ij = 0 iff M_ji = 0),
    read off the system's sign_failures at TOL_ALGEBRAIC.  They are the
    Rows the system holds, read with no entry scan.
    """
    c1, c2, c3 = sys.sign_failures
    if c1:
        raise InvariantViolation("diagonal entries must equal 2")
    if c2:
        raise InvariantViolation("off-diagonal entries must be <= 0")
    if c3:
        raise InvariantViolation("zero symmetry broken at ({},{})".format(*c3[0]))
    return sys.cartan


def _sign_failures(rows, tol: float):
    """Failing 1-based pairs of Vinberg's (C1) M_ii = 2, (C2) off-diagonal
    <= 0 and (C3) zero symmetry, read off the Cartan matrix rows: C1 as
    the places (i, i), the others in one pass over the off-diagonal
    pairs.  Each list is in row-major order.

    C3 fails a pair when one entry is zero to within tol, the other is
    not, and their product M_ij M_ji is zero to within tol as well.  A
    positive diagonal gauge leaves the product fixed, so a valid pair
    with M_ij = -1e10 and M_ji = -1e-10 passes.  A pair of entries both
    below -|tol| fails neither C2 nor C3, at any tol.
    """
    c2, c3 = [], []
    low = -abs(tol)
    for i, j in combinations(range(len(rows)), 2):
        x, y = rows[i][j], rows[j][i]
        if x < low and y < low:
            continue
        if x > tol:
            c2.append((i + 1, j + 1))
        if y > tol:
            c2.append((j + 1, i + 1))
        if (abs(x) <= tol) != (abs(y) <= tol) and not abs(x * y) > tol:
            c3.append((i + 1, j + 1))
    c1 = [(i, i) for i, row in enumerate(rows, 1) if abs(row[i - 1] - 2.0) > tol]
    return c1, sorted(c2), c3


class Check(tuple):
    """One check of a certificate: (name, where, value, bound, passed).

    ``where`` is the place checked as a tuple of 1-based sides (a side,
    a pair or a cycle), or for a Vinberg condition the tuple of pairs
    that failed it; ``value`` is the residual or product read there and
    ``bound`` the tolerance in force, for a pair (_pair_checks) its
    rounding bound plus tol.  Built as Check((name, where, value,
    bound, passed)), at the cost of a bare tuple.
    """

    __slots__ = ()
    name, where, value, bound, passed = map(property, map(itemgetter, range(5)))


class Verdict(tuple):
    """The Checks of one certificate, in order; it passes when each does."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(map(Check.passed.fget, self))


def _t_products(m):
    """(T13, T24) = (M13 M31, M24 M42) of 4x4 Cartan rows, of floats or arrays."""
    return m[0][2] * m[2][0], m[1][3] * m[3][1]


def _pair_checks(rows, orders: EdgeOrders, tol: float):
    """The one gate on M_ij M_ji = mu(n_ij): yield ((i, j), n, p, r,
    bound, passed) per pair of the orders table, in its order: p = M_ij
    M_ji off the Cartan rows, r how far the pair is from order n, bound
    = b + tol with b the computed rounding bound on r, and passed = r <=
    bound (a NaN r fails).  A table with another number of sides than
    the rows raises DomainError, at the first step.

    On span{v_i, v_j}, R_i R_j is [[p - 1, M_ij], [-M_ji, -1]] (det 1,
    trace p - 2), the identity on ker alpha_i & ker alpha_j, which
    complements that span when 4 - p != 0.  So for n >= 3, (R_i R_j)^n
    = Id with order exactly n iff p = mu(n) = 4cos^2(pi/n).  For 0 <= p
    < 4 it rotates its plane by t with 4 - p = 4sin^2(t/2), so

        r = |p - mu(n)| / (4 - mu(n)) = |sin^2(t/2) / sin^2(pi/n) - 1|

    is, to first order, n|t - 2pi/n| / pi, the angle by which (R_i
    R_j)^n misses the identity in units of pi: about 2/n for an order
    moved by one.  For n = 2 the block must be -Id, both entries zero
    (p = 0 alone passes a broken zero symmetry): r = max(|M_ij|, |M_ji|),
    b = 0.  For an infinite order, p > 4 gives eigenvalues (lambda,
    1/lambda), lambda > 1, and p = 4 a Jordan block, so no power is the
    identity; r is the shortfall 4 - p.

    The bound (u = 2^-53; Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3) takes each entry exact or one quotient from
    exact, as every chart builder writes it and as the numpy product
    of dual-basis covectors gives it.  A finite pair, (-mu, -1) or (v,
    fl(mu / v)), has p within gamma_2 mu ~ 2u mu of the table's fl(mu),
    and fl(mu) = 4 fl(cos(fl(fl(pi) / n)))^2 is within (2(1.35 x tan x
    + 1 / cos x) + 1)u mu of mu(n) to first order, x = pi / n (the
    argument off by 1.35u, cos within an ulp, the square rounded):
    under 6u mu from n = 4 on, 4u mu at n = 3.  So b = 8u mu / (4 - mu)
    ~ 8u n^2 / pi^2; 2/n exceeds 2b, so n +- 1 fails, while n < (pi^2 /
    8u)^(1/3) ~ 2.2e5, and beyond a neighbouring order can pass.  An
    infinite pair's p takes at most seven roundings (a concurrent entry
    is -(2 + a), a a v plus a quotient): from T >= 4, 4 - p < 4 gamma_7
    < 32u = b.
    """
    if orders.size != len(rows):
        raise DomainError(f"orders table has {orders.size} sides, system has {len(rows)}")
    for (i, j), n, mu_n in orders.mu_table:
        mij, mji = rows[i - 1][j - 1], rows[j - 1][i - 1]
        p = mij * mji
        if mu_n is None:
            r, bound = 4.0 - p, 2.0 ** -48 + tol   # 32u
        elif n == 2:
            r, bound = max(abs(mij), abs(mji)), tol
        else:
            scale = 4.0 - mu_n
            r, bound = abs(p - mu_n) / scale, 2.0 ** -50 * mu_n / scale + tol   # 8u mu / scale
        yield (i, j), n, p, r, bound, r <= bound


def _require_tol(tol: float) -> None:
    """Refuse a tol that is not finite and >= 0 with DomainError, the
    rule of the CLI's --tol: a NaN tol would pass every sign check and
    fail every residual."""
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tol must be finite and >= 0, got {tol}")


def check_vinberg(sys: ReflectionSystem, orders: EdgeOrders,
                  tol: float = linalg.TOL_ALGEBRAIC) -> Verdict:
    """Run conditions (C1)-(C5) on the system: a Verdict of five Checks,
    C1..C5.  A check's ``where`` is the tuple of 1-based pairs that
    failed it and its ``value`` the worst residual: max |M_ii - 2| for
    C1 (M_ii = 2), the largest positive off-diagonal entry for C2, the
    largest _pair_checks r for C4, and 0.0 for C3 and C5.  Each is
    bound by tol but C4, by the bound of the pair that sets its value:
    once a pair fails, the worst failing pair.

    C5 (nonempty interior) is decided by _relation_space_trivial on the
    system's known_form; covectors of no known form fail it.  A tol that
    is not finite and >= 0 raises DomainError before any check.
    """
    _require_tol(tol)
    rows = sys.cartan
    f = len(rows)

    # C1-C3: diagonal 2, off-diagonal <= 0, zero symmetry
    c1_fail, c2_fail, c3_fail = (sys.sign_failures if tol == linalg.TOL_ALGEBRAIC
                                 else _sign_failures(rows, tol))
    diag_res = max(abs(rows[i][i] - 2.0) for i in range(f))
    c2_res = max((rows[i - 1][j - 1] for i, j in c2_fail), default=0.0)

    # C4: products match mu for finite orders, >= 4 for infinite ones
    c4_fail, c4_res, c4_bound = [], 0.0, tol
    for pair, _, _, res, bound, passed in _pair_checks(rows, orders, tol):
        if not passed:
            if not c4_fail or res >= c4_res:   # the first failure resets the worst
                c4_res, c4_bound = res, bound
            c4_fail.append(pair)
        elif not c4_fail and res >= c4_res:
            c4_res, c4_bound = res, bound

    # C5: nonempty interior, decided on the known form of the rows as held
    form = sys.known_form
    c5_ok = form is not None and _relation_space_trivial(sys.alpha_rows, form)

    return Verdict((Check(("C1", tuple(c1_fail), diag_res, tol, not c1_fail)),
                    Check(("C2", tuple(c2_fail), c2_res, tol, not c2_fail)),
                    Check(("C3", tuple(c3_fail), 0.0, tol, not c3_fail)),
                    Check(("C4", tuple(c4_fail), c4_res, c4_bound, not c4_fail)),
                    Check(("C5", (), 0.0, tol, c5_ok))))


def _relation_space_trivial(rows, form) -> bool:
    """Whether every nonzero linear relation among a system's covector
    rows, of the known form (m, r) (_known_form), has coefficients of
    both signs, decided exactly.  With a = rows[r] and m the coordinate
    no unit covector takes, they are independent if a[m] != 0, and else
    their one relation writes a as sum a_k e_k*, which takes both signs
    iff some a_k > 0.
    """
    m, r = form
    return rows[r][m] != 0.0 or max(rows[r]) > 0.0


def cyclic_invariants(m) -> dict:
    """All cyclic invariants M_{i1 i2} M_{i2 i3} ... M_{ik i1} of lengths
    2, 3, 4 of a 4x4 Cartan matrix, keyed by canonical cycle (smallest
    index first; both orientations of each cycle of length >= 3).

    Every product, here and in _generators, is taken left to right along
    the cycle of linalg._rows(m), the bits of math.prod(entries, start=1.0).
    """
    (_, m12, m13, m14), (m21, _, m23, m24), (m31, m32, _, m34), (m41, m42, m43, _) = (
        linalg._rows(m, (4, 4)))
    return {(1, 2): m12 * m21, (1, 3): m13 * m31, (1, 4): m14 * m41, (2, 3): m23 * m32,
            (2, 4): m24 * m42, (3, 4): m34 * m43,
            (1, 2, 3): m12 * m23 * m31, (1, 3, 2): m13 * m32 * m21, (1, 2, 4): m12 * m24 * m41,
            (1, 4, 2): m14 * m42 * m21, (1, 3, 4): m13 * m34 * m41, (1, 4, 3): m14 * m43 * m31,
            (2, 3, 4): m23 * m34 * m42, (2, 4, 3): m24 * m43 * m32,
            (1, 2, 3, 4): m12 * m23 * m34 * m41, (1, 2, 4, 3): m12 * m24 * m43 * m31,
            (1, 3, 2, 4): m13 * m32 * m24 * m41, (1, 3, 4, 2): m13 * m34 * m42 * m21,
            (1, 4, 2, 3): m14 * m42 * m23 * m31, (1, 4, 3, 2): m14 * m43 * m32 * m21}


def derived_invariant_identities(inv: dict, orders: EdgeOrders,
                                 tol: float = linalg.TOL_ALGEBRAIC) -> Verdict:
    """Check that every non-generating cyclic invariant is the stated
    rational expression in the five generators and the mu values: a
    Verdict of eleven ``identity`` Checks, one per cycle (its ``where``),
    each with its residual as value and tol as bound.

    For the infinite edge (2,4) the length-2 invariant itself plays the
    role of mu.  Residuals are relative: |x - y| / (1 + |x| + |y|).  A
    tol that is not finite and >= 0 raises DomainError, and then an
    order table that is not the quad prism's UnsupportedShape.
    """
    _require_tol(tol)
    m12, m23, m34, m14 = _quad_prism_mu(orders)
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
    checks = []
    for c, y in expected.items():
        r = abs(inv[c] - y) / (1.0 + abs(inv[c]) + abs(y))
        checks.append(Check(("identity", c, r, tol, r <= tol)))
    return Verdict(checks)


def projectively_equivalent(m1, m2) -> bool:
    """Whether two 4x4 Cartan matrices are conjugate by a positive
    diagonal matrix, i.e. agree on the generating cyclic invariants to
    a relative residual |x - y| / (1 + |x| + |y|) of TOL_ALGEBRAIC.
    Only those five products are taken (_generators), and a system's
    rows (cartan_of) are read as held.
    """
    for x, y in zip(_generators(m1), _generators(m2)):
        if not abs(x - y) / (1.0 + abs(x) + abs(y)) <= linalg.TOL_ALGEBRAIC:
            return False
    return True


def _generators(m) -> tuple:
    """The invariants of GENERATING_CYCLES, in order, as cyclic_invariants takes them."""
    (_, m12, m13, m14), (m21, _, m23, m24), (m31, _, _, m34), (m41, m42, _, _) = (
        linalg._rows(m, (4, 4)))
    return m13 * m31, m24 * m42, m12 * m23 * m31, m12 * m24 * m41, m13 * m34 * m41
