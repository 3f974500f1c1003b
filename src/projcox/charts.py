"""The deformation charts of the quadrilateral-prism orbifold.

Three charts cover the 4-sided polytope with infinite orders on the
(1,3) and (2,4) pairs:

* the *general* chart, where the four covectors are the dual basis and
  the coordinates are (T13, T24, v23, v24, v34) with T >= 4 and v < 0;
* the *concurrent* chart, where alpha_4 = e1* - e2* + e3* and the
  coordinates are (v12, v23, v14, v34) < 0 plus the free entry v44
  (zero on the semisimple slice);
* the *standard* chart, a gauge in which both previous cases coexist
  and the dependent data (a1, a2, a3, a4*v44) is recovered in closed
  form from a block-triangular 4x4 linear system.

The n-simplex chart with all finite orders is included as the
degenerate relative the construction started from.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from typing import TYPE_CHECKING

from . import linalg
from .cartan import ReflectionSystem, _t_products, cartan_of
from .errors import ConditionFailure, DomainError, GaugeError
from .orbifold import INFINITY, EdgeOrders, QuadPrismOrders

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_TOL = 1e-9

#: gamma_5 = 5u / (1 - 5u), u = 2^-53 (Higham, ch. 3): times the sum of
#: its |terms|, the rounding bound of a rebuilt entry of row 4 of M
_GAMMA_5 = 5 * 2.0**-53 / (1 - 5 * 2.0**-53)

#: |x| <= GAUGE_ZERO_TOL reads a4, v44 or a4*v44 as zero in the gauge
#: (realize_representation, classify_case).  concurrent_to_standard
#: leaves |a4*v44| below about 1e-11 for |v| up to e^6.
GAUGE_ZERO_TOL = 1e-10


def _identity(d: int) -> tuple:
    return tuple(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))


_IDENTITY_4 = _identity(4)
#: the concurrent chart's covectors, alpha_4 = e1* - e2* + e3*
_CONCURRENT_ALPHAS = (*_IDENTITY_4[:3], (1.0, -1.0, 1.0, 0.0))


def _require_negative(**named):
    for name, value in named.items():
        if not math.isfinite(value) or value >= 0.0:
            raise DomainError(f"{name} must be negative, got {value}")


def _require_t(**named):
    for name, value in named.items():
        if not math.isfinite(value) or value < 4.0:
            raise DomainError(f"{name} must be >= 4, got {value}")


# A chart's parameters are a named tuple whose constructor validates
# them; namedtuple's _replace builds through _make, so _make calls the
# constructor.


class GeneralChartParams(namedtuple("GeneralChartParams", "orders t13 t24 v23 v24 v34")):
    """Coordinates of the general-position chart: R^3 x [4, inf)^2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_t(t13=self.t13, t24=self.t24)
        _require_negative(v23=self.v23, v24=self.v24, v34=self.v34)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def build_general(p: GeneralChartParams) -> ReflectionSystem:
    """Reflection system of a general-chart point.

    The covectors are the dual basis, so the vector matrix [v] is the
    Cartan matrix itself, with v13 = -T13 and v42 = T24 / v24.
    """
    o = p.orders
    t13, t24, v23, v24, v34 = map(float, p[1:])
    vmat = ((2.0, -o.mu12, -t13, -o.mu14),
            (-1.0, 2.0, v23, v24),
            (-1.0, o.mu23 / v23, 2.0, v34),
            (-1.0, t24 / v24, o.mu34 / v34, 2.0))
    return ReflectionSystem(_IDENTITY_4, tuple(zip(*vmat)), vmat)


class ConcurrentChartParams(namedtuple("ConcurrentChartParams", "orders v12 v23 v14 v34 v44",
                                       defaults=(0.0,))):
    """Coordinates of the concurrent chart; v44 = 0 is the semisimple
    slice."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _require_negative(v12=self.v12, v23=self.v23, v14=self.v14, v34=self.v34)
        if not math.isfinite(self.v44):
            raise DomainError("v44 must be finite")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


def concurrent_cartan(orders: QuadPrismOrders, v12, v23, v14, v34) -> tuple:
    """Cartan matrix rows of a concurrent-chart point, so T13 = M13 M31
    and T24 = M24 M42.  Row 4 is alpha_4 = e1* - e2* + e3* applied to
    the vectors, M1j - M2j + M3j, with the cancellation done exactly.
    Operators only, so it takes floats and arrays alike."""
    h12, h23 = orders.mu12 / v12, orders.mu23 / v23
    h14, h34 = orders.mu14 / v14, orders.mu34 / v34
    return ((2.0, v12, v23 + h34 - 2.0, v14),
            (h12, 2.0, v23, v14 + v34 - 2.0),
            (h14 + h12 - 2.0, h23, 2.0, v34),
            (h14, v12 + h23 - 2.0, h34, 2.0))


def build_concurrent(p: ConcurrentChartParams) -> ReflectionSystem:
    """Reflection system of a concurrent-chart point.

    alpha_4 = e1* - e2* + e3* annihilates e4, so the Cartan matrix is
    independent of the free entry v44, and M44 = 2 exactly, in floats
    too: the rows are :func:`concurrent_cartan` on Python floats, the
    same bits the grid scan reads.
    """
    v12, v23, v14, v34, v44 = map(float, p[1:])
    cartan = concurrent_cartan(p.orders, v12, v23, v14, v34)
    return ReflectionSystem(_CONCURRENT_ALPHAS,
                            tuple(zip(*cartan[:3], (0.0, 0.0, 0.0, v44))), cartan)


class StandardChartPoint(namedtuple("StandardChartPoint",
                                    "orders t13 t24 v23 v24 v34 a1 a2 a3 a4_v44 cartan")):
    """A standard-position point: the five chart coordinates, the
    derived quantities solved from the defining linear system, and the
    rows of the Cartan matrix that system was built from.  Not
    validated here: build_standard is what checks a point."""

    __slots__ = ()


def standard_cartan(orders: QuadPrismOrders, t13: float, t24: float,
                    v23: float, v24: float, v34: float) -> tuple:
    """Cartan matrix rows of a standard-position point."""
    return ((2.0, -orders.mu12, -t13, -1.0),
            (-1.0, 2.0, v23, v24),
            (-1.0, orders.mu23 / v23, 2.0, v34),
            (-orders.mu14, t24 / v24, orders.mu34 / v34, 2.0))


def standard_solution(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """Solve the standard-chart system for (a1, a2, a3, a4*v44).

    The first three coordinates of v_j are column j of the first three
    rows of M and the fourth is zero except v44, so alpha_4(v_j) = M_4j
    for j = 1..4 reads sum_i a_i M_ij = M_4j for j = 1..3, a 3x3 system
    in the block M3 = M[:3, :3], and a4*v44 = 2 + a1 - v24 a2 - v34 a3
    from j = 4.  The 3x3 system is solved by Cramer's rule from the
    cofactors C_ij of M3, written in chart coordinates with h = mu23 /
    v23 so that v23 * h is never formed:

        C00 = 4 - mu23     C01 = 2 - v23      C02 = 2 - h
        C10 = 2 mu12 - T13 h   C11 = 4 - T13   C12 = mu12 - 2 h
        C20 = 2 T13 - mu12 v23   C21 = T13 - 2 v23   C22 = 4 - mu12

    and a_i = sum_j (C_ij / det3) r_j with r the first three entries of
    row 4 of M, (-mu14, T24 / v24, mu34 / v34).  Dividing before
    multiplying keeps samples with |v| near 1e-155 finite.

    Operators only, so it takes Python floats and arrays alike and does
    the same IEEE operations in the same order on both.  Returns
    (a1, a2, a3, a4_v44, det3) with det3 = det M3.
    """
    mu12 = orders.mu12
    h = orders.mu23 / v23
    c00, c01, c02 = 4.0 - orders.mu23, 2.0 - v23, 2.0 - h
    c10, c11, c12 = 2.0 * mu12 - t13 * h, 4.0 - t13, mu12 - 2.0 * h
    c20, c21, c22 = 2.0 * t13 - mu12 * v23, t13 - 2.0 * v23, 4.0 - mu12
    det3 = 2.0 * c00 - mu12 * c01 - t13 * c02
    r0, r1, r2 = -orders.mu14, t24 / v24, orders.mu34 / v34
    a1 = c00 / det3 * r0 + c01 / det3 * r1 + c02 / det3 * r2
    a2 = c10 / det3 * r0 + c11 / det3 * r1 + c12 / det3 * r2
    a3 = c20 / det3 * r0 + c21 / det3 * r1 + c22 / det3 * r2
    a4_v44 = 2.0 + a1 - v24 * a2 - v34 * a3
    return a1, a2, a3, a4_v44, det3


#: samples per block of the scans' draws and solve: a block's draws and
#: live temporaries, about 21 arrays of 8192 * 8 bytes = 64 KiB, stay in
#: a 2 MiB per-core L2 cache instead of streaming whole-batch arrays from
#: memory (4096 measured about 10 % slower, 16384 no faster)
_BLOCK = 8192


def _standard_block(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """(a4_v44, det3) of :func:`standard_solution` on one block of
    samples, with overflow silent.  Each input is a scalar or an array
    of the block's samples; a scalar stays a scalar, which the operators
    broadcast with the same IEEE operations as an array of its value,
    so det3 is a scalar where T13 and v23 both are.  The arithmetic is
    elementwise, so no value depends on the block size.

    M = A V^T with det A = a4 and det V = v44 det M3, so det M =
    a4*v44 * det3.  A sample is valid iff a4*v44 is finite.  A
    non-finite a1, a2 or a3 makes a4*v44 = 2 + a1 - v24 a2 - v34 a3
    non-finite (v24, v34 < 0), and on the chart (mu >= 1, T13 >= 4,
    v23 < 0) the 3x3 block is never singular:

        det3 = 8 - 2 mu12 - 2 mu23 - 2 T13 + mu12 v23 + T13 mu23 / v23
             <= 8 - 2 - 2 - 8 - 2 sqrt(mu12 mu23 T13) <= -8

    by AM-GM on the two negative terms.  So only overflow, of an entry
    of M or of the solution, makes a sample invalid, and it raises no
    floating-point warning.
    """
    import numpy as np
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        *_, a4_v44, det3 = standard_solution(orders, t13, t24, v23, v24, v34)
    return a4_v44, det3


def _drawn_blocks(seed: int, rows, samples: int):
    """The rows of a scan's samples, drawn one block of ``_BLOCK``
    samples at a time.

    ``rows`` holds one (start, draw) pair per row: the row is
    ``draw(rng, samples)`` with rng the stream of
    ``np.random.default_rng(seed)`` from its start-th double on.  A
    draw takes one double of the stream per value, so PCG64 jumps to
    each row's start and every block reads the next stretch of its
    row: each row has the bytes of the one-shot draw.  Yields
    (block, drawn) per block, with block the slice of the samples it
    covers and drawn the block of each row, in the order of rows.
    """
    import numpy as np
    streams = [(np.random.Generator(np.random.PCG64(seed).advance(start)), draw)
               for start, draw in rows]
    for lo in range(0, samples, _BLOCK):
        n = min(_BLOCK, samples - lo)
        yield slice(lo, lo + n), [draw(rng, n) for rng, draw in streams]


def build_standard(orders: QuadPrismOrders, t13: float, t24: float,
                   v23: float, v24: float, v34: float) -> StandardChartPoint:
    """Solve for (a1, a2, a3, a4*v44) and validate the point.

    This is :func:`standard_solution` on Python floats, so it returns
    bit for bit the values :func:`_standard_block` gives for the same
    point, and raises DomainError where a4*v44 is not finite, the one
    validity rule of the batch (see _standard_block).  It then checks
    each entry of row 4 of M rebuilt as alpha_4 applied to the vectors,
    to RESIDUAL_TOL (1 + max|row 4|) plus the rounding bound of the
    entry's own terms; the rebuilt M42 = T24 / v24 is the chart's T24.
    When a4*v44 = 0 the point must also have the concurrent sign
    pattern a1 > 0, a2 < 0, a3 > 0.
    """
    _require_t(t13=t13, t24=t24)
    _require_negative(v23=v23, v24=v24, v34=v34)
    t13, t24, v23, v24, v34 = (float(x) for x in (t13, t24, v23, v24, v34))
    a1, a2, a3, a4_v44, _ = standard_solution(orders, t13, t24, v23, v24, v34)
    if not math.isfinite(a4_v44):
        raise DomainError("standard-chart solve overflowed: the coordinates are too large")
    rows = standard_cartan(orders, t13, t24, v23, v24, v34)
    scale = RESIDUAL_TOL * (1.0 + max(map(abs, rows[3])))
    for j, (x, y, z, target) in enumerate(zip(*rows)):
        p, q, r = a1 * x, a2 * y, a3 * z
        s = a4_v44 if j == 3 else 0.0
        gap = abs(p + q + r + s - target)
        # the terms' bound keeps the 2 of M44, lost in rounding a4*v44
        # from |v| = 1e16, from failing; a NaN gap fails
        if not gap <= scale + _GAMMA_5 * (abs(p) + abs(q) + abs(r) + abs(s)):
            raise ConditionFailure(f"solve residual {gap} of M4{j + 1} exceeds tolerance")
    if abs(a4_v44) <= RESIDUAL_TOL and not (a1 > 0.0 and a2 < 0.0 and a3 > 0.0):
        raise ConditionFailure(
            f"concurrent sign pattern violated: a = ({a1}, {a2}, {a3})")
    return StandardChartPoint(orders, t13, t24, v23, v24, v34,
                              a1, a2, a3, a4_v44, rows)


def realize_representation(pt: StandardChartPoint, a4: float,
                           v44: float = None) -> ReflectionSystem:
    """Pick a representative (alpha, v) over a standard-chart point.

    The chart only fixes the product a4*v44; a representative needs a
    gauge choice of a4.  When a4 != 0 the fourth entry of v4 is forced
    to a4_v44 / a4, and giving v44 as well raises GaugeError.  When
    a4 = 0 the product must vanish and v44 is free (0 unless given).
    Zero means |x| <= GAUGE_ZERO_TOL.  The system keeps the chart's own
    Cartan rows, ``pt.cartan``.
    """
    if abs(a4) <= GAUGE_ZERO_TOL:
        if abs(pt.a4_v44) > GAUGE_ZERO_TOL:
            raise GaugeError("a4 = 0 is inconsistent with a4*v44 != 0")
        a4 = 0.0
        v44 = 0.0 if v44 is None else float(v44)
    elif v44 is not None:
        raise GaugeError("v44 is a4*v44 / a4 when a4 != 0 and cannot be given")
    else:
        a4 = float(a4)
        v44 = pt.a4_v44 / a4
    alphas = (*_IDENTITY_4[:3], (pt.a1, pt.a2, pt.a3, a4))
    # the first three rows of [v] are those of the Cartan matrix
    return ReflectionSystem(alphas, tuple(zip(*pt.cartan[:3], (0.0, 0.0, 0.0, v44))),
                            pt.cartan)


def standard_coordinates(m):
    """Read standard-position coordinates off a 4x4 Cartan matrix.

    Conjugates by the positive diagonal matrix c fixing M21 = M31 =
    M14 = -1, entry by entry as M_ij * (c_i * (1 / c_j)), then returns
    (t13, t24, v23, v24, v34).
    """
    m = linalg._rows(m, (4, 4))
    if m[1][0] >= 0 or m[2][0] >= 0 or m[0][3] >= 0:
        raise DomainError("entries M21, M31, M14 must be negative to normalize")
    c = (1.0, -1.0 / m[1][0], -1.0 / m[2][0], -m[0][3])
    v23, v24, v34 = (m[i][j] * (c[i] * (1.0 / c[j])) for i, j in ((1, 2), (1, 3), (2, 3)))
    return (*_t_products(m), v23, v24, v34)


def concurrent_to_standard(p: ConcurrentChartParams) -> StandardChartPoint:
    """Map a concurrent point into the standard chart by gauge
    normalization.  The result has a4*v44 = 0 up to roundoff and a
    projectively equivalent Cartan matrix.
    """
    m = cartan_of(build_concurrent(p))
    t13, t24, v23, v24, v34 = standard_coordinates(m)
    return build_standard(p.orders, t13, t24, v23, v24, v34)


def _simplex_free_pairs(orders: EdgeOrders) -> list:
    """The simplex chart's free pairs (i, j), 2 <= i < j, of order >= 3,
    in row-major order; every order must be finite."""
    return [pair for pair, n, _ in orders.mu_table if pair[0] >= 2 and n >= 3]


class SimplexChartParams(namedtuple("SimplexChartParams", "n orders free")):
    """Free coordinates of the Coxeter n-simplex chart.

    ``free`` maps pairs (i, j) with 2 <= i < j <= n + 1 and finite
    order >= 3 to negative reals; the first row and column of [v] are
    fixed by the gauge (v1j = -mu_1j, vj1 = -1).  Pairs of order 2
    carry no parameter: both Cartan entries vanish.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n, orders, free = self
        if not 2 <= n <= 8:
            raise DomainError(f"simplex dimension n must be in [2, 8], got {n}")
        if orders.size != n + 1:
            raise DomainError("orders table must have n + 1 sides")
        if INFINITY in orders.orders.values():
            raise DomainError("simplex chart requires all finite orders")
        expected = _simplex_free_pairs(orders)
        if set(free) != set(expected):
            raise DomainError(f"free parameters must be exactly the pairs {expected}")
        for (i, j), value in free.items():
            if not math.isfinite(value) or value >= 0.0:
                raise DomainError(f"free parameter v{i}{j} must be negative")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def parameter_count(self) -> int:
        return len(self.free)


def build_simplex(p: SimplexChartParams) -> ReflectionSystem:
    """Reflection system of an n-simplex chart point: alphas the dual
    basis, [v] the Cartan matrix with v_ij * v_ji = mu_ij."""
    d = p.n + 1
    vmat = [[2.0 if i == j else 0.0 for j in range(d)] for i in range(d)]
    for (i, j), order, muij in p.orders.mu_table:
        if order == 2:
            continue
        if i == 1:
            vmat[0][j - 1] = -muij
            vmat[j - 1][0] = -1.0
        else:
            vij = float(p.free[(i, j)])
            vmat[i - 1][j - 1] = vij
            vmat[j - 1][i - 1] = muij / vij
    vmat = tuple(map(tuple, vmat))
    return ReflectionSystem(_identity(d), tuple(zip(*vmat)), vmat)


class CaseLabel(enum.Enum):
    """Zero pattern of (a4, v44) in the standard position."""

    I = "I"
    I_PRIME = "I'"
    II = "II"
    III = "III"


def classify_case(a4: float, v44: float) -> CaseLabel:
    """Case label from the zero pattern, with |x| <= GAUGE_ZERO_TOL
    read as zero."""
    a4_zero = abs(a4) <= GAUGE_ZERO_TOL
    v44_zero = abs(v44) <= GAUGE_ZERO_TOL
    if a4_zero:
        return CaseLabel.III if v44_zero else CaseLabel.II
    return CaseLabel.I_PRIME if v44_zero else CaseLabel.I


def is_semisimple(sys: ReflectionSystem) -> bool:
    """Whether V splits as (intersection of ker alpha_j) + span{v_j}.

    With A the alphas and V the vectors (rows), the kernel has dimension
    d - rank A and rank(A V^T) = rank V - dim(ker A & span V), so V
    splits iff rank A = rank V = rank M for the Cartan matrix M = A V^T.
    At rank A = rank V = d the intersection is zero already.
    """
    r = linalg.rank(sys.alpha_rows)
    if linalg.rank(sys.vector_rows) != r:
        return False
    return r == len(sys.alpha_rows[0]) or linalg.rank(sys.cartan) == r


def _exp_uniform(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    """e^U with U uniform on [lo, hi], computed in place on the draw."""
    import numpy as np
    u = rng.uniform(lo, hi, size)
    return np.exp(u, out=u)


def sample_t(rng: np.random.Generator, size) -> np.ndarray:
    """Interior T values 4 + e^U with U uniform on [-3, 3], one double
    of rng's stream per value."""
    x = _exp_uniform(rng, -3.0, 3.0, size)
    x += 4.0
    return x


def _box_draw(lo: float, hi: float):
    """The draw of :func:`sample_negative_box` over [lo, hi] as a
    function of (rng, size), with the box checked and the logs of its
    bounds taken once, so that a scan pays for them once and not once
    per block."""
    if not (-math.inf < lo < hi < 0.0):
        raise DomainError(f"box must satisfy -inf < lo < hi < 0, got [{lo}, {hi}]")
    import numpy as np
    u_lo, u_hi = np.log(-hi), np.log(-lo)

    def draw(rng: np.random.Generator, size) -> np.ndarray:
        x = _exp_uniform(rng, u_lo, u_hi, size)
        x *= -1.0
        return x

    return draw


def sample_negative_box(rng: np.random.Generator, lo: float, hi: float,
                        size) -> np.ndarray:
    """Log-uniform negatives in [lo, hi] with -inf < lo < hi < 0, one
    double of rng's stream per value."""
    return _box_draw(lo, hi)(rng, size)
