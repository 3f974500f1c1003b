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
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .cartan import ReflectionSystem, _rows_4x4, cartan_of
from .errors import ConditionFailure, DomainError, GaugeError, SingularSystem
from .orbifold import EdgeOrders, QuadPrismOrders, is_finite_order

RESIDUAL_TOL = 1e-9

#: gamma_5 = 5u / (1 - 5u), u = 2^-53 (Higham, ch. 3): times the sum of
#: its |terms|, the rounding bound of a rebuilt entry of row 4 of M
_GAMMA_5 = 5 * 2.0**-53 / (1 - 5 * 2.0**-53)

#: |x| <= GAUGE_ZERO_TOL reads a4, v44 or a4*v44 as zero in the gauge
#: (realize_representation, classify_case).  concurrent_to_standard
#: leaves |a4*v44| below about 1e-11 for |v| up to e^6.
GAUGE_ZERO_TOL = 1e-10


def _require_negative(**named):
    for name, value in named.items():
        if not math.isfinite(value) or value >= 0.0:
            raise DomainError(f"{name} must be negative, got {value}")


def _require_t(**named):
    for name, value in named.items():
        if not math.isfinite(value) or value < 4.0:
            raise DomainError(f"{name} must be >= 4, got {value}")


@dataclass(frozen=True)
class GeneralChartParams:
    """Coordinates of the general-position chart: R^3 x [4, inf)^2."""

    orders: QuadPrismOrders
    t13: float
    t24: float
    v23: float
    v24: float
    v34: float

    def __post_init__(self):
        _require_t(t13=self.t13, t24=self.t24)
        _require_negative(v23=self.v23, v24=self.v24, v34=self.v34)


def build_general(p: GeneralChartParams) -> ReflectionSystem:
    """Reflection system of a general-chart point.

    The covectors are the dual basis, so the vector matrix [v] is the
    Cartan matrix itself, with v13 = -T13 and v42 = T24 / v24.
    """
    o = p.orders
    v13 = -p.t13
    v42 = p.t24 / p.v24
    vmat = np.array([
        [2.0, -o.mu12, v13, -o.mu14],
        [-1.0, 2.0, p.v23, p.v24],
        [-1.0, o.mu23 / p.v23, 2.0, p.v34],
        [-1.0, v42, o.mu34 / p.v34, 2.0],
    ])
    return ReflectionSystem(np.eye(4), vmat.T)


@dataclass(frozen=True)
class ConcurrentChartParams:
    """Coordinates of the concurrent chart; v44 = 0 is the semisimple
    slice."""

    orders: QuadPrismOrders
    v12: float
    v23: float
    v14: float
    v34: float
    v44: float = 0.0

    def __post_init__(self):
        _require_negative(v12=self.v12, v23=self.v23, v14=self.v14, v34=self.v34)
        if not math.isfinite(self.v44):
            raise DomainError("v44 must be finite")


def concurrent_entries(orders: QuadPrismOrders, v12, v23, v14, v34):
    """The Cartan entries (M13, M31, M24, M42) of a concurrent-chart
    point, so T13 = M13 M31 and T24 = M24 M42.  Operators only, so it
    takes floats and arrays alike."""
    return (v23 + orders.mu34 / v34 - 2.0,
            orders.mu14 / v14 + orders.mu12 / v12 - 2.0,
            v14 + v34 - 2.0,
            v12 + orders.mu23 / v23 - 2.0)


def build_concurrent(p: ConcurrentChartParams) -> ReflectionSystem:
    """Reflection system of a concurrent-chart point.

    alpha_4 = e1* - e2* + e3* annihilates e4, so the Cartan matrix is
    independent of the free entry v44 and always has M44 = 2.  Row 4 of
    the matrix, M42 included, is alpha_4 applied to the vectors.
    """
    o = p.orders
    m13, m31, m24, _ = concurrent_entries(o, p.v12, p.v23, p.v14, p.v34)
    vmat = np.array([
        [2.0, p.v12, m13, p.v14],
        [o.mu12 / p.v12, 2.0, p.v23, m24],
        [m31, o.mu23 / p.v23, 2.0, p.v34],
        [0.0, 0.0, 0.0, p.v44],
    ])
    alphas = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, -1.0, 1.0, 0.0],
    ])
    return ReflectionSystem(alphas, vmat.T)


@dataclass(frozen=True)
class StandardChartPoint:
    """A standard-position point: the five chart coordinates, the
    derived quantities solved from the defining linear system, and the
    rows of the Cartan matrix that system was built from."""

    orders: QuadPrismOrders
    t13: float
    t24: float
    v23: float
    v24: float
    v34: float
    a1: float
    a2: float
    a3: float
    a4_v44: float
    cartan: tuple = field(repr=False, compare=False)


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


def _solution_valid(det3, solution):
    """Whether the system is nonsingular and its solution finite, for
    floats and arrays alike."""
    return (abs(det3) > linalg.TOL_SINGULAR) & np.isfinite(solution).all(axis=0)


#: samples per block in solve_standard_batch: a block's live
#: temporaries, about 18 arrays of 8192 * 8 bytes = 64 KiB, stay in a
#: 2 MiB per-core L2 cache instead of streaming whole-batch arrays from
#: memory (4096 measured about 10 % slower, 16384 no faster)
_BLOCK = 8192


def solve_standard_batch(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """Vectorized solve of the standard-chart system.

    Returns a dict with a1, a2, a3, a4_v44, det_m (determinant of the
    full Cartan matrix) and a validity mask, all of the broadcast shape
    of the inputs.  Each sample is :func:`standard_solution` on its
    coordinates, computed over blocks of ``_BLOCK`` samples; the
    arithmetic is elementwise, so the results do not depend on the
    block size.

    M = A V^T with det A = a4 and det V = v44 det M3, so det M =
    a4*v44 * det3.  A sample is valid when |det3| exceeds
    ``linalg.TOL_SINGULAR`` and its solution is finite.  On the chart
    (mu >= 1, T13 >= 4, v23 < 0) the singularity gate never drops a
    sample:

        det3 = 8 - 2 mu12 - 2 mu23 - 2 T13 + mu12 v23 + T13 mu23 / v23
             <= 8 - 2 - 2 - 8 - 2 sqrt(mu12 mu23 T13) <= -8

    by AM-GM on the two negative terms, so only a non-finite solution
    (an entry of M or of the solution overflowing) makes a sample
    invalid.  Overflow raises no floating-point warning.
    """
    args = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t13, t24, v23, v24, v34)))
    shape = args[0].shape
    # a view for 1-d inputs, scalars broadcast along them included
    flat = [x.reshape(-1) for x in args]
    n = flat[0].size
    # five separate outputs rather than one (5, n) array: at 1e6 samples
    # each can reuse heap memory freed earlier, so peak RSS stays lower
    out = [np.empty(n) for _ in range(5)]
    valid = np.empty(n, dtype=bool)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, n, _BLOCK):
            block = slice(lo, lo + _BLOCK)
            *sol, det3 = standard_solution(orders, *(x[block] for x in flat))
            for x, y in zip(out, sol):
                x[block] = y
            np.multiply(sol[3], det3, out=out[4][block])
            valid[block] = _solution_valid(det3, sol)
    a1, a2, a3, a4_v44, det_m = (x.reshape(shape) for x in out)
    return {"a1": a1, "a2": a2, "a3": a3, "a4_v44": a4_v44,
            "det_m": det_m, "valid": valid.reshape(shape)}


def build_standard(orders: QuadPrismOrders, t13: float, t24: float,
                   v23: float, v24: float, v34: float) -> StandardChartPoint:
    """Solve for (a1, a2, a3, a4*v44) and validate the point.

    This is :func:`standard_solution` on Python floats, so it returns
    bit for bit the values :func:`solve_standard_batch` gives for the
    same point, and raises where that marks the point invalid (DomainError
    for an overflowed solution).  It then checks each entry of row 4 of
    M rebuilt as alpha_4 applied to the vectors, to RESIDUAL_TOL (1 +
    max|row 4|) plus the rounding bound of the entry's own terms, and
    the two inequality conditions of the chart (the T24 product and,
    when a4*v44 = 0, the concurrent sign pattern a1 > 0, a2 < 0, a3 > 0).
    """
    _require_t(t13=t13, t24=t24)
    _require_negative(v23=v23, v24=v24, v34=v34)
    t13, t24, v23, v24, v34 = (float(x) for x in (t13, t24, v23, v24, v34))
    *sol, det3 = standard_solution(orders, t13, t24, v23, v24, v34)
    if not _solution_valid(det3, sol):
        if math.isfinite(det3) and abs(det3) <= linalg.TOL_SINGULAR:
            raise SingularSystem("standard-chart system matrix is singular")
        raise DomainError("standard-chart solve overflowed: the coordinates are too large")
    a1, a2, a3, a4_v44 = sol
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
    # redundant guard for v24 -> 0-: the (2,4) product must still be >= 4
    prod24 = v24 * (-a1 * orders.mu12 + 2.0 * a2 + a3 * orders.mu23 / v23)
    if prod24 < 4.0 - 1e-6 * (1.0 + abs(prod24)):
        raise ConditionFailure(f"(2,4) product {prod24} fell below 4")
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
    Zero means |x| <= GAUGE_ZERO_TOL.
    """
    if abs(a4) <= GAUGE_ZERO_TOL:
        if abs(pt.a4_v44) > GAUGE_ZERO_TOL:
            raise GaugeError("a4 = 0 is inconsistent with a4*v44 != 0")
        a4 = 0.0
        v44 = 0.0 if v44 is None else float(v44)
    elif v44 is not None:
        raise GaugeError("v44 is a4*v44 / a4 when a4 != 0 and cannot be given")
    else:
        v44 = pt.a4_v44 / a4
    alphas = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [pt.a1, pt.a2, pt.a3, a4],
    ])
    # the first three rows of [v] are those of the Cartan matrix
    vmat = np.array([*pt.cartan[:3], (0.0, 0.0, 0.0, v44)])
    return ReflectionSystem(alphas, vmat.T)


def standard_coordinates(m):
    """Read standard-position coordinates off a 4x4 Cartan matrix.

    Conjugates by the positive diagonal matrix c fixing M21 = M31 =
    M14 = -1, entry by entry as M_ij * (c_i * (1 / c_j)), then returns
    (t13, t24, v23, v24, v34).
    """
    m = _rows_4x4(m)
    if m[1][0] >= 0 or m[2][0] >= 0 or m[0][3] >= 0:
        raise DomainError("entries M21, M31, M14 must be negative to normalize")
    c = (1.0, -1.0 / m[1][0], -1.0 / m[2][0], -m[0][3])
    v23, v24, v34 = (m[i][j] * (c[i] * (1.0 / c[j])) for i, j in ((1, 2), (1, 3), (2, 3)))
    return m[0][2] * m[2][0], m[1][3] * m[3][1], v23, v24, v34


def concurrent_to_standard(p: ConcurrentChartParams) -> StandardChartPoint:
    """Map a concurrent point into the standard chart by gauge
    normalization.  The result has a4*v44 = 0 up to roundoff and a
    projectively equivalent Cartan matrix.
    """
    m = cartan_of(build_concurrent(p))
    t13, t24, v23, v24, v34 = standard_coordinates(m)
    return build_standard(p.orders, t13, t24, v23, v24, v34)


@dataclass(frozen=True)
class SimplexChartParams:
    """Free coordinates of the Coxeter n-simplex chart.

    ``free`` maps pairs (i, j) with 2 <= i < j <= n + 1 and finite
    order >= 3 to negative reals; the first row and column of [v] are
    fixed by the gauge (v1j = -mu_1j, vj1 = -1).  Pairs of order 2
    carry no parameter: both Cartan entries vanish.
    """

    n: int
    orders: EdgeOrders
    free: dict

    def __post_init__(self):
        if not 2 <= self.n <= 8:
            raise DomainError(f"simplex dimension n must be in [2, 8], got {self.n}")
        if self.orders.size != self.n + 1:
            raise DomainError("orders table must have n + 1 sides")
        for (i, j), order in self.orders.orders.items():
            if not is_finite_order(order):
                raise DomainError("simplex chart requires all finite orders")
        expected = {(i, j) for (i, j) in self.orders.orders
                    if i >= 2 and self.orders.order(i, j) >= 3}
        given = set(self.free)
        if given != expected:
            raise DomainError(
                f"free parameters must be exactly the pairs {sorted(expected)}")
        for (i, j), value in self.free.items():
            if not math.isfinite(value) or value >= 0.0:
                raise DomainError(f"free parameter v{i}{j} must be negative")

    @property
    def parameter_count(self) -> int:
        return len(self.free)


def build_simplex(p: SimplexChartParams) -> ReflectionSystem:
    """Reflection system of an n-simplex chart point: alphas the dual
    basis, [v] the Cartan matrix with v_ij * v_ji = mu_ij."""
    d = p.n + 1
    vmat = 2.0 * np.eye(d)
    for (i, j), order, muij in p.orders.mu_table:
        if order == 2:
            continue
        if i == 1:
            vmat[0, j - 1] = -muij
            vmat[j - 1, 0] = -1.0
        else:
            vij = p.free[(i, j)]
            vmat[i - 1, j - 1] = vij
            vmat[j - 1, i - 1] = muij / vij
    return ReflectionSystem(np.eye(d), vmat.T)


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
    r = linalg.rank(sys.alphas)
    if linalg.rank(sys.vectors) != r:
        return False
    return r == sys.alphas.shape[1] or linalg.rank(sys.cartan) == r


def sample_negative(rng: np.random.Generator, size=None) -> np.ndarray:
    """Negative coordinates spread log-uniformly over [-e^2, -e^-2]."""
    return -np.exp(rng.uniform(-2.0, 2.0, size))


def sample_t(rng: np.random.Generator, size=None) -> np.ndarray:
    """Interior T values 4 + e^U with U uniform on [-3, 3]."""
    return 4.0 + np.exp(rng.uniform(-3.0, 3.0, size))


def sample_negative_box(rng: np.random.Generator, lo: float, hi: float,
                        size=None) -> np.ndarray:
    """Log-uniform negatives in [lo, hi] with lo < hi < 0."""
    if not (lo < hi < 0.0):
        raise DomainError(f"box must satisfy lo < hi < 0, got [{lo}, {hi}]")
    return -np.exp(rng.uniform(np.log(-hi), np.log(-lo), size))
