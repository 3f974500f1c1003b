"""The deformation charts of the quadrilateral-prism orbifold.

Three charts cover the 4-sided polytope with infinite orders on the
(1,3) and (2,4) pairs:

* the *general* chart, where the four covectors are the dual basis and
  the coordinates are (T13, T24, v23, v24, v34) with T >= 4 and v < 0;
* the *concurrent* chart, where alpha_4 = e1* - e2* + e3* and the
  coordinates are (v12, v23, v14, v34) < 0 plus the free entry v44
  (zero on the semisimple slice);
* the *standard* chart, a gauge in which both previous cases coexist
  and the dependent data (a1, a2, a3, a4*v44) is recovered from a 4x4
  linear system.

The n-simplex chart with all finite orders is included as the
degenerate relative the construction started from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .cartan import ReflectionSystem, cartan_of
from .errors import ConditionFailure, DomainError, GaugeError, SingularSystem
from .orbifold import EdgeOrders, QuadPrismOrders, is_finite_order

RESIDUAL_TOL = 1e-9


def _require_negative(**named):
    for name, value in named.items():
        if not np.isfinite(value) or value >= 0.0:
            raise DomainError(f"{name} must be negative, got {value}")


def _require_t(**named):
    for name, value in named.items():
        if not np.isfinite(value) or value < 4.0:
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
        if not np.isfinite(self.v44):
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
    read-only Cartan matrix that system was built from."""

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
    cartan: np.ndarray = field(repr=False, compare=False)


def standard_cartan(orders: QuadPrismOrders, t13, t24, v23, v24, v34) -> np.ndarray:
    """Cartan matrix of a standard-position point (broadcasts)."""
    t13, t24, v23, v24, v34 = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t13, t24, v23, v24, v34)))
    m = np.empty(t13.shape + (4, 4))
    m[..., 0, 0] = 2.0
    m[..., 0, 1] = -orders.mu12
    m[..., 0, 2] = -t13
    m[..., 0, 3] = -1.0
    m[..., 1, 0] = -1.0
    m[..., 1, 1] = 2.0
    m[..., 1, 2] = v23
    m[..., 1, 3] = v24
    m[..., 2, 0] = -1.0
    m[..., 2, 1] = orders.mu23 / v23
    m[..., 2, 2] = 2.0
    m[..., 2, 3] = v34
    m[..., 3, 0] = -orders.mu14
    m[..., 3, 1] = t24 / v24
    m[..., 3, 2] = orders.mu34 / v34
    m[..., 3, 3] = 2.0
    return m


def _solve_standard(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """Solve the standard-chart system for (a1, a2, a3, a4*v44).

    The first three coordinates of v_j are column j of the first three
    rows of M and the fourth is zero except v44, so alpha_4(v_j) = M_4j
    for j = 1..4 reads b x = rhs: b is the first three rows of M
    transposed plus an e4 column, rhs is row 4 of M.  Broadcasts over
    leading sample axes.

    Returns (m, b, rhs, x, valid): valid marks the samples whose system
    is nonsingular and whose solution is finite.  Overflowing entries
    only make samples invalid; no floating-point warning is raised.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = standard_cartan(orders, t13, t24, v23, v24, v34)
        b = np.zeros(m.shape)
        b[..., :3] = np.swapaxes(m[..., :3, :], -1, -2)
        b[..., 3, 3] = 1.0
        rhs = m[..., 3, :]
        ok = np.abs(np.linalg.det(b)) > linalg.TOL_SINGULAR
        np.copyto(b, np.eye(4), where=~ok[..., None, None])
        x = np.linalg.solve(b, rhs[..., None])[..., 0]
        valid = ok & np.isfinite(x).all(axis=-1)
    return m, b, rhs, x, valid


#: samples per block in solve_standard_batch: a block's M or b takes
#: 4096 * 16 * 8 bytes = 512 KiB, so the block's arrays stay in the
#: per-core L2 cache instead of streaming (n, 4, 4) arrays from memory
_BLOCK = 4096


def solve_standard_batch(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """Vectorized solve of the standard-chart system.

    Returns a dict with a1, a2, a3, a4_v44, det_m (determinant of the
    full Cartan matrix) and a validity mask (system nonsingular and
    solution finite), all of the broadcast shape of the inputs.  The
    samples are solved in blocks of ``_BLOCK``; each sample's LAPACK
    calls see the same 4x4 matrices as one whole-batch call would, so
    the results do not depend on the block size.
    """
    args = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (t13, t24, v23, v24, v34)))
    shape = args[0].shape
    # a view for 1-d inputs, scalars broadcast along them included
    flat = [x.reshape(-1) for x in args]
    n = flat[0].size
    sol = np.empty((n, 4))
    det_m = np.empty(n)
    valid = np.empty(n, dtype=bool)
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        m, _, _, sol[block], valid[block] = _solve_standard(
            orders, *(x[block] for x in flat))
        with np.errstate(over="ignore", invalid="ignore"):
            det_m[block] = np.linalg.det(m)
    sol = sol.reshape(shape + (4,))
    det_m = det_m.reshape(shape)
    valid = valid.reshape(shape)
    return {
        "a1": sol[..., 0], "a2": sol[..., 1], "a3": sol[..., 2],
        "a4_v44": sol[..., 3], "det_m": det_m, "valid": valid,
    }


def build_standard(orders: QuadPrismOrders, t13: float, t24: float,
                   v23: float, v24: float, v34: float) -> StandardChartPoint:
    """Solve for (a1, a2, a3, a4*v44) and validate the point.

    This is the one-point case of :func:`solve_standard_batch`.  Besides
    the solve residuals it re-checks the two inequality conditions of
    the chart (the T24 product and, when a4*v44 = 0, the concurrent sign
    pattern a1 > 0, a2 < 0, a3 > 0).
    """
    _require_t(t13=t13, t24=t24)
    _require_negative(v23=v23, v24=v24, v34=v34)
    m, b, rhs, sol, valid = _solve_standard(orders, t13, t24, v23, v24, v34)
    if not valid:
        raise SingularSystem("standard-chart system matrix is singular")
    a1, a2, a3, a4_v44 = sol
    scale = 1.0 + float(np.max(np.abs(rhs)))
    # an infinite entry of b meeting a zero of sol makes the residual NaN
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.max(np.abs(b @ sol - rhs)))
    if not np.isfinite(residual):
        raise ConditionFailure("solve residual is not finite")
    if residual > RESIDUAL_TOL * scale:
        raise ConditionFailure(f"solve residual {residual} exceeds tolerance")
    # redundant guard for v24 -> 0-: the (2,4) product must still be >= 4
    prod24 = v24 * (-a1 * orders.mu12 + 2.0 * a2 + a3 * orders.mu23 / v23)
    if prod24 < 4.0 - 1e-6 * (1.0 + abs(prod24)):
        raise ConditionFailure(f"(2,4) product {prod24} fell below 4")
    if abs(a4_v44) <= RESIDUAL_TOL and not (a1 > 0.0 and a2 < 0.0 and a3 > 0.0):
        raise ConditionFailure(
            f"concurrent sign pattern violated: a = ({a1}, {a2}, {a3})")
    m.flags.writeable = False
    return StandardChartPoint(orders, float(t13), float(t24), float(v23),
                              float(v24), float(v34), float(a1), float(a2),
                              float(a3), float(a4_v44), m)


def cartan_of_standard(pt: StandardChartPoint) -> np.ndarray:
    return pt.cartan


def realize_representation(pt: StandardChartPoint, a4: float,
                           v44: float = None,
                           tol: float = 1e-10) -> ReflectionSystem:
    """Pick a representative (alpha, v) over a standard-chart point.

    The chart only fixes the product a4*v44; a representative needs a
    gauge choice of a4.  When a4 != 0 the fourth entry of v4 is forced
    to a4_v44 / a4 (a caller-supplied v44 = 0 selects the non-semisimple
    representative on the a4_v44 = 0 locus).  When a4 = 0 the product
    must vanish and v44 is free.
    """
    if abs(a4) <= tol:
        if abs(pt.a4_v44) > tol:
            raise GaugeError("a4 = 0 is inconsistent with a4*v44 != 0")
        a4 = 0.0
        v44 = 0.0 if v44 is None else float(v44)
    elif v44 is None:
        v44 = pt.a4_v44 / a4
    alphas = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [pt.a1, pt.a2, pt.a3, a4],
    ])
    # the first three rows of [v] are those of the Cartan matrix
    vmat = np.vstack([pt.cartan[:3], (0.0, 0.0, 0.0, v44)])
    return ReflectionSystem(alphas, vmat.T)


def standard_coordinates(m: np.ndarray):
    """Read standard-position coordinates off a 4x4 Cartan matrix.

    Conjugates by the positive diagonal matrix fixing M21 = M31 =
    M14 = -1, then returns (t13, t24, v23, v24, v34).
    """
    m = np.asarray(m, dtype=float)
    if m[1, 0] >= 0 or m[2, 0] >= 0 or m[0, 3] >= 0:
        raise DomainError("entries M21, M31, M14 must be negative to normalize")
    c = np.array([1.0, -1.0 / m[1, 0], -1.0 / m[2, 0], -m[0, 3]])
    mn = m * np.outer(c, 1.0 / c)
    t13 = m[0, 2] * m[2, 0]
    t24 = m[1, 3] * m[3, 1]
    return t13, t24, mn[1, 2], mn[1, 3], mn[2, 3]


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
            if not np.isfinite(value) or value >= 0.0:
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


def classify_case(a4: float, v44: float, tol: float = 1e-10) -> CaseLabel:
    """Case label from the zero pattern, with |x| <= tol read as zero."""
    a4_zero = abs(a4) <= tol
    v44_zero = abs(v44) <= tol
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
