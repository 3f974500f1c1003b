"""End-to-end certificates: Coxeter relations, determinant locus,
convex cocompactness, and the appendix-style numeric scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import charts
from .cartan import ReflectionSystem, _pair_residuals, _rows_4x4
from .errors import NormalizationError, WrongDiagram
from .linalg import TOL_ALGEBRAIC
from .orbifold import EdgeOrders, QuadPrismOrders

#: Gate on the residual of each Coxeter relation.  The residuals are
#: O(1) expressions in Cartan entries (see verify_relations), so no
#: rounding accumulates over a power: a valid finite pair of order 1000
#: reads about 1e-11 (its rounding grows like n^2), and an order moved
#: by one reads about 2/n.
RELATION_TOL = 1e-7


@dataclass
class RelationReport:
    """Residuals of the Coxeter relations of one reflection system."""

    involution_residuals: dict
    finite_pair_residuals: dict
    infinite_pair_products: dict
    tol: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_relations(sys: ReflectionSystem, orders: EdgeOrders,
                     tol: float = RELATION_TOL) -> RelationReport:
    """Check R_i^2 = Id, (R_i R_j)^n_ij = Id for finite orders, and
    infinite order of R_i R_j for infinite ones, all read off the Cartan
    matrix M_ij = alpha_i(v_j).

    R_i is an involution iff M_ii = 2; the residual is |M_ii - 2|, and
    a system off it by more than TOL_ALGEBRAIC is not a reflection
    system at all (NormalizationError).  On span{v_i, v_j}, R_i R_j is
    [[p - 1, M_ij], [-M_ji, -1]] with p = M_ij M_ji: determinant 1 and
    trace p - 2.  It is the identity on ker alpha_i & ker alpha_j, which
    complements that span when det [[2, M_ij], [M_ji, 2]] = 4 - p != 0.
    Hence, for n >= 3, (R_i R_j)^n = Id with order exactly n iff
    p = mu(n) = 4cos^2(pi/n).  For 0 <= p < 4, R_i R_j rotates its plane
    by the angle t with 4 - p = 4sin^2(t/2), so the residual

        |p - mu(n)| / (4 - mu(n)) = |sin^2(t/2) / sin^2(pi/n) - 1|

    is, to first order, n|t - 2pi/n| / pi: the angle by which
    (R_i R_j)^n misses the identity, in units of pi.  It is about 2/n
    for an order moved by one, where |p - mu(n)| alone is about
    8pi^2/n^3 and falls below the gate near n = 925.  For n = 2 the block
    must be -Id, so the residual is max(|M_ij|, |M_ji|).  For an infinite
    order, p > 4 gives a real eigenvalue pair (lambda, 1/lambda) with
    lambda > 1 and p = 4 a unipotent Jordan block, so no power returns
    to the identity; the product p is reported and products below
    4 - tol are failures.  A NaN residual fails.
    """
    m = sys.cartan
    failures = []

    involutions = {}
    for i, row in enumerate(m, start=1):
        res = abs(row[i - 1] - 2.0)
        if not res <= TOL_ALGEBRAIC:
            raise NormalizationError(f"a(v) = {row[i - 1]}, expected 2")
        involutions[i] = res
        if not res <= tol:
            failures.append(("involution", i))

    finite_res = {}
    infinite_prod = {}
    for pair, n, mu_n, prod, res in _pair_residuals(m, orders):
        if mu_n is None:
            infinite_prod[pair] = prod
            if not res <= tol:
                failures.append(("infinite", pair))
            continue
        if n >= 3:
            res /= 4.0 - mu_n
        finite_res[pair] = res
        if not res <= tol:
            failures.append(("finite", pair))

    return RelationReport(involutions, finite_res, infinite_prod, tol, failures)


def is_convex_cocompact(m, orders: EdgeOrders) -> bool:
    """Convex cocompactness of the quad-prism reflection group:
    both infinite-pair products T13 = M13 M31 and T24 = M24 M42 must
    exceed 4 strictly.  Any other order table raises WrongDiagram.

    A point with T13 = 4 or T24 = 4 is a valid deformation but not
    cocompact.
    """
    table = orders.mu_table
    if orders.size != 4 or [p for p, _, mu_n in table if mu_n is None] != [(1, 3), (2, 4)]:
        raise WrongDiagram("expected the quad-prism pattern: infinite (1,3), (2,4)")
    if any(n < 3 for _, n, mu_n in table if mu_n is not None):
        raise WrongDiagram("finite orders must be >= 3")
    rows = _rows_4x4(m)
    return all(p > 4.0 for _, _, mu_n, p, _ in _pair_residuals(rows, orders) if mu_n is None)


@dataclass
class DetLocusReport:
    """Extremes observed over the T13 = 4 and T24 = 4 boundary slices."""

    samples: int
    seed: int
    min_abs_det: dict
    min_e: dict


def det_locus_check(orders: QuadPrismOrders, samples: int,
                    seed: int) -> DetLocusReport:
    """Sample standard-chart points on the two T = 4 boundary slices
    and record how close det(M) comes to zero.

    On each slice the other T is drawn from the interior distribution
    and (v23, v24, v34) log-uniformly; E is the positive defect in
    det(M) = (4 - T13)(4 - T24) - E.  det(M) is the solve's a4*v44 *
    det M[:3, :3] (see charts.solve_standard_batch).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    min_abs_det = {}
    min_e = {}
    for slice_name in ("T13=4", "T24=4"):
        t_free = charts.sample_t(rng, samples)
        t13 = np.full(samples, 4.0) if slice_name == "T13=4" else t_free
        t24 = t_free if slice_name == "T13=4" else np.full(samples, 4.0)
        v23 = charts.sample_negative(rng, samples)
        v24 = charts.sample_negative(rng, samples)
        v34 = charts.sample_negative(rng, samples)
        result = charts.solve_standard_batch(orders, t13, t24, v23, v24, v34)
        det_m = result["det_m"][result["valid"]]
        e = (4.0 - t13) * (4.0 - t24) - result["det_m"]
        min_abs_det[slice_name] = float(np.min(np.abs(det_m)))
        min_e[slice_name] = float(np.min(e[result["valid"]]))
    return DetLocusReport(samples, seed, min_abs_det, min_e)


@dataclass
class ConcurrentScanReport:
    """Grid minimum of T13 * T24 over the concurrent chart."""

    grid_points_per_axis: int
    min_product: float
    argmin: tuple
    product_at_all_minus_one: float


#: the range of each concurrent coordinate in concurrent_t_scan
CONCURRENT_SCAN_BOX = (-10.0, -0.1)


def concurrent_t_scan(orders: QuadPrismOrders,
                      grid_points_per_axis: int = 9) -> ConcurrentScanReport:
    """Minimum of T13 * T24 over a log-spaced grid of the four
    concurrent coordinates in CONCURRENT_SCAN_BOX; the grid always
    contains the all-(-1) point.
    """
    if grid_points_per_axis < 1:
        raise ValueError("grid_points_per_axis must be >= 1")
    lo, hi = CONCURRENT_SCAN_BOX
    g = grid_points_per_axis
    axis = -np.geomspace(-lo, -hi, g)
    # force -1, inside the box, onto the grid
    axis[np.argmin(np.abs(axis + 1.0))] = -1.0
    v12, v23, v14, v34 = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    m13, m31, m24, m42 = charts.concurrent_entries(orders, v12, v23, v14, v34)
    product = (m13 * m31) * (m24 * m42)
    flat = int(np.argmin(product))
    idx = np.unravel_index(flat, product.shape)
    argmin = tuple(float(a[idx]) for a in (v12, v23, v14, v34))
    m13, m31, m24, m42 = charts.concurrent_entries(orders, -1.0, -1.0, -1.0, -1.0)
    return ConcurrentScanReport(g, float(product[idx]), argmin,
                                float((m13 * m31) * (m24 * m42)))


@dataclass
class StandardScanReport:
    """Distribution of a4*v44 over random standard-chart points."""

    samples: int
    valid_samples: int
    seed: int
    box: tuple
    t13: float
    t24: float
    min_a4_v44: float
    max_a4_v44: float
    argmin: tuple
    histogram: list
    records: dict = None

    @property
    def summary(self) -> dict:
        return {
            "samples": self.samples, "valid_samples": self.valid_samples,
            "seed": self.seed, "box": list(self.box),
            "t13": self.t13, "t24": self.t24,
            "min_a4_v44": self.min_a4_v44, "max_a4_v44": self.max_a4_v44,
            "argmin": {"v23": self.argmin[0], "v24": self.argmin[1],
                       "v34": self.argmin[2]},
            "histogram": self.histogram,
        }


def standard_scan(orders: QuadPrismOrders, t13: float, t24: float,
                  samples: int, seed: int, box=(-10.0, -0.01),
                  keep_records: bool = False) -> StandardScanReport:
    """Monte-Carlo scan of a4*v44 at fixed (T13, T24), both >= 4 as the
    standard chart requires.

    Coordinates are drawn log-uniformly in |v| over the box; samples
    with a non-finite solution are dropped (on the chart the 3x3 block
    is never singular), while det(M), which no statistic uses, may read
    +-inf.  The result is deterministic for a given seed.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    charts._require_t(t13=t13, t24=t24)
    rng = np.random.default_rng(seed)
    v23 = charts.sample_negative_box(rng, box[0], box[1], samples)
    v24 = charts.sample_negative_box(rng, box[0], box[1], samples)
    v34 = charts.sample_negative_box(rng, box[0], box[1], samples)
    result = charts.solve_standard_batch(orders, t13, t24, v23, v24, v34)
    ok = result["valid"]
    values = result["a4_v44"][ok]
    if values.size == 0:
        raise ValueError("no valid samples; enlarge the box or sample count")
    kmin = int(np.argmin(values))
    counts, edges = np.histogram(values, bins=20)
    histogram = [{"lo": float(edges[k]), "hi": float(edges[k + 1]),
                  "count": int(counts[k])} for k in range(20)]
    records = None
    if keep_records:
        records = {
            "v23": v23[ok], "v24": v24[ok], "v34": v34[ok],
            "a4v44": values, "det_M": result["det_m"][ok],
            "T13_prod": np.full(values.shape, float(t13)),
            "T24_prod": np.full(values.shape, float(t24)),
        }
    return StandardScanReport(
        samples, int(np.sum(ok)), seed, (float(box[0]), float(box[1])),
        float(t13), float(t24), float(np.min(values)), float(np.max(values)),
        (float(v23[ok][kmin]), float(v24[ok][kmin]), float(v34[ok][kmin])),
        histogram, records)
