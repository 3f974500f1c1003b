"""End-to-end certificates: Coxeter relations, determinant locus,
convex cocompactness, and the appendix-style numeric scans.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import charts
from .cartan import Check, ReflectionSystem, Verdict, _pair_residuals, _t_products
from .errors import NormalizationError, WrongDiagram
from .linalg import TOL_ALGEBRAIC, _rows
from .orbifold import EdgeOrders, QuadPrismOrders

#: Gate on the residual of each Coxeter relation.  The residuals are
#: O(1) expressions in Cartan entries (see verify_relations), so no
#: rounding accumulates over a power: a valid finite pair of order 1000
#: reads about 1e-11 (its rounding grows like n^2), and an order moved
#: by one reads about 2/n.
RELATION_TOL = 1e-7


def verify_relations(sys: ReflectionSystem, orders: EdgeOrders,
                     tol: float = RELATION_TOL) -> Verdict:
    """Check R_i^2 = Id, (R_i R_j)^n_ij = Id for finite orders, and
    infinite order of R_i R_j for infinite ones, all read off the Cartan
    matrix M_ij = alpha_i(v_j).  The Verdict holds one Check per place,
    each bound by tol: an ``involution`` check per side (i,), then a
    ``finite`` or ``infinite`` check per pair (i, j), in pair order.

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
    checks = []
    for i, row in enumerate(m, start=1):
        res = abs(row[i - 1] - 2.0)
        if not res <= TOL_ALGEBRAIC:
            raise NormalizationError(f"a(v) = {row[i - 1]}, expected 2")
        checks.append(Check(("involution", (i,), res, tol, res <= tol)))
    for pair, n, mu_n, prod, res in _pair_residuals(m, orders):
        if mu_n is None:
            checks.append(Check(("infinite", pair, prod, tol, res <= tol)))
            continue
        if n >= 3:
            res /= 4.0 - mu_n
        checks.append(Check(("finite", pair, res, tol, res <= tol)))
    return Verdict(checks)


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
    t13, t24 = _t_products(_rows(m, (4, 4)))
    return t13 > 4.0 and t24 > 4.0


class DetLocusReport(namedtuple("DetLocusReport", "samples seed min_abs_det min_e")):
    """Extremes observed over the T13 = 4 and T24 = 4 boundary slices."""

    __slots__ = ()


def det_locus_check(orders: QuadPrismOrders, samples: int,
                    seed: int) -> DetLocusReport:
    """Sample standard-chart points on the two T = 4 boundary slices
    and record how close det(M) comes to zero.

    On each slice the other T is drawn from the interior distribution
    and (v23, v24, v34) log-uniformly; E is the positive defect in
    det(M) = (4 - T13)(4 - T24) - E.  det(M) is the solve's a4*v44 *
    det M[:3, :3] (see charts._standard_block); on a T = 4 slice the
    product is a signed zero, so E = -det(M) exactly.

    The samples are those of ``rng = np.random.default_rng(seed)``
    drawing, slice by slice, ``charts.sample_t(rng, samples)`` and then
    v23, v24 and v34 as one (3, samples) box draw, but read one block
    at a time (charts._drawn_blocks): slice s's free T starts at double
    4 * samples * s of the stream and its row r of v at 4 * samples * s
    + (1 + r) * samples.  Both minima are folded block by block over the
    samples with a finite a4*v44, so nothing of the sample size is kept.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    import numpy as np
    draw_v = charts._box_draw(-math.exp(2.0), -math.exp(-2.0))
    min_abs_det, min_e = {}, {}
    for s, slice_name in enumerate(("T13=4", "T24=4")):
        start = 4 * samples * s
        rows = [(start, charts.sample_t)] + [
            (start + (1 + r) * samples, draw_v) for r in range(3)]
        low_abs = low_e = float("inf")
        for _, (t_free, v23, v24, v34) in charts._drawn_blocks(seed, rows, samples):
            t13, t24 = (4.0, t_free) if s == 0 else (t_free, 4.0)
            a4_v44, det3 = charts._standard_block(orders, t13, t24, v23, v24, v34)
            with np.errstate(over="ignore", invalid="ignore"):
                det_m = (a4_v44 * det3)[np.isfinite(a4_v44)]
            if det_m.size:
                low_abs = min(low_abs, float(np.min(np.abs(det_m))))
                low_e = min(low_e, -float(np.max(det_m)))
            # free this block's arrays before the next block is solved
            del a4_v44, det3, det_m
        min_abs_det[slice_name] = low_abs
        min_e[slice_name] = low_e
    return DetLocusReport(samples, seed, min_abs_det, min_e)


class ConcurrentScanReport(namedtuple("ConcurrentScanReport", "grid_points_per_axis min_product "
                                      "argmin product_at_all_minus_one")):
    """Grid minimum of T13 * T24 over the concurrent chart."""

    __slots__ = ()


#: the range of each concurrent coordinate in concurrent_t_scan, and
#: of v23, v24 and v34 in standard_scan unless it is given a box
CONCURRENT_SCAN_BOX = (-10.0, -0.1)
STANDARD_SCAN_BOX = (-10.0, -0.01)


def concurrent_t_scan(orders: QuadPrismOrders,
                      grid_points_per_axis: int = 9) -> ConcurrentScanReport:
    """Minimum of T13 * T24 over a log-spaced grid of the four
    concurrent coordinates in CONCURRENT_SCAN_BOX; the grid always
    contains the all-(-1) point.
    """
    if grid_points_per_axis < 1:
        raise ValueError("grid_points_per_axis must be >= 1")
    import numpy as np
    lo, hi = CONCURRENT_SCAN_BOX
    g = grid_points_per_axis
    axis = -np.geomspace(-lo, -hi, g)
    # force -1, inside the box, onto the grid at index k
    k = int(np.argmin(np.abs(axis + 1.0)))
    axis[k] = -1.0
    # sparse axes: an entry is computed on the axes it reads, not the grid
    grid = np.meshgrid(axis, axis, axis, axis, indexing="ij", sparse=True)
    t13, t24 = _t_products(charts.concurrent_cartan(orders, *grid))
    product = t13 * t24
    idx = np.unravel_index(np.argmin(product), product.shape)
    argmin = tuple(float(axis[i]) for i in idx)
    return ConcurrentScanReport(g, float(product[idx]), argmin, float(product[k, k, k, k]))


class StandardScanReport(namedtuple("StandardScanReport", "samples valid_samples seed box t13 t24 "
                                    "min_a4_v44 max_a4_v44 argmin histogram records",
                                    defaults=(None,))):
    """Distribution of a4*v44 over random standard-chart points."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        """The fields but the records, with the box a list and argmin keyed by coordinate."""
        out = self._asdict()
        del out["records"]
        out.update(box=list(self.box), argmin=dict(zip(("v23", "v24", "v34"), self.argmin)))
        return out


def standard_scan(orders: QuadPrismOrders, t13: float, t24: float,
                  samples: int, seed: int, box=STANDARD_SCAN_BOX,
                  keep_records: bool = False) -> StandardScanReport:
    """Monte-Carlo scan of a4*v44 at fixed (T13, T24), both >= 4 as the
    standard chart requires.

    Coordinates are drawn log-uniformly in |v| over the box: the samples
    are ``charts.sample_negative_box(np.random.default_rng(seed), *box,
    (3, samples))``, rows v23, v24 and v34, read one block at a time
    (charts._drawn_blocks; row r starts at double r * samples of the
    stream), so the result is deterministic for a given seed.  Samples
    whose a4*v44 is not finite are dropped (the validity rule of
    charts._standard_block), while det(M), which no statistic uses, may
    read +-inf.  Each block is solved as soon as it is drawn; what
    outlives the block is a4*v44, 8 bytes per sample, plus the
    coordinate rows and det(M) when the records are kept.  The
    coordinates of the minimum are drawn again from the jumped streams,
    one double of each row, after the solve.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    charts._require_t(t13=t13, t24=t24)
    import numpy as np
    draw = charts._box_draw(*box)
    rows = [(r * samples, draw) for r in range(3)]
    a4_v44 = np.empty(samples)
    v = np.empty((3, samples)) if keep_records else None
    det_m = np.empty(samples) if keep_records else None
    with np.errstate(over="ignore", invalid="ignore"):
        for block, coords in charts._drawn_blocks(seed, rows, samples):
            a4_v44[block], det3 = charts._standard_block(orders, t13, t24, *coords)
            if keep_records:
                v[:, block] = coords
                np.multiply(a4_v44[block], det3, out=det_m[block])
    ok = np.isfinite(a4_v44)
    every = bool(ok.all())
    values = a4_v44 if every else a4_v44[ok]
    if values.size == 0:
        raise ValueError("a4*v44 overflows at every sample; bring the box nearer -1 "
                         "or lower T")
    kmin, kmax = int(np.argmin(values)), int(np.argmax(values))
    low, high = float(values[kmin]), float(values[kmax])
    if not math.isfinite(high - low):
        raise ValueError("the range of a4*v44 overflows; narrow the box or lower T")
    counts, edges = np.histogram(values, bins=20, range=(low, high))
    histogram = [{"lo": float(edges[k]), "hi": float(edges[k + 1]),
                  "count": int(counts[k])} for k in range(20)]
    records = None
    if keep_records:
        v23, v24, v34 = v if every else v[:, ok]
        records = {
            "v23": v23, "v24": v24, "v34": v34,
            "a4v44": values, "det_M": det_m if every else det_m[ok],
            "T13_prod": np.full(values.shape, float(t13)),
            "T24_prod": np.full(values.shape, float(t24)),
        }
    at = kmin if every else int(np.flatnonzero(ok)[kmin])
    _, point = next(charts._drawn_blocks(seed, [(start + at, draw) for start, _ in rows], 1))
    argmin = tuple(float(x[0]) for x in point)
    return StandardScanReport(
        samples, int(values.size), seed, (float(box[0]), float(box[1])),
        float(t13), float(t24), low, high, argmin, histogram, records)
