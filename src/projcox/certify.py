"""End-to-end certificates: Coxeter relations, determinant locus,
convex cocompactness, and the appendix-style numeric scans.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple

from . import charts
from .cartan import Check, ReflectionSystem, Verdict, _pair_checks, _t_products
from .errors import DomainError, InvariantViolation
from .linalg import TOL_ALGEBRAIC, _rows
from .orbifold import INFINITY, EdgeOrders, _quad_prism_mu


def verify_relations(sys: ReflectionSystem, orders: EdgeOrders,
                     tol: float = TOL_ALGEBRAIC) -> Verdict:
    """Check R_i^2 = Id, (R_i R_j)^n_ij = Id for finite orders, and
    infinite order of R_i R_j for infinite ones, all read off the Cartan
    matrix M_ij = alpha_i(v_j).  The Verdict holds an ``involution``
    check per side (i,): R_i is one iff M_ii = 2, so its residual is
    |M_ii - 2|, bound by tol, and a system off it by more than
    TOL_ALGEBRAIC is no reflection system (InvariantViolation).  Then
    one check per pair (i, j), in pair order, of cartan._pair_checks,
    which derives them: ``finite`` with its residual, or ``infinite``
    with its product M_ij M_ji, as value, and the pair's bound.
    """
    m = sys.cartan
    checks = []
    for i, row in enumerate(m, start=1):
        res = abs(row[i - 1] - 2.0)
        if not res <= TOL_ALGEBRAIC:
            raise InvariantViolation(f"a(v) = {row[i - 1]}, expected 2")
        checks.append(Check(("involution", (i,), res, tol, res <= tol)))
    for pair, n, prod, res, bound, passed in _pair_checks(m, orders, tol):
        checks.append(Check(("infinite", pair, prod, bound, passed) if n is INFINITY
                            else ("finite", pair, res, bound, passed)))
    return Verdict(checks)


def is_convex_cocompact(m, orders: EdgeOrders) -> bool:
    """Convex cocompactness of the quad-prism reflection group:
    both infinite-pair products T13 = M13 M31 and T24 = M24 M42 must
    exceed 4 strictly.  Any other order table raises UnsupportedShape.
    A system's rows (cartan_of) are read as held.

    A point with T13 = 4 or T24 = 4 is a valid deformation but not
    cocompact.  At extreme |v| the rows alone cannot tell T = 4 apart
    from a T that rounds to 4.0 (see charts.concurrent_t_excess).
    """
    _quad_prism_mu(orders)
    t13, t24 = _t_products(_rows(m, (4, 4)))
    return t13 > 4.0 and t24 > 4.0


class DetLocusReport(namedtuple("DetLocusReport", "samples seed min_abs_det")):
    """Least |det M| observed on the T13 = 4 and T24 = 4 boundary slices."""

    __slots__ = ()


def det_locus_check(orders: EdgeOrders, samples: int,
                    seed: int) -> DetLocusReport:
    """Sample standard-chart points on the two T = 4 boundary slices
    and record how close det(M) comes to zero.

    On each slice the other T is drawn from the interior distribution
    and (v23, v24, v34) log-uniformly; E is the positive defect in
    det(M) = (4 - T13)(4 - T24) - E.  det(M) is the solve's a4*v44 *
    det M[:3, :3] (see charts.standard_solution); on a T = 4 slice the
    product is a signed zero, so E = -det(M) exactly.  E > 0 there
    makes every det(M) negative, so min |det M| is read as -max det(M),
    the same bits; a sample with det(M) >= 0 would make it read <= 0
    and fail every ``> 1e-6`` check of it.

    The samples are those of ``rng = np.random.default_rng(seed)``
    drawing, slice by slice, ``charts.sample_t(rng, samples)`` and then
    v23, v24 and v34 as one (3, samples) box draw, but read one block
    at a time (charts._drawn_blocks): slice s's free T starts at double
    4 * samples * s of the stream and its row r of v at 4 * samples * s
    + (1 + r) * samples.  The minimum is folded block by block, so
    nothing of the sample size is kept.  On the fixed box (|v| in
    [e^-2, e^2], T in 4 + e^[-3, 3]) no entry of M or of the solution
    overflows, and det M3 <= -8, so no sample is dropped.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    import numpy as np
    draw_v = charts._box_draw(-math.exp(2.0), -math.exp(-2.0))
    min_abs_det = {}
    for s, slice_name in enumerate(("T13=4", "T24=4")):
        start = 4 * samples * s
        rows = [(start, charts.sample_t)] + [
            (start + (1 + r) * samples, draw_v) for r in range(3)]
        low = float("inf")
        for _, (t_free, v23, v24, v34) in charts._drawn_blocks(seed, rows, samples):
            t13, t24 = (4.0, t_free) if s == 0 else (t_free, 4.0)
            a4_v44, det3 = charts.standard_solution(orders, t13, t24, v23, v24, v34)[3:]
            a4_v44 *= det3   # det M, in the solve's own array
            low = min(low, -float(np.max(a4_v44)))
            # free this block's arrays before the next block is solved
            del a4_v44, det3
        min_abs_det[slice_name] = low
    return DetLocusReport(samples, seed, min_abs_det)


class ConcurrentScanReport(namedtuple("ConcurrentScanReport", "grid_points_per_axis min_product "
                                      "argmin product_at_all_minus_one")):
    """Grid minimum of T13 * T24 over the concurrent chart."""

    __slots__ = ()


#: the range of each concurrent coordinate in concurrent_t_scan, and
#: of v23, v24 and v34 in standard_scan unless it is given a box
CONCURRENT_SCAN_BOX = (-10.0, -0.1)
STANDARD_SCAN_BOX = (-10.0, -0.01)


def concurrent_t_scan(orders: EdgeOrders,
                      grid_points_per_axis: int = 9) -> ConcurrentScanReport:
    """Minimum of T13 * T24 over a log-spaced grid of the four
    concurrent coordinates in CONCURRENT_SCAN_BOX; the grid always
    contains the all-(-1) point.
    """
    if grid_points_per_axis < 1:
        raise DomainError("grid_points_per_axis must be >= 1")
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


#: values per chunk of _histogram, whose peak is one chunk's temporaries
#: (0.6 MB): 16384 measured 2-3x slower on the scans' a4*v44, 262144 up
#: to 1.5x faster on it but 1.3x slower on uniform values
_HIST_CHUNK = 65_536


def _histogram(values, low: float, high: float):
    """``np.histogram(values, 20, (low, high))`` for a float array with
    every value in [low, high].  On numpy's edges e_k, bin k is [e_k,
    e_(k+1)), the last closed, so it counts the values >= e_k less
    those >= e_(k+1).  Per chunk, the values >= e_1 are peeled off once
    and only they are compared with e_2 .. e_19.  Where the bin width is
    subnormal, numpy's edges are rounded unevenly and its counts follow
    its index formula instead, so numpy bins that range itself.
    """
    import numpy as np
    if 0.0 < high - low < 20 * 2.0 ** -1022:
        return np.histogram(values, 20, (low, high))
    edges = np.histogram_bin_edges(values, 20, (low, high))
    at_least = np.zeros(21, dtype=np.intp)
    for start in range(0, values.size, _HIST_CHUNK):
        chunk = values[start:start + _HIST_CHUNK]
        rest = chunk[chunk >= edges[1]]
        at_least[0] += chunk.size
        at_least[1] += rest.size
        for k in range(2, 20):
            at_least[k] += np.count_nonzero(rest >= edges[k])
    return at_least[:-1] - at_least[1:], edges


class StandardScanReport(namedtuple("StandardScanReport", "samples valid_samples seed box t13 t24 "
                                    "min_a4_v44 max_a4_v44 argmin histogram")):
    """Distribution of a4*v44 over random standard-chart points."""

    __slots__ = ()

    @property
    def summary(self) -> dict:
        """The fields, with the box a list and argmin keyed by coordinate."""
        out = self._asdict()
        out.update(box=list(self.box), argmin=dict(zip(("v23", "v24", "v34"), self.argmin)))
        return out


def _scan_blocks(orders: EdgeOrders, t13: float, t24: float, samples: int, seed: int, box,
                 start: int = 0, stop: int | None = None, block: int = charts._BLOCK):
    """A standard scan's samples start .. stop - 1 (all of them by
    default), valid or not, solved ``block`` samples at a time: (where,
    (v23, v24, v34), a4_v44, det3) per block of charts._drawn_blocks,
    det M being a4_v44 * det3.  The inputs are checked at the call.
    The solve's overflow is quieted per call, in the thread that makes
    it, so no errstate is held while the consumer runs."""
    if samples < 1:
        raise DomainError("samples must be >= 1")
    charts._require_t(t13=t13, t24=t24)
    import numpy as np
    draw = charts._box_draw(*box)
    rows = [(r * samples, draw) for r in range(3)]
    blocks = charts._drawn_blocks(seed, rows, samples if stop is None else stop, start, block)
    solve = np.errstate(over="ignore", divide="ignore", invalid="ignore")(charts.standard_solution)
    return ((where, v, *solve(orders, t13, t24, *v)[3:]) for where, v in blocks)


#: the fewest samples of a span, the contiguous share of a scan that
#: one worker solves: standard_scan splits over w = min(usable CPUs,
#: samples // _SPAN_MIN) workers.  Two workers against one, whole calls
#: interleaved over 25 rounds on a 2-vCPU VM (two runs), took 0.94-1.03x
#: the time at 1e5 samples, 0.87-0.88x at 1.5e5, 0.76-0.91x at 2e5 and
#: 0.73-0.82x at 2.6e5; 2^18 keeps each span well past that crossover,
#: and every scan below 524,288 samples, the benchmark's 1e5 ones and
#: the tests' 2e5 ones among them, on the calling thread with one
#: 8192-sample block in memory
_SPAN_MIN = 1 << 18
#: samples per block of a span solved beside others: at 1e6 samples on
#: two workers, blocks of 8192 took 0.98-1.11x the one-worker time,
#: 16384 0.65-0.74x and 32768 0.59-0.67x (same runs), as each numpy
#: call, which runs without the GIL, grows against the Python between
#: calls, which holds it; 16384 keeps a worker's draws and solve at
#: 1.5 MB
_SPAN_BLOCK = 2 * charts._BLOCK


def _require_a_valid_sample(valid_samples: int) -> None:
    """Refuse a scan, summary or CSV, that keeps no sample."""
    if not valid_samples:
        raise DomainError("a4*v44 overflows at every sample; bring the box nearer -1 "
                          "or lower T")


def standard_scan(orders: EdgeOrders, t13: float, t24: float,
                  samples: int, seed: int, box=STANDARD_SCAN_BOX) -> StandardScanReport:
    """Monte-Carlo scan of a4*v44 at fixed (T13, T24), both >= 4 as the
    standard chart requires.

    Coordinates are drawn log-uniformly in |v| over the box (lo, hi):
    the samples are -e^U for the (3, samples) draw
    ``np.random.default_rng(seed).uniform(log(-hi), log(-lo), (3,
    samples))``, rows v23, v24 and v34, read and solved one block at a
    time (_scan_blocks; row r starts at double r * samples of the
    stream), so the result is deterministic for a given seed.  A scan
    of at least 2 * _SPAN_MIN samples is split into contiguous spans,
    one per usable CPU up to samples // _SPAN_MIN, each drawn from the
    same jumped streams and solved on a thread of its own in blocks of
    _SPAN_BLOCK samples, the first on the calling thread; every sample
    is solved elementwise, so the report has the same bits whatever the
    split.  Samples whose a4*v44 is not finite are dropped (the validity
    rule of charts.standard_solution).  Only a4*v44, 8 bytes per sample,
    outlives its block; the coordinates of the minimum are drawn again
    from the jumped streams, one double of each row.

    The histogram has 20 equal-width bins over [min, max] of the valid
    a4*v44 (widened by 0.5 each way where they are equal), each [lo, hi)
    but the last, which is closed: ``numpy.histogram``'s edges and
    counts.  a4*v44 over a log-uniform box is
    heavy-tailed, nearly every sample in the first bin, so the bins are
    filled by peeling that bin off (_histogram).
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(cpus, samples // _SPAN_MIN))
    cuts = [samples * k // workers for k in range(workers + 1)]
    block = charts._BLOCK if workers == 1 else _SPAN_BLOCK
    spans = [_scan_blocks(orders, t13, t24, samples, seed, box, lo, hi, block)
             for lo, hi in zip(cuts, cuts[1:])]   # checked before np.empty
    import numpy as np
    a4_v44 = np.empty(samples)

    def fill(blocks):
        for where, _, solved, _ in blocks:
            a4_v44[where] = solved

    if workers == 1:
        fill(spans[0])
    else:
        # the calling thread fills the first span; leaving the pool joins
        # the others' threads, and result() raises their errors unchanged
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers - 1) as pool:
            futures = [pool.submit(fill, span) for span in spans[1:]]
            fill(spans[0])
            for future in futures:
                future.result()
    ok = np.isfinite(a4_v44)
    every = bool(ok.all())
    values = a4_v44 if every else a4_v44[ok]
    _require_a_valid_sample(values.size)
    kmin, kmax = int(np.argmin(values)), int(np.argmax(values))
    low, high = float(values[kmin]), float(values[kmax])
    if not math.isfinite(high - low):
        raise DomainError("the range of a4*v44 overflows; narrow the box or lower T")
    try:
        counts, edges = _histogram(values, low, high)
    except ValueError:   # numpy's "Too many bins"
        raise DomainError(f"a4*v44 runs only from {low!r} to {high!r}, too narrow a range "
                          "for 20 bins; take more samples or widen the box") from None
    histogram = [{"lo": float(edges[k]), "hi": float(edges[k + 1]),
                  "count": int(counts[k])} for k in range(20)]
    at = kmin if every else int(np.flatnonzero(ok)[kmin])
    draw = charts._box_draw(*box)
    _, point = next(charts._drawn_blocks(seed, [(r * samples, draw) for r in range(3)], at + 1, at))
    argmin = tuple(float(x[0]) for x in point)
    return StandardScanReport(
        samples, int(values.size), seed, (float(box[0]), float(box[1])),
        float(t13), float(t24), low, high, argmin, histogram)
