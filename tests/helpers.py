"""Shared random-point generators, the brute-force reflection
reference and subprocess runner for the test suite."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from projcox import certify, charts
from projcox.errors import InvariantViolation
from projcox.orbifold import QuadPrismOrders, _quad_prism_mu

ORDER_CHOICES = (3, 4, 5, 6)


def sample_negative_spread(rng: np.random.Generator, spread: float) -> float:
    """Negative coordinate with |v| log-uniform in [e^-spread, e^spread]."""
    return float(-np.exp(rng.uniform(-spread, spread)))


def negative_box(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    """The scans' log-uniform negatives in [lo, hi], rebuilt from numpy
    alone: -e^U with U = rng.uniform(log(-hi), log(-lo), size), the bits
    charts._box_draw claims to match."""
    return -np.exp(rng.uniform(np.log(-hi), np.log(-lo), size))


def sample_t_spread(rng: np.random.Generator, spread: float) -> float:
    return float(4.0 + np.exp(rng.uniform(-spread, spread)))


def random_orders(rng: np.random.Generator) -> QuadPrismOrders:
    picks = rng.choice(ORDER_CHOICES, size=4)
    return QuadPrismOrders(*(int(n) for n in picks))


def random_general(rng: np.random.Generator, orders: QuadPrismOrders = None,
                   spread: float = 2.0) -> charts.GeneralChartParams:
    if orders is None:
        orders = random_orders(rng)
    return charts.GeneralChartParams(
        orders,
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread))


def random_concurrent(rng: np.random.Generator, orders: QuadPrismOrders = None,
                      v44: float = 0.0,
                      spread: float = 2.0) -> charts.ConcurrentChartParams:
    if orders is None:
        orders = random_orders(rng)
    return charts.ConcurrentChartParams(
        orders,
        sample_negative_spread(rng, spread), sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread), sample_negative_spread(rng, spread),
        v44)


def random_standard(rng: np.random.Generator, orders: QuadPrismOrders = None,
                    spread: float = 2.0) -> charts.StandardChartPoint:
    """A valid standard-chart point, with |v| log-uniform in
    [e^-spread, e^spread]; at spread <= 3 no solve overflows."""
    o = orders if orders is not None else random_orders(rng)
    return charts.build_standard(
        o,
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_t_spread(rng, min(spread + 1.0, 3.0)),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread),
        sample_negative_spread(rng, spread))


#: gamma_5 = 5u / (1 - 5u), u = 2^-53 (Higham, ch. 3): times the sum of
#: its |terms|, the rounding bound of a sum of five rounded terms
GAMMA_5 = 5 * 2.0**-53 / (1 - 5 * 2.0**-53)


def row_4_gaps_within_bound(pt: charts.StandardChartPoint) -> bool:
    """Whether each entry of row 4 of M, rebuilt from the solution as
    a1 M1j + a2 M2j + a3 M3j (+ a4*v44 for j = 4), is within
    1e-9 (1 + max|row 4|) of the chart's entry, plus GAMMA_5 times the
    sum of the |terms| of the rebuilt entry.  The terms' bound keeps the
    2 of M44, lost in rounding a4*v44 from |v| = 1e16; a NaN gap fails."""
    rows = pt.cartan
    scale = 1e-9 * (1.0 + max(map(abs, rows[3])))
    for j, (x, y, z, target) in enumerate(zip(*rows)):
        p, q, r = pt.a1 * x, pt.a2 * y, pt.a3 * z
        s = pt.a4_v44 if j == 3 else 0.0
        gap = abs(p + q + r + s - target)
        if not gap <= scale + GAMMA_5 * (abs(p) + abs(q) + abs(r) + abs(s)):
            return False
    return True


#: valid standard-chart points at orders (3, 4, 5, 6), as (T13, T24,
#: v23, v24, v34), whose a1, a2, a3 reach 1e6 to 1e7: a (2,4) product
#: re-derived from them, v24 (-a1 mu12 + 2 a2 + a3 mu23 / v23), loses
#: T24 to cancellation (3.42 and 3.99999), while the Cartan rows give
#: T24 exactly
STANDARD_POINTS_NEAR_T24_EDGE = (
    (4.000000017500994, 4.1, -6.949901985130551e-08, -65532260.325421974,
     -5.744693267582314e-08),
    (4.0926480970829635, 4.0, -1.052812436265076, -40921.29124243229,
     -2.444760483719347e-07),
)


def balanced_realization(pt: charts.StandardChartPoint):
    """Representative with a4 = sqrt(|a4*v44|), splitting the product
    evenly between alpha_4 and v_4 to keep matrix entries moderate."""
    a4 = max(np.sqrt(abs(pt.a4_v44)), 1e-6)
    return charts.realize_representation(pt, a4=a4)


def reflection(a, v) -> np.ndarray:
    """The projective reflection Id - v a^T fixing ker(a), with a(v) = 2."""
    a = np.asarray(a, dtype=float)
    v = np.asarray(v, dtype=float)
    p = float(a @ v)
    if abs(p - 2.0) > 1e-9:
        raise InvariantViolation(f"a(v) = {p}, expected 2")
    return np.eye(a.shape[0]) - np.outer(v, a)


def mat_power(m, k: int) -> np.ndarray:
    """m**k for integer k >= 1, by repeated squaring."""
    m = np.asarray(m, dtype=float)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = np.eye(m.shape[0])
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def fraction_det(a) -> Fraction:
    """Exact determinant of a nonsingular square matrix of Fractions, by
    Gaussian elimination."""
    rows = [list(row) for row in a]
    n = len(rows)
    det = Fraction(1)
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return det


def exact_kernel(rows) -> list:
    """A basis of {x : rows x = 0} for a matrix of Python floats, taken
    exactly on the given doubles: Gauss-Jordan elimination in Fractions,
    one basis vector per column without a pivot."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(len(m[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(m[0])) if c not in pivots):
        x = [Fraction(0)] * len(m[0])
        x[free] = Fraction(1)
        for row, c in zip(m, pivots):
            x[c] = -row[free]
        basis.append(x)
    return basis


def reference_standard_solution(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """charts.standard_solution written as one expression per output,
    each operator making a fresh value: the reference that the library's
    term-by-term accumulation must match bit for bit, on floats, arrays
    and Fractions alike."""
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    h = mu23 / v23
    c00, c01, c02 = 4.0 - mu23, 2.0 - v23, 2.0 - h
    c10, c11, c12 = 2.0 * mu12 - t13 * h, 4.0 - t13, mu12 - 2.0 * h
    c20, c21, c22 = 2.0 * t13 - mu12 * v23, t13 - 2.0 * v23, 4.0 - mu12
    det3 = 2.0 * c00 - mu12 * c01 - t13 * c02
    r0, r1, r2 = -mu14, t24 / v24, mu34 / v34
    a1 = c00 / det3 * r0 + c01 / det3 * r1 + c02 / det3 * r2
    a2 = c10 / det3 * r0 + c11 / det3 * r1 + c12 / det3 * r2
    a3 = c20 / det3 * r0 + c21 / det3 * r1 + c22 / det3 * r2
    a4_v44 = 2.0 + a1 - v24 * a2 - v34 * a3
    return a1, a2, a3, a4_v44, det3


def whole_standard_solution(orders: QuadPrismOrders, t13, t24, v23, v24, v34) -> dict:
    """charts.standard_solution on whole arrays, the reference for the
    blocked solve: a1, a2, a3, a4_v44, det_m = a4*v44 det3 and the valid
    mask by the full rule, |det3| above 1e-12 and every output finite,
    against which the library's one rule (a finite a4*v44) is tested."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        *sol, det3 = charts.standard_solution(orders, t13, t24, v23, v24, v34)
        det_m = sol[3] * det3
    valid = (np.abs(det3) > 1e-12) & np.isfinite(sol).all(axis=0)
    return dict(zip(("a1", "a2", "a3", "a4_v44", "det_m", "valid"), (*sol, det_m, valid)))


#: the columns of a scan's valid samples, the CSV's first five
SCAN_COLUMNS = ("v23", "v24", "v34", "a4v44", "det_M")


def rebuilt_scan_records(orders: QuadPrismOrders, t13, t24, samples, seed, box) -> dict:
    """The valid samples of a standard scan, rebuilt from the whole-array
    solve on the one-shot (3, samples) draw of default_rng(seed) and
    kept by whole_standard_solution's full rule: SCAN_COLUMNS, each an
    array over the valid samples in draw order."""
    rng = np.random.default_rng(seed)
    v = [negative_box(rng, *box, samples) for _ in range(3)]
    result = whole_standard_solution(orders, t13, t24, *v)
    ok = result["valid"]
    return dict(zip(SCAN_COLUMNS, (v[0][ok], v[1][ok], v[2][ok],
                                   result["a4_v44"][ok], result["det_m"][ok])))


def rebuilt_scan(orders: QuadPrismOrders, t13, t24, samples, seed, box):
    """standard_scan's summary, rebuilt by numpy from the samples of
    rebuilt_scan_records, and those samples."""
    records = rebuilt_scan_records(orders, t13, t24, samples, seed, box)
    values = records["a4v44"]
    k = int(np.argmin(values))
    counts, edges = np.histogram(values, bins=20)
    summary = {
        "samples": samples, "valid_samples": values.size, "seed": seed,
        "box": list(box), "t13": t13, "t24": t24,
        "min_a4_v44": float(np.min(values)), "max_a4_v44": float(np.max(values)),
        "argmin": {name: float(records[name][k]) for name in ("v23", "v24", "v34")},
        "histogram": [{"lo": float(edges[j]), "hi": float(edges[j + 1]),
                       "count": int(counts[j])} for j in range(20)],
    }
    return summary, records


def scan_block_records(orders: QuadPrismOrders, t13, t24, samples, seed, box) -> dict:
    """The valid samples (a finite a4*v44) of certify._scan_blocks, put
    back together in the columns of rebuilt_scan_records, with det_M the
    product a4*v44 det3."""
    columns = [[] for _ in SCAN_COLUMNS]
    for _, coords, a4_v44, det3 in certify._scan_blocks(orders, t13, t24, samples, seed, box):
        ok = np.isfinite(a4_v44)
        with np.errstate(over="ignore"):
            det_m = a4_v44[ok] * det3[ok]
        for column, x in zip(columns, (*(c[ok] for c in coords), a4_v44[ok], det_m)):
            column.append(x)
    return {name: np.concatenate(column) for name, column in zip(SCAN_COLUMNS, columns)}


def exact_standard_solution(orders: QuadPrismOrders, t13, t24, v23, v24, v34):
    """Exact rational solution of the standard-chart system on the given
    floats (and the float mu values of the orders).

    alpha_4(v_j) = M_4j reads M3^T a = r for j = 1..3, with M3 = M[:3, :3]
    and r the first three entries of row 4, and a4*v44 = 2 + a1 -
    v24 a2 - v34 a3 for j = 4.  Returns ((a1, a2, a3, a4*v44), det M3,
    det M, sizes): a from the adjugate of M3^T, det M by its own
    elimination, and sizes the sums of the absolute values of the terms
    that form each of a1, a2, a3 and a4*v44, the scale of the rounding
    error any evaluation of those sums carries.
    """
    mu12, mu23, mu34, mu14 = map(Fraction, _quad_prism_mu(orders))
    t13, t24, v23, v24, v34 = (Fraction(float(x)) for x in (t13, t24, v23, v24, v34))
    m = [[Fraction(2), -mu12, -t13, Fraction(-1)],
         [Fraction(-1), Fraction(2), v23, v24],
         [Fraction(-1), mu23 / v23, Fraction(2), v34],
         [-mu14, t24 / v24, mu34 / v34, Fraction(2)]]
    m3t = [[m[i][j] for i in range(3)] for j in range(3)]

    def cofactor(i, j):
        (a, b), (c, d) = ([x for k, x in enumerate(row) if k != j]
                          for k, row in enumerate(m3t) if k != i)
        return (-1) ** (i + j) * (a * d - b * c)

    det3 = sum(m3t[0][j] * cofactor(0, j) for j in range(3))
    r = m[3][:3]
    # a = adj(M3^T) r / det3, with adj(M3^T)_ij the (j, i) cofactor
    terms = [[cofactor(j, i) * r[j] / det3 for j in range(3)] for i in range(3)]
    a = [sum(row) for row in terms]
    a4_terms = [Fraction(2), a[0], -v24 * a[1], -v34 * a[2]]
    sizes = [sum(map(abs, row)) for row in terms] + [sum(map(abs, a4_terms))]
    return (*a, sum(a4_terms)), det3, fraction_det(m), sizes


ROOT = Path(__file__).resolve().parent.parent


def python_env():
    """This process's environment with the package source on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_python(args):
    """Run a fresh interpreter with the package source on its path."""
    return subprocess.run([sys.executable] + list(args), cwd=ROOT, env=python_env(),
                          capture_output=True, text=True, timeout=120)
