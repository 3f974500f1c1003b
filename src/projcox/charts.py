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
from .cartan import ReflectionSystem, _t_products
from .errors import DomainError, UnsupportedShape
from .orbifold import INFINITY, EdgeOrders, _quad_prism_mu

if TYPE_CHECKING:
    import numpy as np


def _identity(d: int) -> linalg.Rows:
    return linalg.Rows(tuple(1.0 if i == j else 0.0 for j in range(d)) for i in range(d))


_IDENTITY_4 = _identity(4)
#: e1*, e2*, e3* in R^4, the first three covectors of every chart
_UNIT_COVECTORS = _IDENTITY_4[:3]
#: the concurrent chart's covectors, alpha_4 = e1* - e2* + e3*
_CONCURRENT_ALPHAS = linalg.Rows((*_UNIT_COVECTORS, (1.0, -1.0, 1.0, 0.0)))


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
    mu12, mu23, mu34, mu14 = _quad_prism_mu(p.orders)
    t13, t24, v23, v24, v34 = map(float, p[1:])
    vmat = linalg.Rows(((2.0, -mu12, -t13, -mu14),
                        (-1.0, 2.0, v23, v24),
                        (-1.0, mu23 / v23, 2.0, v34),
                        (-1.0, t24 / v24, mu34 / v34, 2.0)))
    return ReflectionSystem(_IDENTITY_4, linalg.Rows(zip(*vmat)), vmat)


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


def concurrent_cartan(orders: EdgeOrders, v12, v23, v14, v34) -> tuple:
    """Cartan matrix rows of a concurrent-chart point, so T13 = M13 M31
    and T24 = M24 M42.  Row 4 is alpha_4 = e1* - e2* + e3* applied to
    the vectors, M1j - M2j + M3j, with the cancellation done exactly.
    Operators only, so it takes floats and arrays alike."""
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    h12, h23, h14, h34 = mu12 / v12, mu23 / v23, mu14 / v14, mu34 / v34
    return ((2.0, v12, v23 + h34 - 2.0, v14),
            (h12, 2.0, v23, v14 + v34 - 2.0),
            (h14 + h12 - 2.0, h23, 2.0, v34),
            (h14, v12 + h23 - 2.0, h34, 2.0))


def concurrent_t_excess(orders: EdgeOrders, v12, v23, v14, v34) -> tuple:
    """(T13 - 4, T24 - 4) of a concurrent-chart point as 2a + 2b + ab > 0,
    T's concurrent_cartan entries being -(2 + a) and -(2 + b), a, b > 0,
    which can round to -2.0 and T to 4.0.  Operators only, like them."""
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    h12, h23, h14, h34 = mu12 / v12, mu23 / v23, mu14 / v14, mu34 / v34
    factors = ((-(v23 + h34), -(h14 + h12)), (-(v14 + v34), -(v12 + h23)))
    return tuple(2.0 * a + 2.0 * b + a * b for a, b in factors)


def build_concurrent(p: ConcurrentChartParams) -> ReflectionSystem:
    """Reflection system of a concurrent-chart point.

    alpha_4 = e1* - e2* + e3* annihilates e4, so the Cartan matrix is
    independent of the free entry v44, and M44 = 2 exactly, in floats
    too: the rows are :func:`concurrent_cartan` on Python floats, the
    same bits the grid scan reads.
    """
    v12, v23, v14, v34, v44 = map(float, p[1:])
    cartan = linalg.Rows(concurrent_cartan(p.orders, v12, v23, v14, v34))
    return ReflectionSystem(_CONCURRENT_ALPHAS,
                            linalg.Rows(zip(*cartan[:3], (0.0, 0.0, 0.0, v44))), cartan)


class StandardChartPoint(namedtuple("StandardChartPoint",
                                    "orders t13 t24 v23 v24 v34 a1 a2 a3 a4_v44 cartan")):
    """A standard-position point: the five chart coordinates, the
    derived quantities (a1, a2, a3, a4*v44), and the rows of its Cartan
    matrix.  Not validated here: build_standard and
    concurrent_to_standard are what check a point."""

    __slots__ = ()


def standard_cartan(orders: EdgeOrders, t13: float, t24: float,
                    v23: float, v24: float, v34: float) -> tuple:
    """Cartan matrix rows of a standard-position point."""
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    return ((2.0, -mu12, -t13, -1.0),
            (-1.0, 2.0, v23, v24),
            (-1.0, mu23 / v23, 2.0, v34),
            (-mu14, t24 / v24, mu34 / v34, 2.0))


def standard_solution(orders: EdgeOrders, t13, t24, v23, v24, v34):
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

    On the chart (mu in [1, 4), T13 >= 4, v < 0), AM-GM on the two
    negative terms of

        det3 = 8 - 2 mu12 - 2 mu23 - 2 T13 + mu12 v23 + T13 mu23 / v23
             <= 8 - 2 - 2 - 8 - 2 sqrt(mu12 mu23 T13) <= -8

    keeps the block regular.  C0j, C2j > 0 and r < 0 make each term of
    a1 and of a3 positive, in floats too but for underflow.  Row 4, v24
    a2 = 2 + a1 - v34 a3 - a4*v44, then gives a2 < 0 wherever a4*v44 <
    2, in floats too, as a2 >= 0 rounds a4*v44 to >= 2: the wall a4*v44
    = 0 has the concurrent sign pattern a1, a3 > 0 > a2
    (tests/test_symbolic.py proves each step).  A non-finite a1, a2 or
    a3 makes a4*v44 non-finite, so only overflow, of an entry of M or of
    the solution, makes a point invalid (a4*v44 not finite).

    Operators and augmented assignment only, so it takes Python floats,
    Fractions, sympy expressions and arrays alike and does the same IEEE
    operations in the same order on each; an array's samples are
    elementwise, so no value depends on how a scan blocks them.  Each
    sum is accumulated term by term: on arrays ``x op= y`` writes into
    x, which is always a quotient or sum made here, never an input, and
    on scalars it rebinds x to the same value.  Each row's cofactors
    die once its a_i exists, so one call on arrays of n samples holds at
    most nine arrays of n doubles.  The inputs are scalars and arrays
    of one shape: an accumulator cannot grow in place, so arrays of
    different broadcastable shapes raise numpy's ValueError.  Returns
    (a1, a2, a3, a4_v44, det3) with det3 = det M3, and det M = a4*v44
    det3 (M = A V^T with det A = a4 and det V = v44 det3).
    """
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    h = mu23 / v23
    c00, c01, c02 = 4.0 - mu23, 2.0 - v23, 2.0 - h
    det3 = 2.0 * c00 - mu12 * c01
    det3 -= t13 * c02
    r0, r1, r2 = -mu14, t24 / v24, mu34 / v34
    a1 = c00 / det3
    a1 *= r0
    term = c01 / det3
    term *= r1
    a1 += term
    term = c02 / det3
    term *= r2
    a1 += term
    del c00, c01, c02
    a2 = (2.0 * mu12 - t13 * h) / det3
    a2 *= r0
    term = (4.0 - t13) / det3
    term *= r1
    a2 += term
    term = (mu12 - 2.0 * h) / det3
    term *= r2
    a2 += term
    del h
    a3 = (2.0 * t13 - mu12 * v23) / det3
    a3 *= r0
    term = (t13 - 2.0 * v23) / det3
    term *= r1
    a3 += term
    term = (4.0 - mu12) / det3
    term *= r2
    a3 += term
    del term
    a4_v44 = 2.0 + a1
    a4_v44 -= v24 * a2
    a4_v44 -= v34 * a3
    return a1, a2, a3, a4_v44, det3


#: samples per block of the scans' draws and solve: a block's three
#: draws and the solve's nine live arrays (tests/test_charts.py traces
#: them), 12 arrays of 8192 doubles = 768 KiB, stay in a 2 MiB per-core
#: L2 cache instead of streaming whole-batch arrays from memory (4096
#: measured about 10 % slower, 16384 no faster)
_BLOCK = 8192


def _drawn_blocks(seed: int, rows, samples: int):
    """The rows of a scan's samples, drawn one block of ``_BLOCK``
    samples at a time.

    ``rows`` holds one (start, draw) pair per row: the row is
    ``draw(rng, samples)`` with rng the stream of
    ``np.random.default_rng(seed)`` from its start-th double on.  A
    draw takes one double of the stream per value, so PCG64 jumps to
    each row's start and every block reads the next stretch of its
    row: each row has the bytes of the one-shot draw.  Returns an
    iterator of (block, drawn) per block, with block the slice of the
    samples it covers and drawn the block of each row, in the order of
    rows.  A negative seed raises DomainError at the call.
    """
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    import numpy as np
    streams = [(np.random.Generator(np.random.PCG64(seed).advance(start)), draw)
               for start, draw in rows]
    return ((slice(lo, lo + n), [draw(rng, n) for rng, draw in streams])
            for lo in range(0, samples, _BLOCK) for n in [min(_BLOCK, samples - lo)])


def build_standard(orders: EdgeOrders, t13: float, t24: float,
                   v23: float, v24: float, v34: float) -> StandardChartPoint:
    """The one-point scan: :func:`standard_solution` on Python floats,
    bit for bit the values the scans compute for the same point, with
    the scans' one validity rule (DomainError where a4*v44 is not
    finite) and the chart's own rows, :func:`standard_cartan`'s."""
    _require_t(t13=t13, t24=t24)
    _require_negative(v23=v23, v24=v24, v34=v34)
    t13, t24, v23, v24, v34 = (float(x) for x in (t13, t24, v23, v24, v34))
    a1, a2, a3, a4_v44, _ = standard_solution(orders, t13, t24, v23, v24, v34)
    if not math.isfinite(a4_v44):
        raise DomainError("standard-chart solve overflowed: the coordinates are too large")
    return StandardChartPoint(orders, t13, t24, v23, v24, v34, a1, a2, a3, a4_v44,
                              linalg.Rows(standard_cartan(orders, t13, t24, v23, v24, v34)))


def realize_representation(pt: StandardChartPoint, a4: float,
                           v44: float = None) -> ReflectionSystem:
    """Pick a representative (alpha, v) over a standard-chart point.

    The chart only fixes the product a4*v44; a representative needs a
    gauge choice of a4.  When a4 != 0 the fourth entry of v4 is forced
    to a4_v44 / a4, and giving v44 as well raises DomainError.  When
    a4 = 0 the product must be 0.0 and v44 is free (0 unless given);
    :func:`concurrent_to_standard` gives that product exactly.  The
    system keeps the chart's own Cartan rows, ``pt.cartan``.
    """
    a4 = float(a4)
    if a4 == 0.0:
        if pt.a4_v44 != 0.0:
            raise DomainError("a4 = 0 is inconsistent with a4*v44 != 0")
        v44 = 0.0 if v44 is None else float(v44)
    elif v44 is not None:
        raise DomainError("v44 is a4*v44 / a4 when a4 != 0 and cannot be given")
    else:
        v44 = pt.a4_v44 / a4
    m = linalg._rows(pt.cartan, (4, 4))
    alphas = (*_UNIT_COVECTORS, tuple(map(float, (pt.a1, pt.a2, pt.a3, a4))))
    # the first three rows of [v] are those of the Cartan matrix
    return ReflectionSystem(linalg.Rows(alphas),
                            linalg.Rows(zip(*m[:3], (0.0, 0.0, 0.0, float(v44)))), m)


def standard_coordinates(m):
    """Read standard-position coordinates off a 4x4 Cartan matrix.

    Conjugates by the positive diagonal matrix c fixing M21 = M31 =
    M14 = -1, entry by entry as M_ij * (c_i * (1 / c_j)), then returns
    (t13, t24, v23, v24, v34).  Raises DomainError where c is not finite
    and positive or a v is not finite and negative.
    """
    m = linalg._rows(m, (4, 4))
    if m[1][0] >= 0 or m[2][0] >= 0 or m[0][3] >= 0:
        raise DomainError("entries M21, M31, M14 must be negative to normalize")
    c = (1.0, -1.0 / m[1][0], -1.0 / m[2][0], -m[0][3])
    if not all(0.0 < x < math.inf for x in c):
        raise DomainError(f"normalizing diagonal {c} is not finite and positive")
    v = tuple(m[i][j] * (c[i] * (1.0 / c[j])) for i, j in ((1, 2), (1, 3), (2, 3)))
    if not all(-math.inf < x < 0.0 for x in v):
        raise DomainError(f"normalized (v23, v24, v34) = {v} must be finite and negative")
    return (*_t_products(m), *v)


def concurrent_to_standard(p: ConcurrentChartParams) -> StandardChartPoint:
    """Map a concurrent point into the standard chart in closed form:
    conjugating by the c of :func:`standard_coordinates` sends alpha_4
    = e1* - e2* + e3* to c4 (1/c1, -1/c2, 1/c3, 0), so with M the
    point's Cartan matrix (a1, a2, a3) = (-M14, -M14 M21, M14 M31) and
    a4*v44 = 0.0 exactly.  M is read as built, as it is a Cartan
    matrix: its diagonal is 2.0 and its off-diagonal entries are
    negative sums of v's and mu / v's.
    The five coordinates are checked as a general chart's; the rows,
    :func:`standard_cartan`'s, are projectively equivalent to M."""
    m = build_concurrent(p).cartan
    q = GeneralChartParams(p.orders, *standard_coordinates(m))
    m14, rows = m[0][3], standard_cartan(*q)
    a2, a3 = -m14 * m[1][0], m14 * m[2][0]
    if not all(map(math.isfinite, (a2, a3, *rows[2], *rows[3]))):
        raise DomainError("standard-chart map overflowed: the coordinates are too large")
    return StandardChartPoint(*q, -m14, a2, a3, 0.0, linalg.Rows(rows))


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
    vmat = linalg.Rows(map(tuple, vmat))
    return ReflectionSystem(_identity(d), linalg.Rows(zip(*vmat)), vmat)


class CaseLabel(enum.Enum):
    """Zero pattern of (a4, v44) in the standard position."""

    I = "I"
    I_PRIME = "I'"
    II = "II"
    III = "III"


def classify_case(a4: float, v44: float) -> CaseLabel:
    """Case label from the zero pattern; zero means 0.0, as
    :func:`realize_representation` reads it."""
    if a4 == 0.0:
        return CaseLabel.III if v44 == 0.0 else CaseLabel.II
    return CaseLabel.I_PRIME if v44 == 0.0 else CaseLabel.I


def is_semisimple(sys: ReflectionSystem) -> bool:
    """Whether V splits as (intersection of ker alpha_j) + span{v_j}, for
    a 4x4 system of a known form (ReflectionSystem.known_form): with a
    the other covector, v_r its vector and m the coordinate no unit
    covector takes, rank A = 3 + [a[m] != 0].

    Where the other three vectors have coordinate m equal to 0.0 and a
    linalg.nonsingular block (every chart's but the general one's),
    rank V = 3 + [v_r[m] != 0] and, at a[m] = 0, ker A = span(e_m) lies
    in span V iff v_r[m] != 0: V splits iff a[m] and v_r[m] are both
    zero (case III) or both not (case I).  Where V itself is proven
    nonsingular instead (the general chart), it splits iff A is
    nonsingular, a[m] != 0.  Otherwise, and for any other size, the
    answer is undecided and UnsupportedShape is raised.
    """
    v, form = sys.vector_rows, sys.known_form
    if len(v) == 4 and form:
        m, r = form
        a_m, rest = sys.alpha_rows[r][m], v[:r] + v[r + 1:]
        if (rest[0][m] == rest[1][m] == rest[2][m] == 0.0
                and linalg.nonsingular([x[:m] + x[m + 1:] for x in rest])):
            return (a_m == 0.0) == (v[r][m] == 0.0)
        if linalg.nonsingular(v):
            return a_m != 0.0
    raise UnsupportedShape("semisimplicity undecided: no proven nonsingular block "
                           "of a 4x4 system of a known form")


def _exp_uniform(rng: np.random.Generator, lo: float, hi: float, size) -> np.ndarray:
    """e^U with U = lo + (hi - lo) V, V = rng.random(size), computed in
    place on the draw, in the same IEEE operations as Generator.uniform."""
    import numpy as np
    u = rng.random(size)
    u *= hi - lo
    u += lo
    return np.exp(u, out=u)


def sample_t(rng: np.random.Generator, size) -> np.ndarray:
    """Interior T values 4 + e^U with U uniform on [-3, 3], one double
    of rng's stream per value."""
    x = _exp_uniform(rng, -3.0, 3.0, size)
    x += 4.0
    return x


def _box_draw(lo: float, hi: float):
    """Log-uniform negatives in [lo, hi], -inf < lo < hi < 0, drawn as a
    function of (rng, size) taking one double of rng's stream per value:
    -e^U with U as ``rng.uniform(log(-hi), log(-lo), size)``, the same
    bits.  The box is checked and the logs of its bounds taken once, so
    that a scan pays for them once and not once per block."""
    if not (-math.inf < lo < hi < 0.0):
        raise DomainError(f"box must satisfy -inf < lo < hi < 0, got [{lo}, {hi}]")
    import numpy as np
    u_lo, u_hi = np.log(-hi), np.log(-lo)

    def draw(rng: np.random.Generator, size) -> np.ndarray:
        x = _exp_uniform(rng, u_lo, u_hi, size)
        x *= -1.0
        return x

    return draw
