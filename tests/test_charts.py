import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (exact_kernel, exact_standard_solution, negative_box, random_concurrent,
                     random_orders, random_standard, reference_standard_solution,
                     row_4_gaps_within_bound, scan_block_records, whole_standard_solution)
from projcox import cartan, certify, charts, linalg
from projcox.cartan import ReflectionSystem
from projcox.charts import (CaseLabel, ConcurrentChartParams,
                            GeneralChartParams, SimplexChartParams,
                            build_concurrent, build_general, build_simplex,
                            build_standard, classify_case,
                            concurrent_to_standard, is_semisimple,
                            realize_representation, standard_coordinates)
from projcox.errors import DomainError, UnsupportedShape
from projcox.orbifold import INFINITY, EdgeOrders, QuadPrismOrders, _quad_prism_mu, mu

O3333 = QuadPrismOrders(3, 3, 3, 3)


# --- general chart ---------------------------------------------------------

def test_general_chart_cartan_entries():
    orders = QuadPrismOrders(3, 4, 5, 6)
    p = GeneralChartParams(orders, 9.0, 5.0, -2.0, -0.5, -3.0)
    m = np.asarray(cartan.cartan_of(build_general(p)))
    assert m[0, 2] == pytest.approx(-9.0)          # v13 = -T13
    assert m[2, 0] == pytest.approx(-1.0)
    assert m[3, 1] == pytest.approx(5.0 / -0.5)    # v42 = T24 / v24
    assert m[0, 2] * m[2, 0] == pytest.approx(9.0)
    assert m[1, 3] * m[3, 1] == pytest.approx(5.0)
    assert m[1, 2] * m[2, 1] == pytest.approx(mu(4))


def test_general_chart_boundary_t_allowed():
    p = GeneralChartParams(O3333, 4.0, 4.0, -1.0, -1.0, -1.0)
    m = np.asarray(cartan.cartan_of(build_general(p)))
    assert m[0, 2] * m[2, 0] == pytest.approx(4.0)


def test_general_chart_domain_errors():
    with pytest.raises(DomainError):
        GeneralChartParams(O3333, 3.9, 5.0, -1.0, -1.0, -1.0)
    with pytest.raises(DomainError):
        GeneralChartParams(O3333, 5.0, 5.0, 0.5, -1.0, -1.0)
    with pytest.raises(DomainError, match="v44 must be finite"):
        ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0, float("inf"))


# --- concurrent chart ------------------------------------------------------

def test_concurrent_base_point_t_sixteen():
    p = ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0)
    m = np.asarray(cartan.cartan_of(build_concurrent(p)))
    assert m[0, 2] * m[2, 0] == pytest.approx(16.0)
    assert m[1, 3] * m[3, 1] == pytest.approx(16.0)


def test_concurrent_base_point_det3x3():
    p = ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0)
    m = np.asarray(cartan.cartan_of(build_concurrent(p)))
    assert np.linalg.det(m[:3, :3]) == pytest.approx(-36.0)


def test_concurrent_cartan_independent_of_v44():
    a = cartan.cartan_of(build_concurrent(
        ConcurrentChartParams(O3333, -1.0, -2.0, -0.5, -1.0, 0.0)))
    b = cartan.cartan_of(build_concurrent(
        ConcurrentChartParams(O3333, -1.0, -2.0, -0.5, -1.0, 3.7)))
    assert np.allclose(a, b)


def _excess_exact(orders, v12, v23, v14, v34):
    """(T13 - 4, T24 - 4) as Fractions of the rounded factor sums a, b."""
    mu12, mu23, mu34, mu14 = _quad_prism_mu(orders)
    pairs = ((-(v23 + mu34 / v34), -(mu14 / v14 + mu12 / v12)),
             (-(v14 + v34), -(v12 + mu23 / v23)))
    return tuple(2 * Fraction(a) + 2 * Fraction(b) + Fraction(a) * Fraction(b)
                 for a, b in pairs)


@settings(max_examples=200, deadline=None)
@given(orders=st.tuples(*[st.sampled_from((3, 4, 5, 6, 100, 1000))] * 4),
       logs=st.lists(st.floats(-345.0, 345.0), min_size=4, max_size=4))
def test_concurrent_t_excess_is_positive_and_accurate(orders, logs):
    """T - 4 = 2a + 2b + ab is positive over the whole chart, to within
    4 units of roundoff of its exact value on the rounded a and b (three
    positive terms, one product and two sums); where T - 4 is not small
    it is the rows' own T - 4; an array of points gives each point's
    value."""
    o = QuadPrismOrders(*orders)
    v = [-math.exp(x) for x in logs]
    excess = charts.concurrent_t_excess(o, *v)
    rows = charts.concurrent_cartan(o, *v)
    for x, exact, t in zip(excess, _excess_exact(o, *v), cartan._t_products(rows)):
        assert x > 0.0
        assert abs(Fraction(x) - exact) <= 4 * 2.0 ** -53 * exact
        if t >= 5.0 and math.isfinite(t):
            assert x == pytest.approx(t - 4.0, rel=1e-12)
    batch = charts.concurrent_t_excess(o, *(np.array([x, x, -1.0]) for x in v))
    for x, column in zip(excess, batch):
        assert column[0] == column[1] == x


def test_concurrent_t_excess_sees_past_a_rounded_t_of_4():
    v = (-1e17, -1e-17, -1e17, -1e17)
    t13, t24 = cartan._t_products(charts.concurrent_cartan(O3333, *v))
    assert t13 == 4.0
    e13, e24 = charts.concurrent_t_excess(O3333, *v)
    assert e13 == pytest.approx(8e-17, rel=1e-15) and e24 > 4e34


def test_concurrent_alpha4_is_alternating_sum():
    sys = build_concurrent(ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    assert np.allclose(sys.alphas[3], [1.0, -1.0, 1.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_concurrent_semisimple_iff_v44_zero(seed):
    rng = np.random.default_rng(seed)
    p0 = random_concurrent(rng, v44=0.0)
    assert is_semisimple(build_concurrent(p0))
    p1 = p0._replace(v44=float(np.sign(rng.standard_normal()) or 1.0))
    assert not is_semisimple(build_concurrent(p1))


# --- standard chart --------------------------------------------------------

def test_build_standard_solves_fourth_row():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    sys = realize_representation(pt, a4=1.0)
    m = np.asarray(sys.cartan)
    # the solved (a1, a2, a3, a4*v44) must reproduce the Cartan row 4
    assert m[3, 0] == pytest.approx(-mu(3))
    assert m[3, 1] == pytest.approx(pt.t24 / pt.v24)
    assert m[3, 2] == pytest.approx(mu(3) / pt.v34)
    assert m[3, 3] == pytest.approx(2.0)


def test_build_standard_matches_closed_form_cartan():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    sys = realize_representation(pt, a4=1.0)
    assert np.allclose(sys.cartan, pt.cartan)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_standard_point_keeps_the_cartan_matrix_of_its_coordinates(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng, random_orders(rng))
    expected = charts.standard_cartan(pt.orders, pt.t13, pt.t24, pt.v23, pt.v24, pt.v34)
    assert np.array_equal(pt.cartan, expected)
    with pytest.raises(TypeError):
        pt.cartan[0][0] = 0.0


def test_standard_batch_agrees_with_single_solve():
    """build_standard is the one-point batch: it builds every point the
    whole-array solve marks valid, with equal values, and raises an
    overflow error exactly where that marks invalid."""
    rng = np.random.default_rng(11)
    n = 520
    for orders in (O3333, QuadPrismOrders(3, 4, 5, 6), QuadPrismOrders(6, 5, 4, 3),
                   QuadPrismOrders(5, 3, 6, 4)):
        t13, t24 = 4.0 + np.exp(rng.uniform(-5.0, 5.0, (2, n)))
        v = -np.exp(rng.uniform(-5.0, 5.0, (3, n)))
        # |v24| or |v34| below 1e-308 overflows the right-hand side, so
        # the solution is not finite
        v[1, :4] = -1e-310
        v[2, 4:8] = -1e-310
        batch = whole_standard_solution(orders, t13, t24, *v)
        assert not batch["valid"][:8].any()
        for k in range(n):
            point = (orders, t13[k], t24[k], *v[:, k])
            if not batch["valid"][k]:
                with pytest.raises(DomainError, match="overflowed"):
                    build_standard(*point)
                continue
            pt = build_standard(*point)
            assert (pt.a1, pt.a2, pt.a3, pt.a4_v44) == tuple(
                batch[key][k] for key in ("a1", "a2", "a3", "a4_v44"))


@pytest.mark.parametrize("box", [(-1e150, -1e-150), (-1e300, -1e-300)])
@pytest.mark.parametrize("t", [1e12, 1e100])
def test_build_standard_builds_every_sample_the_scan_keeps(t, box):
    """One validity rule for a point and a scan: every sample that the
    scan's blocks keep (a finite a4*v44) builds, with a4*v44 bit-equal
    to the scan's, far out where rebuilding row 4 from the solution
    overflows to NaN (80 of the 1223 samples kept at T = 1e100 and
    |v| in [1e-300, 1e300] once raised there)."""
    orders = QuadPrismOrders(3, 4, 5, 6)
    records = scan_block_records(orders, t, t, 2000, 0, box)
    assert records["a4v44"].size > 1000
    for k in range(records["a4v44"].size):
        pt = build_standard(orders, t, t, *(records[key][k] for key in ("v23", "v24", "v34")))
        assert pt.a4_v44 == records["a4v44"][k]


BATCH_KEYS = ("a1", "a2", "a3", "a4_v44", "det_m", "valid")
#: what the scans keep of charts.standard_solution, with valid the one
#: rule of the library: a finite a4*v44
BLOCKED_KEYS = ("a4_v44", "det_m", "valid")


def blocked_solve(orders, *args) -> dict:
    """charts.standard_solution run over blocks of charts._BLOCK
    samples, as the scans run it, and put back together, with det_m =
    a4*v44 det3 and valid = isfinite(a4*v44), in the keys of
    whole_standard_solution."""
    n = max(np.size(x) for x in args)
    out = {key: np.empty(n, dtype=bool if key == "valid" else float) for key in BLOCKED_KEYS}
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, n, charts._BLOCK):
            block = slice(lo, lo + charts._BLOCK)
            *_, a4_v44, det3 = charts.standard_solution(
                orders, *(x[block] if np.ndim(x) else x for x in args))
            for key, x in zip(BLOCKED_KEYS, (a4_v44, a4_v44 * det3, np.isfinite(a4_v44))):
                out[key][block] = x
    return out


def test_blocked_batch_equals_one_unblocked_solve():
    """Solving in blocks changes no bit of a4*v44 or det M, across
    block boundaries and for overflowing samples on either side of them,
    and a finite a4*v44 marks valid exactly the samples the full rule
    does (|det3| > 1e-12 and every output finite)."""
    rng = np.random.default_rng(5)
    n = 2 * charts._BLOCK + 123
    t13, t24 = 4.0 + np.exp(rng.uniform(-5.0, 5.0, (2, n)))
    v = -np.exp(rng.uniform(-5.0, 5.0, (3, n)))
    # |v24| or |v34| below 1e-308 overflows the right-hand side; a tiny
    # |v23| overflows h = mu23 / v23 and the cofactors and det3 with it
    for edge in (charts._BLOCK, 2 * charts._BLOCK):
        v[1, edge - 2:edge + 2] = -1e-310
        v[2, edge - 5] = v[2, edge + 5] = -1e-310
        v[0, edge - 9:edge + 9:3] = -1e-310
    orders = QuadPrismOrders(3, 4, 5, 6)
    batch = blocked_solve(orders, t13, t24, *v)
    whole = whole_standard_solution(orders, t13, t24, *v)
    assert not batch["valid"][charts._BLOCK - 2:charts._BLOCK + 2].any()
    assert batch["valid"].any()
    for key in BLOCKED_KEYS:
        assert np.array_equal(batch[key], whole[key], equal_nan=True), key


#: (box, T13 = T24) pairs for the exact-rational accuracy test
ACCURACY_BOXES = (((-10.0, -1e-8), 6.0), ((-10.0, -0.01), 16.0),
                  ((-1e6, -1e-6), 4.0), ((-7.39, -0.135), 1e4))


@pytest.mark.parametrize("orders", [(3, 3, 3, 3), (3, 4, 5, 6), (7, 9, 11, 1000)])
def test_batch_solve_matches_exact_rational_solve(orders):
    """Against the exact solution of the same float inputs, each of a1,
    a2, a3 and a4*v44 is within 1e-12 of the size of the terms whose sum
    forms it (near a zero of the sum, no evaluation can be relatively
    accurate), and det M = a4*v44 det3 within 1e-12 of that size times
    |det3|."""
    o = QuadPrismOrders(*orders)
    rng = np.random.default_rng(sum(orders))
    for box, t in ACCURACY_BOXES:
        v = negative_box(rng, *box, (3, 200))
        batch = whole_standard_solution(o, t, t, *v)
        assert batch["valid"].all()
        for k in range(v.shape[1]):
            exact, det3, det_m, sizes = exact_standard_solution(o, t, t, *v[:, k])
            scales = (*sizes, sizes[3] * abs(det3))
            for key, want, scale in zip(BATCH_KEYS, (*exact, det_m), scales):
                err = float(abs(Fraction(float(batch[key][k])) - want) / scale)
                assert err <= 1e-12, (box, t, k, key, err)


@pytest.mark.parametrize("v", [-1e8, -1e9, -1e12, -1e16, -1e50, -1e300])
def test_build_standard_accepts_large_coordinates(v):
    """A valid point at |v| = 1e8..1e300 builds, with a4*v44 within
    1e-14 relative of exact, though from |v| = 1e16 the constant 2 of
    M44 is lost in rounding a4*v44 (about 3|v|)."""
    orders = QuadPrismOrders(3, 4, 5, 6)
    pt = build_standard(orders, 6.0, 6.0, v, v, v)
    exact = exact_standard_solution(orders, 6.0, 6.0, v, v, v)[0][3]
    assert float(abs(Fraction(pt.a4_v44) - exact) / abs(exact)) <= 1e-14


@settings(max_examples=200, deadline=None)
@given(t13=st.floats(4.0, 1e6), w23=st.floats(1e-6, 1e6),
       n12=st.integers(3, 1000), n23=st.integers(3, 1000))
def test_chart_determinant_of_the_three_by_three_block_is_at_most_minus_8(
        t13, w23, n12, n23):
    """det M3 = 8 - 2 mu12 - 2 mu23 - 2 T13 + mu12 v23 + T13 mu23 / v23
    <= -8 on the chart (mu >= 1, T13 >= 4, v23 < 0, AM-GM), so the
    singularity gate of the solve never drops a chart point."""
    orders = QuadPrismOrders(n12, n23, 3, 3)
    det3 = charts.standard_solution(orders, t13, 6.0, -w23, -1.0, -1.0)[4]
    assert det3 <= -8.0 * (1.0 - 1e-14)


def test_solve_keeps_its_signs_in_floats_far_out():
    """a1, a3 > 0 at every chart point, and a2 < 0 wherever a4*v44 < 2
    (tests/test_symbolic.py proves both), hold in floats too over 2e5
    points with |v| in [e^-300, e^300], T - 4 in [e^-40, e^40] and
    orders 3-6 and 1000, none of which overflows: each term of a1 and a3
    keeps its sign, and a2 >= 0 rounds a4*v44 to >= 2."""
    rng = np.random.default_rng(17)
    n = 50_000
    for orders in (O3333, QuadPrismOrders(3, 4, 5, 6), QuadPrismOrders(6, 1000, 3, 1000),
                   QuadPrismOrders(1000, 1000, 1000, 1000)):
        t13, t24 = 4.0 + np.exp(rng.uniform(-40.0, 40.0, (2, n)))
        v = -np.exp(rng.uniform(-300.0, 300.0, (3, n)))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            a1, a2, a3, a4_v44, _ = charts.standard_solution(orders, t13, t24, *v)
        assert (a1 > 0.0).all() and (a3 > 0.0).all()
        assert ((a2 < 0.0) | (a4_v44 >= 2.0)).all()
        assert (a4_v44 < 2.0).any()


@pytest.mark.parametrize("width, least", [(6.0, 1.0), (300.0, 0.2)])
def test_wall_points_have_the_concurrent_sign_pattern(width, least):
    """On the wall a4*v44 = 0 the solve has a1 > 0, a2 < 0, a3 > 0,
    which build_standard relies on unchecked.  T24 enters the solve only
    through r1 = T24 / v24, so a4*v44 is affine in T24, and the wall's
    T24 is -A / (B - A) with A and B its exact values at T24 = 0 and 1.
    With |v| in [e^-width, e^width] and T13 - 4 in [e^-40, e^40], the
    float solve at the rounded wall T24 >= 4 has a1, a3 > 0, and a2 < 0
    wherever its a4*v44 < 2: at every wall point for width 6, and at
    width 300, where rounding T24 and cancellation in a2 can leave
    a4*v44 far from 0, at least the given share of them."""
    rng = np.random.default_rng(int(width))
    wall = below_two = 0
    for _ in range(400):
        orders = QuadPrismOrders(*map(int, rng.choice([3, 4, 5, 6, 1000], 4)))
        t13 = 4.0 + math.exp(rng.uniform(-40.0, 40.0))
        v = [-math.exp(u) for u in rng.uniform(-width, width, 3)]
        at_0, at_1 = (exact_standard_solution(orders, t13, t24, *v)[0][3] for t24 in (0.0, 1.0))
        t24 = -at_0 / (at_1 - at_0)
        if not 4 <= t24 <= 1e300:
            continue
        a1, a2, a3, a4_v44, _ = charts.standard_solution(orders, t13, float(t24), *v)
        assert a1 > 0.0 and a3 > 0.0, (orders, t13, float(t24), v)
        assert a2 < 0.0 or a4_v44 >= 2.0, (orders, t13, float(t24), v)
        wall += 1
        below_two += a4_v44 < 2.0
    assert wall >= 50
    assert below_two >= least * wall


@pytest.mark.parametrize("position", range(5))
def test_one_array_among_scalars_equals_the_broadcast_call(position):
    """A 0-d input stays a scalar in the blocked solve; the operators
    broadcast it with the same IEEE operations as an array of its value,
    so every output is bitwise that of the whole-array solve on full
    arrays, overflowing samples included."""
    rng = np.random.default_rng(position)
    n = charts._BLOCK + 77
    point = [6.5, 9.0, -0.7, -0.5, -2.0]
    if position < 2:
        column = 4.0 + np.exp(rng.uniform(-5.0, 5.0, n))
        column[:5] = 1.5e308
    else:
        column = -np.exp(rng.uniform(-5.0, 5.0, n))
        column[:5] = -1e-310
    args = [column if k == position else x for k, x in enumerate(point)]
    full = [column if k == position else np.full(n, x) for k, x in enumerate(point)]
    orders = QuadPrismOrders(3, 4, 5, 6)
    mixed = blocked_solve(orders, *args)
    broadcast = whole_standard_solution(orders, *full)
    assert not mixed["valid"].all()
    for key in BLOCKED_KEYS:
        assert mixed[key].tobytes() == broadcast[key].tobytes(), key


#: order tables of the pinning tests, small orders and large
_PINNED_ORDERS = (O3333, QuadPrismOrders(3, 4, 5, 6), QuadPrismOrders(5, 5, 6, 1000))
#: |v| over [1e-300, 1e300], log-uniform and as hypothesis spreads floats
_abs_v = st.one_of(st.floats(-690.0, 690.0).map(math.exp), st.floats(1e-300, 1e300))


@settings(max_examples=300, deadline=None)
@given(orders=st.sampled_from(_PINNED_ORDERS), t=st.lists(st.floats(4.0, 1e300), min_size=2,
                                                         max_size=2),
       v=st.lists(_abs_v.map(lambda x: -x), min_size=3, max_size=3))
# det3 = -inf and every a_i nan
@example(orders=O3333, t=[1e300, 1e300], v=[-1e-300, -1e-300, -1e-300])
# a1, a3 = inf, a2 = -inf and a4*v44 nan
@example(orders=O3333, t=[1e300, 1e300], v=[-1e300, -1e-300, -1e300])
def test_solve_on_floats_is_the_reference_bit_for_bit(orders, t, v):
    """On Python floats, where ``x op= y`` rebinds x, every output, inf
    and nan included, has the reference expressions' bits."""
    ours = charts.standard_solution(orders, *t, *v)
    assert all(type(x) is float for x in ours)
    assert [x.hex() for x in ours] == [x.hex() for x in reference_standard_solution(
        orders, *t, *v)]


@pytest.mark.parametrize("box", [(-10.0, -0.01), (-1e150, -1e-150), (-1e-200, -1e-320)])
@pytest.mark.parametrize("orders", _PINNED_ORDERS)
def test_solve_on_blocks_is_the_reference_bit_for_bit(orders, box):
    """On a block of arrays, where ``x op= y`` writes into x, every
    output has the reference's bytes, with T scalars as the scans pass
    them and T arrays too; the (-1e-200, -1e-320) box overflows most
    samples.  No input is written."""
    rng = np.random.default_rng(36)
    v = [charts._box_draw(*box)(rng, charts._BLOCK) for _ in range(3)]
    t = 4.0 + np.exp(rng.uniform(-5.0, 50.0, (2, charts._BLOCK)))
    for args in ((6.0, 1e4, *v), (*t, *v)):
        before = [np.copy(x) for x in args]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ours = charts.standard_solution(orders, *args)
            reference = reference_standard_solution(orders, *args)
        assert [x.tobytes() for x in ours] == [x.tobytes() for x in reference]
        assert all(np.array_equal(x, y) for x, y in zip(args, before))
        if box == (-1e-200, -1e-320):
            assert not np.isfinite(ours[3]).all()


def test_solve_on_arrays_of_two_shapes_raises():
    """An accumulator cannot grow in place, so arrays of two shapes that
    broadcast together are refused, as the docstring says."""
    v = -np.ones(4)
    with pytest.raises(ValueError):
        charts.standard_solution(O3333, np.full((1, 4), 6.0), 6.0, v, v, v)


def test_solve_on_fractions_is_the_reference():
    """On Fractions, which have no in-place operators, the solve gives
    the reference's values and types."""
    point = (Fraction(13, 2), Fraction(9), Fraction(-7, 10), Fraction(-1, 2), Fraction(-2))
    for orders in _PINNED_ORDERS:
        ours = charts.standard_solution(orders, *point)
        reference = reference_standard_solution(orders, *point)
        assert ours == reference
        assert list(map(type, ours)) == list(map(type, reference))


@pytest.mark.parametrize("t_arrays", [False, True])
def test_solve_holds_fewer_than_ten_block_arrays(t_arrays):
    """One solve of a block, as the scans run it (T scalars) and with T
    arrays too, peaks below ten arrays of charts._BLOCK doubles under
    tracemalloc: a row's cofactors and terms die as soon as its a_i is
    accumulated, and each sum grows in place."""
    rng = np.random.default_rng(0)
    n = charts._BLOCK
    t = list(4.0 + np.exp(rng.uniform(-3.0, 3.0, (2, n)))) if t_arrays else [6.0, 6.0]
    args = (*t, *(-np.exp(rng.uniform(-2.0, 2.0, (3, n)))))
    orders = QuadPrismOrders(3, 4, 5, 6)
    charts.standard_solution(orders, *args)
    tracemalloc.start()
    try:
        charts.standard_solution(orders, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * n <= peak < 10 * 8 * n


def test_one_draw_of_three_rows_is_three_draws_in_turn():
    """The scan's samples are one (3, N) draw, read block by block: the
    same stream, and the same bits, as three draws of N made in turn,
    which is why row r starts at double r * N."""
    box = (-10.0, -1e-8)
    draw = charts._box_draw(*box)
    rows = draw(np.random.default_rng(4), (3, 1000))
    rng = np.random.default_rng(4)
    turns = [draw(rng, 1000) for _ in range(3)]
    assert rows.tobytes() == np.stack(turns).tobytes()


@pytest.mark.parametrize("seed, k, n", [(0, 0, 5), (1, 8191, 8193), (73, 123_457, 3)])
def test_a_jumped_stream_reads_on_where_the_one_shot_draw_is(seed, k, n):
    """uniform takes one double of the PCG64 stream per value, so a
    generator jumped k doubles ahead draws entries k .. k + n of the
    one-shot draw: what charts._drawn_blocks rests on.  Should numpy
    change how uniform reads its stream, this fails, not the goldens
    drifting unseen."""
    jumped = np.random.Generator(np.random.PCG64(seed).advance(k)).uniform(-2.5, 3.0, n)
    whole = np.random.default_rng(seed).uniform(-2.5, 3.0, k + n)
    assert jumped.tobytes() == whole[k:].tobytes()


@pytest.mark.parametrize("samples", [1, charts._BLOCK - 1, 3 * charts._BLOCK + 5])
@pytest.mark.parametrize("box", [(-10.0, -1e-8), (-10.0, -0.01), (-1e-300, -1e-320)])
def test_drawn_blocks_are_the_one_shot_draw(samples, box):
    """Rows drawn block by block from their jumped streams, put back
    together, are byte for byte the one-shot (3, samples) draw of
    default_rng(seed), and the blocks tile the samples in order."""
    draw = charts._box_draw(*box)
    rows = [(r * samples, draw) for r in range(3)]
    blocks = list(charts._drawn_blocks(7, rows, samples))
    assert [b for b, _ in blocks] == [slice(lo, min(lo + charts._BLOCK, samples))
                                      for lo in range(0, samples, charts._BLOCK)]
    drawn = np.concatenate([np.stack(block_rows) for _, block_rows in blocks], axis=1)
    whole = negative_box(np.random.default_rng(7), *box, (3, samples))
    assert drawn.tobytes() == whole.tobytes()


@pytest.mark.parametrize("cut", [1, charts._BLOCK + 3, 2 * charts._BLOCK])
def test_spans_of_drawn_blocks_are_the_one_shot_draw(cut):
    """Two spans, samples 0 .. cut - 1 and cut .. on, each drawn from
    its own jumped streams in blocks of 2 * _BLOCK as a scan's workers
    draw them, tile the samples and put back together are byte for byte
    the one-shot (3, samples) draw."""
    samples, block = 3 * charts._BLOCK + 5, 2 * charts._BLOCK
    draw = charts._box_draw(-10.0, -1e-8)
    rows = [(r * samples, draw) for r in range(3)]
    blocks = [*charts._drawn_blocks(7, rows, cut, 0, block),
              *charts._drawn_blocks(7, rows, samples, cut, block)]
    assert [b for b, _ in blocks] == (
        [slice(lo, min(lo + block, cut)) for lo in range(0, cut, block)]
        + [slice(lo, min(lo + block, samples)) for lo in range(cut, samples, block)])
    drawn = np.concatenate([np.stack(block_rows) for _, block_rows in blocks], axis=1)
    whole = negative_box(np.random.default_rng(7), -10.0, -1e-8, (3, samples))
    assert drawn.tobytes() == whole.tobytes()


def test_box_sampler_at_the_criterion_5_band_keeps_its_draws():
    """Acceptance criterion 5 and det_locus_check draw v in [-e^2, -e^-2]
    from the box sampler: log(e^+-2) is +-2 in doubles, so the draws are
    those of -e^U with U uniform on [-2, 2], the same bits."""
    box = charts._box_draw(-math.exp(2.0), -math.exp(-2.0))(np.random.default_rng(31), 10_000)
    assert (box == -np.exp(np.random.default_rng(31).uniform(-2.0, 2.0, 10_000))).all()


def _stream(seed, offset):
    return np.random.Generator(np.random.PCG64(seed).advance(offset))


@pytest.mark.parametrize("offset", [0, 1, 8191, 10**6 + 3])
@pytest.mark.parametrize("seed", range(10))
def test_draws_keep_the_bits_of_uniform(seed, offset):
    """The scans' draws scale rng.random in place; that is
    Generator.uniform's lo + (hi - lo) V in the same IEEE operations,
    so every box draw and T draw keeps the bytes it had as a draw of
    uniform, at any point of the stream."""
    n = 2000
    for lo, hi in [(-10.0, -1e-8), (-10.0, -0.01), (-1e-300, -1e-320)]:
        got = charts._box_draw(lo, hi)(_stream(seed, offset), n)
        want = -np.exp(_stream(seed, offset).uniform(np.log(-hi), np.log(-lo), n))
        assert got.tobytes() == want.tobytes(), (lo, hi)
    got = charts.sample_t(_stream(seed, offset), n)
    assert got.tobytes() == (4.0 + np.exp(_stream(seed, offset).uniform(-3.0, 3.0, n))).tobytes()


def test_realize_representation_gauge_invariance():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    m1 = cartan.cartan_of(realize_representation(pt, a4=1.0))
    m2 = cartan.cartan_of(realize_representation(pt, a4=2.5))
    assert np.allclose(m1, m2)


def test_realize_representation_rejects_inconsistent_gauge():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    assert abs(pt.a4_v44) > 1e-6
    with pytest.raises(DomainError):
        realize_representation(pt, a4=0.0)


def test_realize_representation_rejects_v44_with_nonzero_a4():
    # a4 != 0 forces v44 = a4*v44 / a4; another v44 would give a system
    # with M44 != 2, which is no reflection system
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    with pytest.raises(DomainError):
        realize_representation(pt, a4=1.0, v44=0.0)


def test_standard_coordinates_roundtrip():
    orders = QuadPrismOrders(3, 4, 5, 6)
    pt = build_standard(orders, 7.0, 5.5, -0.7, -1.3, -2.0)
    m = pt.cartan
    # conjugate by a positive diagonal, then read the coordinates back
    d = np.array([1.0, 2.0, 0.5, 3.0])
    conj = m * np.outer(d, 1.0 / d)
    t13, t24, v23, v24, v34 = standard_coordinates(conj)
    assert t13 == pytest.approx(7.0)
    assert t24 == pytest.approx(5.5)
    assert v23 == pytest.approx(-0.7)
    assert v24 == pytest.approx(-1.3)
    assert v34 == pytest.approx(-2.0)
    conj[1, 0] = 0.0
    with pytest.raises(DomainError, match="must be negative to normalize"):
        standard_coordinates(conj)


#: a Cartan matrix whose standard coordinates are finite: M21 = -1
#: gives c = (1, 1, 1, 1) and (T13, T24, v23, v24, v34) = (5, 5, -1, -1, -1)
EXTREME_BASE = ((2.0, -1.0, -5.0, -1.0), (-1.0, 2.0, -1.0, -1.0),
                (-1.0, -1.0, 2.0, -1.0), (-1.0, -5.0, -1.0, 2.0))


@pytest.mark.parametrize("entry, value, message", [
    # 1 / c2 underflows: c2 = 1e320 overflows, v23 = v24 = -inf
    ((1, 0), -1e-320, "normalizing diagonal"),
    # c2 = 0.0, so v23 = v24 = -0.0
    ((1, 0), -math.inf, "normalizing diagonal"),
    ((1, 2), math.nan, r"\(v23, v24, v34\) = \(nan"),
])
def test_standard_coordinates_reject_extreme_entries(entry, value, message):
    """An entry that makes the normalizer c infinite or zero, or a v
    NaN, raises instead of giving v = -inf, -0.0 or NaN."""
    assert standard_coordinates(EXTREME_BASE) == (5.0, 5.0, -1.0, -1.0, -1.0)
    m = [list(row) for row in EXTREME_BASE]
    m[entry[0]][entry[1]] = value
    with pytest.raises(DomainError, match=message):
        standard_coordinates(m)


def test_standard_coordinates_are_pinned():
    """Every bit of the coordinates read off the Cartan rows of
    acceptance criterion 10's 100 concurrent points: the sha256 of their
    reprs."""
    rng = np.random.default_rng(53)
    digest = hashlib.sha256()
    for _ in range(100):
        m = cartan.cartan_of(build_concurrent(random_concurrent(rng)))
        digest.update(repr(standard_coordinates(m)).encode())
    assert digest.hexdigest() == (
        "eff7de52618c3c3693cd65e3816357e94404ce5ff4dcb888c81ee9e2edb379a4")


def test_a_non_finite_cartan_entry_is_refused():
    """Every coordinate, covector and vector entry of this concurrent
    point is finite, but M42 = v12 + mu23 / v23 - 2 overflows to -inf;
    a raw system's product is checked the same way."""
    p = ConcurrentChartParams(O3333, -1.7e308, -1e-308, -1.0, -1.0)
    assert charts.concurrent_cartan(O3333, *p[1:5])[3][1] == -math.inf
    with pytest.raises(DomainError, match="Cartan entries must be finite"):
        build_concurrent(p)
    with pytest.raises(DomainError, match="Cartan entries must be finite"):
        ReflectionSystem([[1e308, 1.0], [0.0, 1.0]], [[10.0, 0.0], [0.0, 1.0]])


def test_concurrent_to_standard_kills_a4_v44():
    p = ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0)
    pt = concurrent_to_standard(p)
    assert pt.a4_v44 == 0.0
    assert pt.a1 > 0 and pt.a2 < 0 and pt.a3 > 0


def test_concurrent_point_realizes_at_a4_zero_as_case_iii():
    """Solved instead of read off in closed form, this point's a4*v44
    came out as 1.2e-10 of round-off, so a4 = 0 was refused and
    the a4 = 1 representative read as not semisimple."""
    p = ConcurrentChartParams(QuadPrismOrders(3, 6, 3, 5), -2709.154458306381,
                              -0.00033780025555655603, -537.6977719470218,
                              -0.0003416017368299342)
    pt = concurrent_to_standard(p)
    assert pt.a4_v44 == 0.0
    assert pt.a1 == 537.6977719470218 == -p.v14
    sys = realize_representation(pt, a4=0.0)
    assert classify_case(sys.alpha_rows[3][3], sys.vector_rows[3][3]) is CaseLabel.III
    assert is_semisimple(sys)


@pytest.mark.parametrize("spread, rel", [(1e4, 1e-10), (1e9, 1e-6)])
def test_concurrent_to_standard_matches_the_solve(spread, rel):
    """Over concurrent points at orders 3-6 with |v| log-uniform in
    [1 / spread, spread], the closed form has the coordinates and rows
    of build_standard on them, a1..a3 within rel of its solve (worst
    seen 3.8e-12 at 1e4, 2.6e-7 at 1e9), and with a4*v44 = 0 rebuilds
    row 4 within row_4_gaps_within_bound's bound (at worst 0.0028 of
    it at 1e4, 0.40 at 1e9) and has the sign pattern a1, a3 > 0 > a2."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        orders = QuadPrismOrders(*map(int, rng.integers(3, 7, 4)))
        v = -np.exp(rng.uniform(-math.log(spread), math.log(spread), 4))
        pt = concurrent_to_standard(ConcurrentChartParams(orders, *v.tolist()))
        solved = build_standard(*pt[:6])
        assert solved[:6] == pt[:6] and solved.cartan == pt.cartan
        assert pt[6:9] == pytest.approx(solved[6:9], rel=rel, abs=0.0)
        assert row_4_gaps_within_bound(pt)
        assert pt.a1 > 0 > pt.a2 and pt.a3 > 0


@pytest.mark.parametrize("v, message", [
    ((-1e-200,) * 4, "t13 must be >= 4, got inf"),
    ((-1e-200, -1e-200, -1e-30, -1e-100), "standard-chart map overflowed"),
    ((-1e-160, -1e-100, -1e160, -1e30), "standard-chart map overflowed"),
])
def test_concurrent_to_standard_overflow_is_a_domain_error(v, message):
    """T13, then an entry of M (T24 / v24), then a2 and a3 overflow."""
    with pytest.raises(DomainError, match=message):
        concurrent_to_standard(ConcurrentChartParams(QuadPrismOrders(3, 4, 5, 6), *v))


# --- case labels and semisimplicity ---------------------------------------

def test_classify_case_table():
    assert classify_case(1.0, 1.0) is CaseLabel.I
    assert classify_case(1.0, 0.0) is CaseLabel.I_PRIME
    assert classify_case(0.0, 1.0) is CaseLabel.II
    assert classify_case(0.0, 0.0) is CaseLabel.III


def test_the_gauge_reads_zero_as_zero():
    """No tolerance: a tiny a4 or v44 is not zero."""
    assert classify_case(1e-300, 0.0) is CaseLabel.I_PRIME
    assert classify_case(0.0, 1e-300) is CaseLabel.II
    pt = concurrent_to_standard(ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    sys = realize_representation(pt, a4=1e-12)
    assert (sys.alpha_rows[3][3], sys.vector_rows[3][3]) == (1e-12, 0.0)
    with pytest.raises(DomainError, match="cannot be given"):
        realize_representation(pt, a4=1e-12, v44=0.0)


def test_general_chart_points_are_semisimple():
    orders = QuadPrismOrders(3, 4, 5, 6)
    p = GeneralChartParams(orders, 9.0, 5.0, -2.0, -0.5, -3.0)
    assert is_semisimple(build_general(p))


def test_case_i_prime_representative_not_semisimple():
    pt = concurrent_to_standard(ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    sys = realize_representation(pt, a4=1.0)  # a4 != 0, v44 = 0
    assert not is_semisimple(sys)


def test_case_ii_representative_not_semisimple():
    pt = concurrent_to_standard(ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    sys = realize_representation(pt, a4=0.0, v44=1.0)
    assert not is_semisimple(sys)


def test_semisimple_survives_a_unit_covector_beside_a_large_one():
    """Mapped to the standard chart and realized at a4 = 0, this
    concurrent point has alpha_4 = (a1, a2, a3, 0) with |a1| near 1e8,
    beside the unit covectors: unscaled, the elimination read the
    alphas at rank 1 and M at rank 2, where numpy's SVD rank is 3 for
    both."""
    p = ConcurrentChartParams(QuadPrismOrders(5, 3, 3, 5), -1.8736073673332666e-4,
                              -1.5549663298848966, -9322.35854410505,
                              -3.705378681633734e-4)
    sys = realize_representation(concurrent_to_standard(p), a4=0.0)
    assert np.linalg.matrix_rank(sys.alphas) == np.linalg.matrix_rank(sys.cartan) == 3
    assert is_semisimple(build_concurrent(p))
    assert is_semisimple(sys)


@pytest.mark.parametrize("orders, v, a4, v44, semisimple", [
    # case II and case I' that numeric ranks read as semisimple
    ((6, 5, 4, 3), (-7170.369647219773, -3.7253304619669114, -0.00011253071059666065,
                    -151.77268239068118), 0.0, 1.0, False),
    ((6, 6, 5, 6), (-0.00013111441443880675, -811.1865141383125, -7072.294231857653,
                    -4546.544402848512), 1.0, None, False),
    # case III whose Cartan matrix numeric ranks read at rank 2
    ((5, 5, 6, 5), (-6.098876601587988, -67811543.25768277, -484578.31359101686,
                    -1.1201933832752903e-09), 0.0, None, True),
])
def test_semisimple_reads_the_case_where_ranks_erred(orders, v, a4, v44, semisimple):
    pt = concurrent_to_standard(ConcurrentChartParams(QuadPrismOrders(*orders), *v))
    assert is_semisimple(realize_representation(pt, a4=a4, v44=v44)) is semisimple


def test_semisimple_reads_the_case_at_a_wide_spread():
    """3000 concurrent points (seed 0, orders 3-6, |v| log-uniform in
    [1e-9, 1e9]) in the standard chart, each realised as case III (a4 =
    v44 = 0, semisimple), case II (a4 = 0, v44 = 1) and case I' (a4 = 1),
    neither: all 9000 read their case, where numeric ranks missed 1353."""
    rng = np.random.default_rng(0)
    wrong = []
    for _ in range(3000):
        orders = QuadPrismOrders(*map(int, rng.integers(3, 7, 4)))
        v = (-np.exp(rng.uniform(math.log(1e-9), math.log(1e9), 4))).tolist()
        pt = concurrent_to_standard(ConcurrentChartParams(orders, *v))
        for a4, v44, semisimple in ((0.0, 0.0, True), (0.0, 1.0, False), (1.0, None, False)):
            if is_semisimple(realize_representation(pt, a4=a4, v44=v44)) is not semisimple:
                wrong.append((orders, v, a4, v44))
    assert not wrong, (len(wrong), wrong[:3])


def test_chart_systems_are_decided_without_elimination():
    """check_vinberg, verify_relations and is_semisimple read every
    chart's systems from their structure, as linalg has no numeric rank
    left: they decide a general point, a concurrent point, standard
    points realised at a4 = 1 and at a4 = 0, and the certify workload's
    identity-covector mutation (an entry of [v] with its sign flipped)."""
    assert not {"rank", "_eliminate", "RANK_TOL", "_scaled", "_cofactor_det"} & set(vars(linalg))
    o = QuadPrismOrders(3, 4, 5, 6)
    coords, concurrent = (6.0, 5.0, -1.5, -0.7, -2.0), ConcurrentChartParams(o, -1.3, -0.7, -2.1, -0.4)
    general = build_general(GeneralChartParams(o, *coords))
    vmat = np.array(general.cartan)
    vmat[1, 2] = -vmat[1, 2]
    systems = {"general": (general, True),
               "concurrent": (build_concurrent(concurrent), True),
               "standard, a4 = 1": (realize_representation(build_standard(o, *coords), a4=1.0), True),
               "standard, a4 = 0": (realize_representation(concurrent_to_standard(concurrent),
                                                           a4=0.0), True),
               "mutation": (ReflectionSystem(np.eye(4), vmat.T), False)}
    for name, (sys, valid) in systems.items():
        assert cartan.check_vinberg(sys, o).passed is valid, name
        assert certify.verify_relations(sys, o).passed is valid, name
        assert is_semisimple(sys), name


@pytest.mark.parametrize("v44, semisimple", [(0.0, True), (1.0, False)])
def test_semisimple_reads_the_case_of_an_ill_conditioned_block(v44, semisimple):
    """Alphas e1*, e2*, e3*, (1, -1, 1, 0) and vectors whose first two
    differ by 2^-52 in one entry: their 3x3 block is nonsingular, with
    determinant 2^-52, so v44 = 0 reads case III and v44 = 1 case II."""
    alphas = (_unit(0), _unit(1), _unit(2), (1.0, -1.0, 1.0, 0.0))
    vectors = ((1.0, 1.0, 0.0, 0.0), (1.0, 1.0 + 2**-52, 0.0, 0.0), _unit(2), (0.0, 0.0, 0.0, v44))
    assert is_semisimple(ReflectionSystem(alphas, vectors)) is semisimple


def test_semisimplicity_of_other_forms_and_sizes_is_undecided():
    """A 4x4 system of no known form, a simplex system (9x9 at n = 8,
    where the cofactor expansion alone would take a quarter second), and
    a known form whose vectors no block proves nonsingular."""
    rng = np.random.default_rng(31)
    raw = ReflectionSystem(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    orders = simplex_orders_all(8, 3)
    free = {pair: -1.0 for pair in charts._simplex_free_pairs(orders)}
    simplex = build_simplex(SimplexChartParams(8, orders, free))
    singular = ReflectionSystem(np.eye(4), np.ones((4, 4)))
    for sys in (raw, simplex, singular):
        with pytest.raises(UnsupportedShape):
            is_semisimple(sys)


def _unit(k):
    return tuple(1.0 if i == k else 0.0 for i in range(4))


_SPLIT_ENTRY = st.one_of(st.sampled_from((0.0, -0.0)),
                         st.floats(1e-3, 1e3).flatmap(lambda x: st.sampled_from((x, -x))))


@settings(max_examples=300, deadline=None)
@given(units=st.permutations(range(4)), order=st.permutations(range(4)),
       fourth=st.one_of(st.none(), st.lists(_SPLIT_ENTRY, min_size=4, max_size=4)),
       seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(("gaussian", "slice", "zero rows", "repeated rows")))
def test_semisimple_agrees_with_splitting_definition(units, order, fourth, seed, shape):
    """Alphas of a known 4x4 form, rows in any order: unit covectors at
    the first three of ``units`` and a fourth, the last unit covector
    (a dual basis) or entries of either sign and signed zeros.  V is
    Gaussian; or Gaussian with coordinate units[3] of the three unit
    rows' vectors 0.0, and of the fourth's half the time; or with exact
    zero or repeated rows.  Where is_semisimple answers, the answer is
    the splitting V = ker A (+) span V taken exactly on the same doubles,
    and every Gaussian V is decided."""
    rng = np.random.default_rng(seed)
    m = units[3]
    rows = [_unit(k) for k in units[:3]] + [_unit(m) if fourth is None else tuple(fourth)]
    v = rng.standard_normal((4, 4))
    if shape == "slice":
        v[:3, m] = 0.0
        v[3, m] *= rng.integers(2)
    elif shape == "zero rows":
        v[rng.choice(4, rng.integers(1, 5), replace=False)] = 0.0
    elif shape == "repeated rows":
        i, j = rng.choice(4, 2, replace=False)
        v[i] = v[j]
    alphas = tuple(rows[i] for i in order)
    vectors = tuple(tuple(v[i].tolist()) for i in order)
    kernel = exact_kernel(alphas)
    splits = len(kernel) == len(exact_kernel(vectors)) and not exact_kernel([*kernel, *vectors])
    try:
        answer = is_semisimple(ReflectionSystem(alphas, vectors))
    except UnsupportedShape:
        assert shape != "gaussian"
        return
    assert answer is splits


# --- simplex chart ---------------------------------------------------------

def simplex_orders_all(n, order):
    pairs = {(i, j): order for i in range(1, n + 2) for j in range(i + 1, n + 2)}
    return EdgeOrders(n + 1, pairs)


def test_simplex_parameter_count_n3():
    table = simplex_orders_all(3, 3)
    free = {(2, 3): -1.0, (2, 4): -1.0, (3, 4): -1.0}
    p = SimplexChartParams(3, table, free)
    assert p.parameter_count == 3  # n(n-1)/2 for n = 3


def test_simplex_parameter_count_n4():
    table = simplex_orders_all(4, 3)
    free = {(i, j): -1.0 for i in range(2, 6) for j in range(i + 1, 6)}
    p = SimplexChartParams(4, table, free)
    assert p.parameter_count == 6


def test_simplex_order_two_pairs_carry_no_parameter():
    table = EdgeOrders(4, {(1, 2): 3, (1, 3): 2, (1, 4): 3,
                           (2, 3): 3, (2, 4): 2, (3, 4): 3})
    p = SimplexChartParams(3, table, {(2, 3): -1.0, (3, 4): -1.0})
    sys = build_simplex(p)
    m = np.asarray(sys.cartan)
    assert m[0, 2] == m[2, 0] == 0.0
    assert m[1, 3] == m[3, 1] == 0.0


def test_simplex_products_match_mu():
    table = EdgeOrders(4, {(1, 2): 3, (1, 3): 4, (1, 4): 5,
                           (2, 3): 6, (2, 4): 4, (3, 4): 3})
    free = {(2, 3): -0.5, (2, 4): -2.0, (3, 4): -1.5}
    m = np.asarray(build_simplex(SimplexChartParams(3, table, free)).cartan)
    from projcox.orbifold import mu
    for (i, j) in table.orders:
        assert m[i - 1, j - 1] * m[j - 1, i - 1] == pytest.approx(
            mu(table.orders[(i, j)]), abs=1e-12)


def test_simplex_rejects_infinite_orders():
    table = EdgeOrders(4, {(1, 2): 3, (1, 3): INFINITY, (1, 4): 3,
                           (2, 3): 3, (2, 4): 3, (3, 4): 3})
    with pytest.raises(DomainError):
        SimplexChartParams(3, table, {(2, 3): -1.0, (2, 4): -1.0, (3, 4): -1.0})


def test_simplex_rejects_wrong_free_set():
    table = simplex_orders_all(3, 3)
    with pytest.raises(DomainError):
        SimplexChartParams(3, table, {(2, 3): -1.0})
    with pytest.raises(DomainError, match="v23 must be negative"):
        SimplexChartParams(3, table, {(2, 3): 0.0, (2, 4): -1.0, (3, 4): -1.0})


def test_simplex_rejects_bad_dimension_and_table_size():
    with pytest.raises(DomainError, match="must be in"):
        SimplexChartParams(9, simplex_orders_all(9, 3), {})
    with pytest.raises(DomainError, match="must have n"):
        SimplexChartParams(3, simplex_orders_all(4, 3), {})


# --- structural parameter counts ------------------------------------------

def coordinate_fields(cls, exclude=("orders",)):
    return [name for name in cls._fields if name not in exclude]


def test_chart_dimensions_match_deformation_spaces():
    assert coordinate_fields(GeneralChartParams) == ["t13", "t24", "v23", "v24", "v34"]
    assert coordinate_fields(ConcurrentChartParams, ("orders", "v44")) == [
        "v12", "v23", "v14", "v34"]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_random_standard_points_are_valid(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng, random_orders(rng))
    m = np.asarray(pt.cartan)
    cartan.cartan_of(ReflectionSystem(np.eye(4), m.T))
    assert m[0, 2] * m[2, 0] == pytest.approx(pt.t13)
    assert m[1, 3] * m[3, 1] == pytest.approx(pt.t24)
