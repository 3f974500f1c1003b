import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (exact_standard_solution, random_concurrent, random_orders,
                     random_standard, svd_rank, whole_standard_solution)
from projcox import cartan, charts
from projcox.cartan import ReflectionSystem
from projcox.charts import (CaseLabel, ConcurrentChartParams,
                            GeneralChartParams, SimplexChartParams,
                            build_concurrent, build_general, build_simplex,
                            build_standard, classify_case,
                            concurrent_to_standard, is_semisimple,
                            realize_representation, standard_coordinates)
from projcox.errors import ConditionFailure, DomainError, GaugeError
from projcox.orbifold import INFINITY, EdgeOrders, QuadPrismOrders

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
    assert m[1, 2] * m[2, 1] == pytest.approx(orders.mu23)


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
    assert m[3, 0] == pytest.approx(-pt.orders.mu14)
    assert m[3, 1] == pytest.approx(pt.t24 / pt.v24)
    assert m[3, 2] == pytest.approx(pt.orders.mu34 / pt.v34)
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
    """build_standard is the one-point batch: equal values to the
    whole-array solve wherever it returns, and an overflow error exactly
    where that marks invalid."""
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
            try:
                pt = build_standard(*point)
            except ConditionFailure:
                continue
            assert (pt.a1, pt.a2, pt.a3, pt.a4_v44) == tuple(
                batch[key][k] for key in ("a1", "a2", "a3", "a4_v44"))


BATCH_KEYS = ("a1", "a2", "a3", "a4_v44", "det_m", "valid")
#: what charts._standard_block gives, with valid the one rule of the
#: library: a finite a4*v44
BLOCKED_KEYS = ("a4_v44", "det_m", "valid")


def blocked_solve(orders, *args) -> dict:
    """charts._standard_block run over blocks of charts._BLOCK samples,
    as the scans run it, and put back together, with det_m = a4*v44
    det3 and valid = isfinite(a4*v44), in the keys of
    whole_standard_solution."""
    n = max(np.size(x) for x in args)
    out = {key: np.empty(n, dtype=bool if key == "valid" else float) for key in BLOCKED_KEYS}
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, charts._BLOCK):
            block = slice(lo, lo + charts._BLOCK)
            a4_v44, det3 = charts._standard_block(
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
        v = charts.sample_negative_box(rng, *box, (3, 200))
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
    """A valid point at |v| = 1e8..1e300 passes the residual gate, with
    a4*v44 within 1e-14 relative of exact.  From |v| = 1e16 the constant
    2 of M44 is lost in rounding a4*v44 (about 3|v|), and only the
    rounding bound of the rebuilt entry's terms lets the point pass."""
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


def test_one_draw_of_three_rows_is_three_draws_in_turn():
    """The scan's samples are one (3, N) draw, read block by block: the
    same stream, and the same bits, as three draws of N made in turn,
    which is why row r starts at double r * N."""
    box = (-10.0, -1e-8)
    rows = charts.sample_negative_box(np.random.default_rng(4), *box, (3, 1000))
    rng = np.random.default_rng(4)
    turns = [charts.sample_negative_box(rng, *box, 1000) for _ in range(3)]
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
    whole = charts.sample_negative_box(np.random.default_rng(7), *box, (3, samples))
    assert drawn.tobytes() == whole.tobytes()


def test_box_sampler_at_the_criterion_5_band_keeps_its_draws():
    """Acceptance criterion 5 and det_locus_check draw v in [-e^2, -e^-2]
    from the box sampler: log(e^+-2) is +-2 in doubles, so the draws are
    those of -e^U with U uniform on [-2, 2], the same bits."""
    box = charts.sample_negative_box(np.random.default_rng(31), -math.exp(2.0),
                                     -math.exp(-2.0), 10_000)
    assert (box == -np.exp(np.random.default_rng(31).uniform(-2.0, 2.0, 10_000))).all()


def test_realize_representation_gauge_invariance():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    m1 = cartan.cartan_of(realize_representation(pt, a4=1.0))
    m2 = cartan.cartan_of(realize_representation(pt, a4=2.5))
    assert np.allclose(m1, m2)


def test_realize_representation_rejects_inconsistent_gauge():
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    assert abs(pt.a4_v44) > 1e-6
    with pytest.raises(GaugeError):
        realize_representation(pt, a4=0.0)


def test_realize_representation_rejects_v44_with_nonzero_a4():
    # a4 != 0 forces v44 = a4*v44 / a4; another v44 would give a system
    # with M44 != 2, which is no reflection system
    pt = build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    with pytest.raises(GaugeError):
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


def test_concurrent_to_standard_kills_a4_v44():
    p = ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0)
    pt = concurrent_to_standard(p)
    assert abs(pt.a4_v44) <= 1e-10
    assert pt.a1 > 0 and pt.a2 < 0 and pt.a3 > 0


#: (T13, T24, v23, v24, v34) points for the residual-gate perturbation test
PERTURBED_POINTS = ((6.0, 6.0, -1.0, -1.0, -1.0), (6.0, 6.0, -1e8, -1e8, -1e8),
                    (9.0, 5.0, -2.0, -0.5, -3.0), (4.0, 1e4, -7.0, -0.2, -0.15))

#: the (point, solution entry, relative change) cases the checks of
#: build_standard accept, of the 64 in the perturbation test; entries
#: are indices into PERTURBED_POINTS and (a1, a2, a3, a4*v44)
PERTURBATIONS_ACCEPTED = {
    (0, 1, 1e-9), (0, 1, -1e-9),
    (1, 0, 1e-8), (1, 0, 1e-9), (1, 0, -1e-8), (1, 0, -1e-9),
    (2, 1, 1e-8), (2, 1, 1e-9), (2, 1, -1e-8), (2, 1, -1e-9),
    (3, 1, 1e-8), (3, 1, 1e-9), (3, 1, -1e-8), (3, 1, -1e-9),
    (3, 3, 1e-9), (3, 3, -1e-9),
}


def test_build_standard_rejects_perturbed_solutions(monkeypatch):
    """A solution entry moved by +-1e-8 or +-1e-9 relative fails the
    checks of build_standard in all but the pinned cases: the rounding
    bound of an entry's terms adds about 1e-15 of their size to its
    gate, far below such a move."""
    orders = QuadPrismOrders(3, 4, 5, 6)
    exact = charts.standard_solution
    accepted = set()
    for k, point in enumerate(PERTURBED_POINTS):
        for entry in range(4):
            for eps in (1e-8, 1e-9, -1e-8, -1e-9):
                def perturbed(*args, entry=entry, eps=eps):
                    sol = list(exact(*args))
                    sol[entry] *= 1.0 + eps
                    return tuple(sol)
                monkeypatch.setattr(charts, "standard_solution", perturbed)
                try:
                    build_standard(orders, *point)
                except ConditionFailure:
                    continue
                accepted.add((k, entry, eps))
    assert accepted == PERTURBATIONS_ACCEPTED


# --- case labels and semisimplicity ---------------------------------------

def test_classify_case_table():
    assert classify_case(1.0, 1.0) is CaseLabel.I
    assert classify_case(1.0, 0.0) is CaseLabel.I_PRIME
    assert classify_case(0.0, 1.0) is CaseLabel.II
    assert classify_case(0.0, 0.0) is CaseLabel.III


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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rank_alphas=st.integers(1, 4),
       rank_vectors=st.integers(1, 4), shared=st.integers(0, 3))
def test_semisimple_agrees_with_splitting_definition(seed, rank_alphas,
                                                     rank_vectors, shared):
    """Random (alphas, vectors) of every rank, with up to `shared`
    directions of ker alphas inside span{v_j}: V splits as ker + span
    exactly when the dimensions add up to 4 and the two span V."""
    rng = np.random.default_rng(seed)
    alphas = rng.standard_normal((4, rank_alphas)) @ rng.standard_normal((rank_alphas, 4))
    kernel = np.linalg.svd(alphas)[2][svd_rank(alphas):]
    shared = min(shared, kernel.shape[0], rank_vectors)
    basis = np.vstack([kernel[:shared],
                       rng.standard_normal((rank_vectors - shared, 4))])
    vectors = rng.standard_normal((4, rank_vectors)) @ basis
    splits = (kernel.shape[0] + svd_rank(vectors) == 4
              and svd_rank(np.vstack([kernel, vectors])) == 4)
    assert is_semisimple(cartan.ReflectionSystem(alphas, vectors)) == splits


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
