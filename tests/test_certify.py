import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (STANDARD_POINTS_NEAR_T24_EDGE, balanced_realization, mat_power,
                     random_concurrent, random_general, random_standard, reflection,
                     whole_standard_solution)
from projcox import cartan, certify, charts, orbifold
from projcox.cartan import Check, ReflectionSystem, Verdict
from projcox.errors import NormalizationError, WrongDiagram
from projcox.orbifold import INFINITY, EdgeOrders, QuadPrismOrders

O3333 = QuadPrismOrders(3, 3, 3, 3)


def values(report, name) -> dict:
    """The values of the verdict's checks called name, keyed by place."""
    return {c.where: c.value for c in report if c.name == name}


def failures(report) -> list:
    """(name, place) of each check the verdict failed, in its order."""
    return [(c.name, c.where) for c in report if not c.passed]


def test_relations_concurrent_base_point():
    sys = charts.build_concurrent(
        charts.ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    report = certify.verify_relations(sys, O3333)
    assert report.passed
    assert max(values(report, "involution").values()) <= 1e-12
    assert max(values(report, "finite").values()) <= 1e-10
    assert values(report, "infinite") == pytest.approx({(1, 3): 16.0, (2, 4): 16.0})


def test_relations_detect_wrong_order():
    sys = charts.build_concurrent(
        charts.ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    wrong = QuadPrismOrders(4, 3, 3, 3)
    report = certify.verify_relations(sys, wrong)
    assert not report.passed
    assert ("finite", (1, 2)) in failures(report)


def finite_pairs(orders: EdgeOrders) -> list:
    """The pairs of finite order, sorted."""
    return [p for p, _, mu_n in orders.mu_table if mu_n is not None]


def brute_force_verdicts(sys, orders: EdgeOrders) -> dict:
    """Whether ||(R_i R_j)^n - Id||_F <= RELATION_TOL for each finite
    pair, with the power taken by repeated squaring."""
    ident = np.eye(sys.alphas.shape[1])
    r = [reflection(a, v) for a, v in zip(sys.alphas, sys.vectors)]
    verdicts = {}
    for (i, j) in finite_pairs(orders):
        power = mat_power(r[i - 1] @ r[j - 1], orders.orders[(i, j)])
        verdicts[(i, j)] = bool(np.linalg.norm(power - ident) <= certify.RELATION_TOL)
    return verdicts


def random_simplex(rng) -> charts.SimplexChartParams:
    """A 3-simplex chart point with orders drawn from 2-6."""
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    table = EdgeOrders(4, {p: int(n) for p, n in zip(pairs, rng.integers(2, 7, 6))})
    free = {(i, j): float(-np.exp(rng.uniform(-2.0, 2.0))) for (i, j) in pairs
            if i >= 2 and table.orders[(i, j)] >= 3}
    return charts.SimplexChartParams(3, table, free)


def with_wrong_order(orders: EdgeOrders, rng) -> tuple:
    """The table with one finite order moved by one, within 2-6, and the
    pair that moved."""
    pairs = finite_pairs(orders)
    pair = pairs[rng.integers(len(pairs))]
    n = orders.orders[pair]
    table = dict(orders.orders)
    table[pair] = n + 1 if n == 2 or (n < 6 and rng.integers(2)) else n - 1
    return EdgeOrders(orders.size, table), pair


def test_closed_form_agrees_with_matrix_power():
    rng = np.random.default_rng(101)
    cases = []
    for _ in range(40):
        g = random_general(rng)
        cases.append((charts.build_general(g), g.orders))
        c = random_concurrent(rng, v44=float(rng.standard_normal()))
        cases.append((charts.build_concurrent(c), c.orders))
        s = random_simplex(rng)
        cases.append((charts.build_simplex(s), s.orders))
    assert {n for _, o in cases for n in o.orders.values()} >= {2, 3, 4, 5, 6}
    for sys, orders in cases:
        report = certify.verify_relations(sys, orders)
        assert report.passed
        assert max(values(report, "finite").values()) <= 1e-12
        assert all(brute_force_verdicts(sys, orders).values())

        wrong, pair = with_wrong_order(orders, rng)
        report = certify.verify_relations(sys, wrong)
        closed_form = {p: ("finite", p) not in failures(report)
                       for p in finite_pairs(wrong)}
        assert closed_form == brute_force_verdicts(sys, wrong)
        assert [p for p, ok in closed_form.items() if not ok] == [pair]


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_large_order_moved_by_one_fails(n):
    # |p - mu(n)| between neighbouring orders is about 8pi^2/n^3, below
    # RELATION_TOL from n = 925 on; the scaled residual is about 2/n
    rng = np.random.default_rng(n)
    orders = QuadPrismOrders(n, n, n, n)
    for _ in range(10):
        sys = charts.build_general(random_general(rng, orders))
        assert certify.verify_relations(sys, orders).passed
        for k in (n - 1, n + 1):
            report = certify.verify_relations(sys, QuadPrismOrders(n, k, n, n))
            assert failures(report) == [("finite", (2, 3))]
            assert values(report, "finite")[(2, 3)] == pytest.approx(2.0 / n, rel=0.02)


def test_order_two_needs_both_entries_zero():
    # M_12 = 0 with M_21 != 0 breaks zero symmetry: R_1 R_2 is a Jordan
    # block with eigenvalue -1, so its square is not the identity
    m = np.array([[2.0, 0.0], [-0.5, 2.0]])
    sys = ReflectionSystem(np.eye(2), m.T)
    orders = EdgeOrders(2, {(1, 2): 2})
    report = certify.verify_relations(sys, orders)
    assert failures(report) == [("finite", (1, 2))]
    assert values(report, "finite")[(1, 2)] == 0.5
    assert brute_force_verdicts(sys, orders) == {(1, 2): False}


def test_relations_fail_an_infinite_pair_below_four():
    # the criterion-2 mutation: M13 = -3.9 makes T13 = M13 M31 = 3.9
    vmat = charts.build_general(
        charts.GeneralChartParams(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)).vectors.T.copy()
    vmat[0, 2] = -3.9
    report = certify.verify_relations(ReflectionSystem(np.eye(4), vmat.T), O3333)
    assert failures(report) == [("infinite", (1, 3))]
    assert values(report, "infinite")[(1, 3)] == pytest.approx(3.9)


def test_involution_residual_and_normalization():
    m = np.array([[2.0 + 1e-12, -1.0], [-1.0, 2.0]])
    orders = EdgeOrders(2, {(1, 2): 3})
    report = certify.verify_relations(ReflectionSystem(np.eye(2), m.T), orders,
                                      tol=1e-13)
    assert values(report, "involution")[(1,)] == pytest.approx(1e-12, rel=1e-3)
    assert ("involution", (1,)) in failures(report)
    m[0, 0] = 2.0 + 1e-6
    with pytest.raises(NormalizationError):
        certify.verify_relations(ReflectionSystem(np.eye(2), m.T), orders)


@settings(max_examples=200, deadline=None)
@given(orders=st.tuples(*[st.integers(3, 1000)] * 4),
       t=st.tuples(*[st.floats(4.0, 1e6)] * 2),
       log_v=st.tuples(*[st.floats(-6.0, 6.0)] * 3))
def test_relations_random_general_points(orders, t, log_v):
    # any edge order from 3 to 1000 and |v| from 1e-6 to 1e6
    params = charts.GeneralChartParams(QuadPrismOrders(*orders), *t,
                                       *(-(10.0 ** e) for e in log_v))
    report = certify.verify_relations(charts.build_general(params), params.orders)
    assert report.passed


@pytest.mark.parametrize("chart", ["general", "concurrent", "standard"])
@settings(max_examples=150, deadline=None)
@given(orders=st.tuples(*[st.integers(3, 5000)] * 4),
       log_x=st.tuples(*[st.floats(-9.0, 9.0)] * 5),
       moved=st.tuples(st.integers(0, 3), st.sampled_from((-1, 1))))
def test_valid_points_pass_over_the_whole_domain(chart, orders, log_x, moved):
    """Any edge order from 3 to 5000, with |v| and T - 4 from 1e-9 to
    1e9: a point of each chart passes Vinberg's conditions and the
    Coxeter relations, a standard point realized at a4 = 1 and at the
    balanced a4, and the relations fail exactly at the one finite order
    moved by one.

    Vinberg's conditions are left out of the moved half: C4 gates the
    unscaled |M_ij M_ji - mu(n)|, about 8pi^2/n^3 for a neighbouring
    order, which falls below its 1e-9 gate from about n = 4300."""
    o = QuadPrismOrders(*orders)
    x = [10.0 ** e for e in log_x]
    if chart == "general":
        systems = [charts.build_general(
            charts.GeneralChartParams(o, 4.0 + x[0], 4.0 + x[1], -x[2], -x[3], -x[4]))]
    elif chart == "concurrent":
        systems = [charts.build_concurrent(
            charts.ConcurrentChartParams(o, *(-y for y in x[:4])))]
    else:
        pt = charts.build_standard(o, 4.0 + x[0], 4.0 + x[1], -x[2], -x[3], -x[4])
        systems = [charts.realize_representation(pt, a4=1.0), balanced_realization(pt)]
    pair = finite_pairs(o)[moved[0]]
    table = dict(o.orders)
    table[pair] += moved[1]
    wrong = EdgeOrders(4, table)
    for sys in systems:
        assert cartan.check_vinberg(sys, o).passed
        assert certify.verify_relations(sys, o).passed
        assert failures(certify.verify_relations(sys, wrong)) == [("finite", pair)]


@pytest.mark.parametrize("point", STANDARD_POINTS_NEAR_T24_EDGE)
def test_standard_points_near_the_t24_edge_pass(point):
    """Valid standard points whose solution reaches 1e7 build, read
    their T13 and T24 off the Cartan rows, and pass Vinberg's conditions
    and the relations at a4 = 1 and at the balanced a4."""
    o = QuadPrismOrders(3, 4, 5, 6)
    pt = charts.build_standard(o, *point)
    assert cartan._t_products(pt.cartan) == point[:2]
    for sys in (charts.realize_representation(pt, a4=1.0), balanced_realization(pt)):
        assert cartan.check_vinberg(sys, o).passed
        assert certify.verify_relations(sys, o).passed


#: the quadrilateral's 8 dihedral symmetries, each as the old side of
#: new sides 1..4; every one maps opposite sides to opposite sides, so
#: (1,3) and (2,4) keep their infinite orders
DIHEDRAL = tuple(tuple((r + s * k) % 4 + 1 for k in range(4))
                 for r in range(4) for s in (1, -1))


def relabelled(sys, orders: EdgeOrders, perm) -> tuple:
    """The system and order table with new side k the old side perm[k - 1]:
    alpha rows, vector rows and Cartan rows and columns move together."""
    idx = [p - 1 for p in perm]
    m = sys.cartan
    moved = ReflectionSystem(tuple(sys.alpha_rows[i] for i in idx),
                             tuple(sys.vector_rows[i] for i in idx),
                             tuple(tuple(m[i][j] for j in idx) for i in idx))
    table = {(k, l): orders.orders[tuple(sorted((perm[k - 1], perm[l - 1])))]
             for k in range(1, 5) for l in range(k + 1, 5)}
    return moved, EdgeOrders(4, table)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       chart=st.sampled_from(("general", "concurrent", "standard")),
       moved=st.sampled_from((None, 0, 1, 2, 3)))
def test_relabelling_the_sides_moves_each_check_with_its_place(seed, chart, moved):
    """A point at orders 3-6, a quarter of the general ones at T13 = 4,
    checked against its orders or with one finite order raised by one:
    under each dihedral relabelling the Vinberg, relation and
    cocompactness verdicts stay, and each relation check's value and
    verdict reappear at its relabelled place."""
    rng = np.random.default_rng(seed)
    if chart == "general":
        params = random_general(rng)
        if rng.integers(4) == 0:
            params = params._replace(t13=4.0)
        sys, orders = charts.build_general(params), params.orders
    elif chart == "concurrent":
        params = random_concurrent(rng, v44=float(rng.standard_normal()))
        sys, orders = charts.build_concurrent(params), params.orders
    else:
        pt = random_standard(rng)
        sys, orders = balanced_realization(pt), pt.orders
    table = dict(orders.orders)
    if moved is not None:
        table[finite_pairs(orders)[moved]] += 1
    orders = EdgeOrders(4, table)
    relations = certify.verify_relations(sys, orders)
    verdicts = (cartan.check_vinberg(sys, orders).passed, relations.passed,
                certify.is_convex_cocompact(sys.cartan, orders))
    places = {(c.name, c.where): c for c in relations}
    for perm in DIHEDRAL:
        other, other_orders = relabelled(sys, orders, perm)
        other_relations = certify.verify_relations(other, other_orders)
        assert (cartan.check_vinberg(other, other_orders).passed, other_relations.passed,
                certify.is_convex_cocompact(other.cartan, other_orders)) == verdicts
        for c in other_relations:
            old = places[c.name, tuple(sorted(perm[k - 1] for k in c.where))]
            assert (c.value.hex(), c.passed) == (old.value.hex(), old.passed)


def test_cocompact_strict_inequality():
    at_boundary = charts.build_general(
        charts.GeneralChartParams(O3333, 4.0, 6.0, -1.0, -1.0, -1.0))
    interior = charts.build_general(
        charts.GeneralChartParams(O3333, 4.5, 4.5, -1.0, -1.0, -1.0))
    assert not certify.is_convex_cocompact(at_boundary.cartan, O3333)
    assert certify.is_convex_cocompact(interior.cartan, O3333)


def test_cocompact_rejects_wrong_diagram():
    table = EdgeOrders(4, {(1, 2): INFINITY, (2, 3): 3, (3, 4): 3,
                           (1, 4): 3, (1, 3): 3, (2, 4): 3})
    with pytest.raises(WrongDiagram):
        certify.is_convex_cocompact(np.eye(4), table)


@pytest.mark.parametrize("table, message", [
    (EdgeOrders(3, {(1, 2): 3, (1, 3): INFINITY, (2, 3): 3}),
     "expected the quad-prism pattern"),
    (EdgeOrders(4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3,
                    (1, 3): 5, (2, 4): INFINITY}),
     "expected the quad-prism pattern"),
    (EdgeOrders(4, {(1, 2): 2, (2, 3): 3, (3, 4): 3, (1, 4): 3,
                    (1, 3): INFINITY, (2, 4): INFINITY}),
     "finite orders must be >= 3"),
])
def test_cocompact_wrong_diagram_raises_on_every_call(table, message):
    # the pattern is checked on every call, from the order table
    for _ in range(2):
        with pytest.raises(WrongDiagram, match=message):
            certify.is_convex_cocompact(np.eye(4), table)


def test_relations_at_an_order_of_a_million():
    # 4 - mu(10**6) is about 4e-11: the table builds and the relation
    # residual divides by it without fault
    o = QuadPrismOrders(3, 3, 3, 10**6)
    system = charts.build_general(charts.GeneralChartParams(o, 6.0, 6.0, -1.0, -1.0, -1.0))
    report = certify.verify_relations(system, o)
    assert isinstance(report, Verdict) and all(isinstance(c, Check) for c in report)
    assert report.passed


def test_certificates_compute_each_mu_once_per_table(monkeypatch):
    # every mu comes from the table, computed when the orders are built
    calls = []
    real_mu = orbifold.mu
    monkeypatch.setattr(orbifold, "mu", lambda n: calls.append(n) or real_mu(n))
    o = QuadPrismOrders(3, 4, 5, 6)
    point = charts.build_standard(o, 6.0, 6.0, -1.0, -1.0, -1.0)
    systems = (charts.build_general(charts.GeneralChartParams(o, 9.0, 5.0, -2.0, -0.5, -3.0)),
               charts.build_concurrent(charts.ConcurrentChartParams(o, -1.0, -1.0, -1.0, -1.0)),
               charts.realize_representation(point, a4=1.0))
    for system in systems:
        m = cartan.cartan_of(system)
        assert cartan.check_vinberg(system, o).passed
        assert certify.verify_relations(system, o).passed
        assert cartan.derived_invariant_identities(cartan.cyclic_invariants(m), o).passed
        certify.is_convex_cocompact(m, o)
    assert sorted(calls) == [3, 4, 5, 6]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_cocompact_invariant_under_diagonal_conjugation(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng)
    m = pt.cartan
    d = np.exp(rng.uniform(-1.0, 1.0, 4))
    conj = m * np.outer(d, 1.0 / d)
    assert (certify.is_convex_cocompact(m, pt.orders)
            == certify.is_convex_cocompact(conj, pt.orders))


def test_concurrent_t_products_match_cartan():
    """The point and the grid read one source, charts.concurrent_cartan:
    over 10^4 points with |v| in [e^-8, e^8], the rows of
    build_concurrent are bit for bit those of the array call, so T13 and
    T24 of the grid are the point's, and M44 is exactly 2."""
    rng = np.random.default_rng(11)
    n = 2500
    for orders in (O3333, QuadPrismOrders(3, 4, 5, 6), QuadPrismOrders(1000, 7, 1000, 3),
                   QuadPrismOrders(4, 1000, 5, 1000)):
        v = -np.exp(rng.uniform(-8.0, 8.0, (4, n)))
        rows = charts.concurrent_cartan(orders, *v)
        grid = np.array([[np.broadcast_to(x, n) for x in row] for row in rows])
        points = np.array([
            charts.build_concurrent(charts.ConcurrentChartParams(orders, *v[:, k])).cartan
            for k in range(n)])
        assert np.array_equal(points, grid.transpose(2, 0, 1))
        assert (points[:, 3, 3] == 2.0).all()


def test_concurrent_scan_minimum_at_base_point():
    report = certify.concurrent_t_scan(O3333, grid_points_per_axis=9)
    assert report.product_at_all_minus_one == pytest.approx(256.0, abs=1e-9)
    assert report.min_product >= 256.0 - 1e-6
    assert report.argmin == (-1.0, -1.0, -1.0, -1.0)


@pytest.mark.parametrize("orders, grid, minimum, argmin, at_minus_one", [
    ((3, 3, 3, 3), 9, 256.00000000000006, (-1.0,) * 4, 256.00000000000006),
    ((3, 3, 3, 3), 17, 256.00000000000006, (-1.0,) * 4, 256.00000000000006),
    ((3, 4, 5, 6), 9, 564.0205982409213, (-1.0,) + (-1.7782794100389228,) * 3,
     674.1640786499875),
    ((3, 4, 5, 6), 17, 563.1918630097874,
     (-1.0, -1.333521432163324, -1.7782794100389228, -1.7782794100389228),
     674.1640786499875),
])
def test_concurrent_scan_is_pinned(orders, grid, minimum, argmin, at_minus_one):
    report = certify.concurrent_t_scan(QuadPrismOrders(*orders), grid)
    assert report == certify.ConcurrentScanReport(grid, minimum, argmin, at_minus_one)


def test_concurrent_scan_needs_a_grid_point():
    with pytest.raises(ValueError, match="grid_points_per_axis must be >= 1"):
        certify.concurrent_t_scan(O3333, grid_points_per_axis=0)
    assert certify.concurrent_t_scan(O3333, grid_points_per_axis=1).argmin == (-1.0,) * 4


def test_det_locus_report():
    report = certify.det_locus_check(O3333, samples=2000, seed=0)
    assert report.min_abs_det["T13=4"] > 1e-6
    assert report.min_abs_det["T24=4"] > 1e-6
    assert report.min_e["T13=4"] > 0.0
    assert report.min_e["T24=4"] > 0.0


@pytest.mark.parametrize("orders, seed, samples, min_det", [
    pytest.param(O3333, 0, 2000, {"T13=4": 64.53077690455821, "T24=4": 65.29535610368139},
                 id="0-2000-min_det0"),
    pytest.param(O3333, 31, 10_000, {"T13=4": 64.80960632244002, "T24=4": 65.02007530612224},
                 id="31-10000-min_det1"),
    # more than two _BLOCKs: the running minima cross block boundaries
    pytest.param(QuadPrismOrders(3, 4, 5, 6), 7, 20_000,
                 {"T13=4": 134.26958832515422, "T24=4": 133.3131905485297},
                 id="3456-7-20000"),
])
def test_det_locus_report_is_pinned(orders, seed, samples, min_det):
    """The fixed T = 4 enters the solve as the scalar 4.0, not as an
    array of it, and the minima are folded block by block; the report
    keeps every bit it had with whole-array solves."""
    report = certify.det_locus_check(orders, samples=samples, seed=seed)
    assert report == certify.DetLocusReport(samples, seed, min_det, min_det)


def test_det_locus_minima_are_pinned():
    """Every bit of the minima at three order tables and four seeds: the
    sha256 of their hex forms, as recorded when v23, v24 and v34 were
    three draws in turn of -e^U, U uniform on [-2, 2]."""
    digest = hashlib.sha256()
    for orders in ((3, 3, 3, 3), (3, 4, 5, 6), (7, 9, 11, 1000)):
        for seed in (0, 1, 2, 73):
            report = certify.det_locus_check(QuadPrismOrders(*orders), 2000, seed)
            for minima in (report.min_abs_det, report.min_e):
                for key in ("T13=4", "T24=4"):
                    digest.update(minima[key].hex().encode())
    assert digest.hexdigest() == (
        "e25d938e94685fe2a0c2ca3d03b01bb8316c24522b81652fe7178c91640c19ec")


def test_det_locus_check_peak_memory():
    """The check draws its samples one block at a time and folds its
    minima per block, so it keeps nothing of the sample size: its peak,
    one block's draws and solve temporaries, stays below one float array
    of 2e5 samples."""
    samples = 200_000
    certify.det_locus_check(O3333, samples=1, seed=0)
    tracemalloc.start()
    try:
        certify.det_locus_check(O3333, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * samples


def rebuilt_det_locus(orders, samples, seed):
    """det_locus_check's report rebuilt from the whole-array solve on the
    one-shot draws of default_rng(seed), slice by slice: the free T,
    then v23, v24 and v34 as one (3, samples) draw."""
    rng = np.random.default_rng(seed)
    min_abs_det, min_e = {}, {}
    for name in ("T13=4", "T24=4"):
        t_free = charts.sample_t(rng, samples)
        v = charts.sample_negative_box(rng, -math.exp(2.0), -math.exp(-2.0), (3, samples))
        t13, t24 = (4.0, t_free) if name == "T13=4" else (t_free, 4.0)
        result = whole_standard_solution(orders, t13, t24, *v)
        det_m = result["det_m"][np.isfinite(result["a4_v44"])]
        min_abs_det[name] = float(np.min(np.abs(det_m)))
        min_e[name] = -float(np.max(det_m))
    return certify.DetLocusReport(samples, seed, min_abs_det, min_e)


@pytest.mark.parametrize("orders, seed", [(O3333, 0), (QuadPrismOrders(3, 4, 5, 6), 9)])
def test_det_locus_check_equals_a_rebuild_from_the_one_shot_draw(orders, seed):
    """Drawn block by block from jumped streams, the samples are bit for
    bit those of the one-shot draw, across block edges and in the second
    slice, whose stream starts at 4 * samples."""
    samples = 3 * charts._BLOCK + 11
    report = certify.det_locus_check(orders, samples, seed)
    rebuilt = rebuilt_det_locus(orders, samples, seed)
    assert report == rebuilt
    for got, want in zip(report[2:], rebuilt[2:]):
        assert {k: x.hex() for k, x in got.items()} == {k: x.hex() for k, x in want.items()}


def rebuilt_scan(orders, t, samples, seed, box):
    """standard_scan's summary and records rebuilt from the whole-array
    solve on the same draws, made in turn."""
    rng = np.random.default_rng(seed)
    v = [charts.sample_negative_box(rng, *box, samples) for _ in range(3)]
    result = whole_standard_solution(orders, t, t, *v)
    ok = result["valid"]
    values = result["a4_v44"][ok]
    k = int(np.argmin(values))
    counts, edges = np.histogram(values, bins=20)
    summary = {
        "samples": samples, "valid_samples": int(np.sum(ok)), "seed": seed,
        "box": list(box), "t13": t, "t24": t,
        "min_a4_v44": float(np.min(values)), "max_a4_v44": float(np.max(values)),
        "argmin": {name: float(x[ok][k]) for name, x in zip(("v23", "v24", "v34"), v)},
        "histogram": [{"lo": float(edges[j]), "hi": float(edges[j + 1]),
                       "count": int(counts[j])} for j in range(20)],
    }
    records = {"v23": v[0][ok], "v24": v[1][ok], "v34": v[2][ok], "a4v44": values,
               "det_M": result["det_m"][ok], "T13_prod": np.full(values.shape, t),
               "T24_prod": np.full(values.shape, t)}
    return summary, records


@pytest.mark.parametrize("box, samples, valid", [
    pytest.param((-10.0, -1e-8), 2000, 2000, id="box0-2000"),
    pytest.param((-1e-300, -1e-320), 2000, 118, id="box1-118"),
    # two blocks and a part one, drawn from jumped streams
    pytest.param((-10.0, -1e-8), 2 * charts._BLOCK + 7, 2 * charts._BLOCK + 7,
                 id="box0-two-blocks-and-7"),
    pytest.param((-1e-300, -1e-320), 2 * charts._BLOCK + 7, 942,
                 id="box1-two-blocks-and-7"),
    pytest.param((-10.0, -1e-8), 1, 1, id="box0-1"),
])
def test_standard_scan_equals_a_rebuild_from_the_batch_solve(box, samples, valid):
    """The scan, drawn and solved block by block, gives bit for bit the
    summary and records of the whole-array solve on the one-shot draw,
    with every sample valid and, in the tiny box where most solutions
    overflow, through the masked path."""
    report = certify.standard_scan(O3333, 6.0, 6.0, samples=samples, seed=1, box=box,
                                   keep_records=True)
    summary, records = rebuilt_scan(O3333, 6.0, samples, 1, box)
    assert report.valid_samples == valid
    assert report.summary == summary
    assert set(report.records) == set(records)
    for key, x in records.items():
        assert report.records[key].tobytes() == x.tobytes(), key


def test_standard_scan_peak_memory():
    """The scan draws and solves one block at a time and keeps a4*v44
    and its finite mask, 9 bytes per sample: over many blocks its peak,
    the histogram's temporaries included, stays below three float arrays
    of the sample size."""
    samples = 200_000
    certify.standard_scan(O3333, 6, 6, samples=1, seed=0)
    tracemalloc.start()
    try:
        certify.standard_scan(O3333, 6, 6, samples=samples, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * samples


def test_standard_scan_deterministic():
    a = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=5)
    b = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=5)
    assert a.min_a4_v44 == b.min_a4_v44
    assert a.argmin == b.argmin
    assert a.histogram == b.histogram


def test_standard_scan_seed_changes_samples():
    a = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=5)
    b = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=6)
    assert a.argmin != b.argmin


def test_standard_scan_records_schema():
    report = certify.standard_scan(O3333, 6.0, 6.0, samples=500, seed=1,
                                   keep_records=True)
    rec = report.records
    assert set(rec) == {"v23", "v24", "v34", "a4v44", "det_M",
                        "T13_prod", "T24_prod"}
    n = report.valid_samples
    assert all(rec[c].shape == (n,) for c in rec)
    assert np.all(rec["T13_prod"] == 6.0)


def test_standard_scan_argmin_reproduces_minimum():
    report = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=2)
    v23, v24, v34 = report.argmin
    pt = charts.build_standard(O3333, 6.0, 6.0, v23, v24, v34)
    assert pt.a4_v44 == pytest.approx(report.min_a4_v44, rel=1e-9)


def test_standard_scan_rejects_empty():
    with pytest.raises(ValueError):
        certify.standard_scan(O3333, 6.0, 6.0, samples=0, seed=0)
