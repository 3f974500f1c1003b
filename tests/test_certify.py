import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (mat_power, random_concurrent, random_general, random_standard,
                     reflection)
from projcox import cartan, certify, charts, orbifold
from projcox.cartan import ReflectionSystem
from projcox.errors import NormalizationError, WrongDiagram
from projcox.orbifold import INFINITY, EdgeOrders, QuadPrismOrders

O3333 = QuadPrismOrders(3, 3, 3, 3)


def test_relations_concurrent_base_point():
    sys = charts.build_concurrent(
        charts.ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    report = certify.verify_relations(sys, O3333)
    assert report.passed
    assert max(report.involution_residuals.values()) <= 1e-12
    assert max(report.finite_pair_residuals.values()) <= 1e-10
    assert report.infinite_pair_products[(1, 3)] == pytest.approx(16.0)
    assert report.infinite_pair_products[(2, 4)] == pytest.approx(16.0)


def test_relations_detect_wrong_order():
    sys = charts.build_concurrent(
        charts.ConcurrentChartParams(O3333, -1.0, -1.0, -1.0, -1.0))
    wrong = QuadPrismOrders(4, 3, 3, 3)
    report = certify.verify_relations(sys, wrong)
    assert not report.passed
    assert ("finite", (1, 2)) in report.failures


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
        power = mat_power(r[i - 1] @ r[j - 1], orders.order(i, j))
        verdicts[(i, j)] = bool(np.linalg.norm(power - ident) <= certify.RELATION_TOL)
    return verdicts


def random_simplex(rng) -> charts.SimplexChartParams:
    """A 3-simplex chart point with orders drawn from 2-6."""
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    table = EdgeOrders(4, {p: int(n) for p, n in zip(pairs, rng.integers(2, 7, 6))})
    free = {(i, j): float(-np.exp(rng.uniform(-2.0, 2.0))) for (i, j) in pairs
            if i >= 2 and table.order(i, j) >= 3}
    return charts.SimplexChartParams(3, table, free)


def with_wrong_order(orders: EdgeOrders, rng) -> tuple:
    """The table with one finite order moved by one, within 2-6, and the
    pair that moved."""
    pairs = finite_pairs(orders)
    pair = pairs[rng.integers(len(pairs))]
    n = orders.order(*pair)
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
        assert max(report.finite_pair_residuals.values()) <= 1e-12
        assert all(brute_force_verdicts(sys, orders).values())

        wrong, pair = with_wrong_order(orders, rng)
        report = certify.verify_relations(sys, wrong)
        closed_form = {p: ("finite", p) not in report.failures
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
            assert report.failures == [("finite", (2, 3))]
            assert report.finite_pair_residuals[(2, 3)] == pytest.approx(2.0 / n, rel=0.02)


def test_order_two_needs_both_entries_zero():
    # M_12 = 0 with M_21 != 0 breaks zero symmetry: R_1 R_2 is a Jordan
    # block with eigenvalue -1, so its square is not the identity
    m = np.array([[2.0, 0.0], [-0.5, 2.0]])
    sys = ReflectionSystem(np.eye(2), m.T)
    orders = EdgeOrders(2, {(1, 2): 2})
    report = certify.verify_relations(sys, orders)
    assert report.failures == [("finite", (1, 2))]
    assert report.finite_pair_residuals[(1, 2)] == 0.5
    assert brute_force_verdicts(sys, orders) == {(1, 2): False}


def test_relations_fail_an_infinite_pair_below_four():
    # the criterion-2 mutation: M13 = -3.9 makes T13 = M13 M31 = 3.9
    vmat = charts.build_general(
        charts.GeneralChartParams(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)).vectors.T.copy()
    vmat[0, 2] = -3.9
    report = certify.verify_relations(ReflectionSystem(np.eye(4), vmat.T), O3333)
    assert report.failures == [("infinite", (1, 3))]
    assert report.infinite_pair_products[(1, 3)] == pytest.approx(3.9)


def test_involution_residual_and_normalization():
    m = np.array([[2.0 + 1e-12, -1.0], [-1.0, 2.0]])
    orders = EdgeOrders(2, {(1, 2): 3})
    report = certify.verify_relations(ReflectionSystem(np.eye(2), m.T), orders,
                                      tol=1e-13)
    assert report.involution_residuals[1] == pytest.approx(1e-12, rel=1e-3)
    assert ("involution", 1) in report.failures
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
    assert isinstance(report, certify.RelationReport)
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
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = random_concurrent(rng)
        m = np.asarray(cartan.cartan_of(charts.build_concurrent(p)))
        m13, m31, m24, m42 = charts.concurrent_entries(
            p.orders, p.v12, p.v23, p.v14, p.v34)
        # build_concurrent writes M13, M31 and M24; M42 is alpha_4(v_2)
        assert (m13, m31, m24) == (m[0, 2], m[2, 0], m[1, 3])
        assert m42 == pytest.approx(m[3, 1])
        assert m13 * m31 == pytest.approx(m[0, 2] * m[2, 0])
        assert m24 * m42 == pytest.approx(m[1, 3] * m[3, 1])


def test_concurrent_scan_minimum_at_base_point():
    report = certify.concurrent_t_scan(O3333, grid_points_per_axis=9)
    assert report.product_at_all_minus_one == pytest.approx(256.0, abs=1e-9)
    assert report.min_product >= 256.0 - 1e-6
    assert report.argmin == (-1.0, -1.0, -1.0, -1.0)


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
