"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line,
and enforces the stated tolerances and runtime budgets.  Seeds are fixed
so every run is reproducible.
"""

import time

import numpy as np
import pytest

from helpers import (balanced_realization, random_concurrent, random_general,
                     random_orders, random_standard)
from projcox import cartan, certify, charts, orbifold
from projcox.cartan import ReflectionSystem
from projcox.charts import CaseLabel
from projcox.orbifold import QuadPrismOrders

O3333 = QuadPrismOrders(3, 3, 3, 3)


def report(capsys, number, label, passed, detail=""):
    verdict = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{verdict}] criterion {number}: {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def sample_systems(rng, count):
    """(system, orders) for `count` random points in each chart."""
    out = []
    for _ in range(count):
        g = random_general(rng, spread=1.0)
        out.append((charts.build_general(g), g.orders))
        c = random_concurrent(rng, v44=float(rng.standard_normal()), spread=1.0)
        out.append((charts.build_concurrent(c), c.orders))
        pt = random_standard(rng, spread=1.0)
        out.append((balanced_realization(pt), pt.orders))
    return out


@pytest.fixture(scope="module")
def chart_points():
    rng = np.random.default_rng(2024)
    return sample_systems(rng, 1000)


def test_criterion_1_relations(capsys, chart_points):
    start = time.perf_counter()
    worst = 0.0
    ok = True
    for sys, orders in chart_points:
        rep = certify.verify_relations(sys, orders)
        ok = ok and rep.passed
        residuals = list(rep.involution_residuals.values())
        residuals += list(rep.finite_pair_residuals.values())
        worst = max(worst, *residuals)
        ok = ok and all(v >= 4.0 - 1e-9
                        for v in rep.infinite_pair_products.values())
    elapsed = time.perf_counter() - start
    ok = ok and worst <= 1e-7 and elapsed < 10.0
    report(capsys, 1, "Coxeter relations on 3000 random chart points", ok,
           f"worst residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_vinberg_and_mutations(capsys, chart_points):
    ok = True
    worst = 0.0
    for sys, orders in chart_points:
        rep = cartan.check_vinberg(sys, orders)
        ok = ok and rep.passed
        worst = max(worst, *(rep.conditions[c].residual
                             for c in ("C1", "C2", "C3", "C4")))
    ok = ok and worst <= 1e-9

    rng = np.random.default_rng(7)
    detected = 0
    for k in range(200):
        orders = random_orders(rng)
        g = random_general(rng, orders)
        vmat = charts.build_general(g).vectors.T.copy()
        if k % 2 == 0:
            # flip the sign of one random off-diagonal [v] entry
            i, j = rng.integers(0, 4, 2)
            while i == j:
                i, j = rng.integers(0, 4, 2)
            vmat[i, j] = -vmat[i, j]
        else:
            # drop T13 below the admissible half-line
            vmat[0, 2] = -3.9
        mutated = ReflectionSystem(np.eye(4), vmat.T)
        if not cartan.check_vinberg(mutated, orders).passed:
            detected += 1
    ok = ok and detected == 200
    report(capsys, 2, "Vinberg conditions + mutation detection", ok,
           f"worst residual {worst:.2e}, detected {detected}/200")


def test_criterion_3_cyclic_invariants(capsys):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        pt = random_standard(rng)
        m = pt.cartan
        rep = cartan.derived_invariant_identities(
            cartan.cyclic_invariants(m), pt.orders)
        worst = max(worst, *rep.residuals.values())
    identities_ok = worst <= 1e-9

    true_hits = 0
    for _ in range(100):
        pt = random_standard(rng)
        m = pt.cartan
        d = np.exp(rng.uniform(-1.0, 1.0, 4))
        if cartan.projectively_equivalent(m, m * np.outer(d, 1.0 / d)):
            true_hits += 1

    false_hits = 0
    pairs = 0
    while pairs < 100:
        pt = random_standard(rng)
        # second point differs in v23 by at least a factor, hence the
        # (1,2,3) invariant mu12 * v23 moves by >= 1e-3
        try:
            other = charts.build_standard(pt.orders, pt.t13, pt.t24,
                                          1.5 * pt.v23, pt.v24, pt.v34)
        except Exception:
            continue
        pairs += 1
        g1 = cartan.cyclic_invariants(pt.cartan)[(1, 2, 3)]
        g2 = cartan.cyclic_invariants(other.cartan)[(1, 2, 3)]
        assert abs(g1 - g2) >= 1e-3
        if not cartan.projectively_equivalent(
                pt.cartan, other.cartan):
            false_hits += 1

    ok = identities_ok and true_hits == 100 and false_hits == 100
    report(capsys, 3, "cyclic invariant identities + equivalence decisions", ok,
           f"worst residual {worst:.2e}, {true_hits}/100 true, {false_hits}/100 false")


def test_criterion_4_semisimplicity_cases(capsys):
    rng = np.random.default_rng(23)
    agree = {CaseLabel.I: 0, CaseLabel.I_PRIME: 0, CaseLabel.II: 0,
             CaseLabel.III: 0}
    for _ in range(100):
        # case I: generic standard point, a4 != 0, v44 != 0
        pt = random_standard(rng)
        while abs(pt.a4_v44) <= 1e-4:
            pt = random_standard(rng)
        sys = charts.realize_representation(pt, a4=1.0)
        label = charts.classify_case(1.0, pt.a4_v44)
        if label is CaseLabel.I and charts.is_semisimple(sys):
            agree[CaseLabel.I] += 1

        # cases I', II, III all sit over the a4*v44 = 0 locus
        pt0 = charts.concurrent_to_standard(random_concurrent(rng))
        sys = charts.realize_representation(pt0, a4=1.0)
        label = charts.classify_case(1.0, pt0.a4_v44)
        if label is CaseLabel.I_PRIME and not charts.is_semisimple(sys):
            agree[CaseLabel.I_PRIME] += 1

        sys = charts.realize_representation(pt0, a4=0.0, v44=1.0)
        if (charts.classify_case(0.0, 1.0) is CaseLabel.II
                and not charts.is_semisimple(sys)):
            agree[CaseLabel.II] += 1

        sys = charts.realize_representation(pt0, a4=0.0, v44=0.0)
        if (charts.classify_case(0.0, 0.0) is CaseLabel.III
                and charts.is_semisimple(sys)):
            agree[CaseLabel.III] += 1
    ok = all(v == 100 for v in agree.values())
    detail = ", ".join(f"{k.value}: {v}/100" for k, v in agree.items())
    report(capsys, 4, "semisimplicity matches the case table", ok, detail)


def test_criterion_5_determinant_signs(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(31)

    max_det3 = -np.inf
    for _ in range(10_000):
        p = random_concurrent(rng)
        m = np.asarray(charts.build_concurrent(p).cartan)
        max_det3 = max(max_det3, float(np.linalg.det(m[:3, :3])))
    det3_ok = max_det3 < 0.0

    min_e = np.inf
    orders_pool = [random_orders(rng) for _ in range(16)]
    for orders in orders_pool:
        n = 10_000 // len(orders_pool)
        t13 = charts.sample_t(rng, n)
        t24 = charts.sample_t(rng, n)
        v23 = charts.sample_negative(rng, n)
        v24 = charts.sample_negative(rng, n)
        v34 = charts.sample_negative(rng, n)
        res = charts.solve_standard_batch(orders, t13, t24, v23, v24, v34)
        e = (4.0 - t13) * (4.0 - t24) - res["det_m"]
        min_e = min(min_e, float(np.min(e[res["valid"]])))
    e_ok = min_e > 0.0

    locus = certify.det_locus_check(O3333, samples=10_000, seed=31)
    locus_ok = min(locus.min_abs_det.values()) > 1e-6

    elapsed = time.perf_counter() - start
    ok = det3_ok and e_ok and locus_ok and elapsed < 30.0
    report(capsys, 5, "determinant sign and boundary-slice checks", ok,
           f"max det3 {max_det3:.3g}, min E {min_e:.3g}, "
           f"min |det| {min(locus.min_abs_det.values()):.3g}, {elapsed:.1f}s")


def test_criterion_6_scan_reproduction(capsys):
    start = time.perf_counter()
    # the infimum 2 is attained only as v23 -> 0-, so the box must reach
    # very close to zero for the minimum to settle near 2
    low = certify.standard_scan(O3333, 6.0, 6.0, samples=100_000, seed=0,
                                box=(-10.0, -1e-8))
    band_ok = 1.8 <= low.min_a4_v44 <= 2.1 and low.min_a4_v44 > 0.0

    high = certify.standard_scan(O3333, 16.0, 16.0, samples=100_000, seed=0)
    high_ok = high.min_a4_v44 < 1e-2

    grid = certify.concurrent_t_scan(O3333, grid_points_per_axis=9)
    grid_ok = (grid.min_product >= 256.0 - 1e-6
               and abs(grid.product_at_all_minus_one - 256.0) <= 1e-9)

    elapsed = time.perf_counter() - start
    ok = band_ok and high_ok and grid_ok and elapsed < 60.0
    report(capsys, 6, "parameter-scan reproduction", ok,
           f"min at T=6: {low.min_a4_v44:.3f}, min at T=16: "
           f"{high.min_a4_v44:.2e}, grid min {grid.min_product:.1f}, {elapsed:.1f}s")


def test_criterion_7_dimension_bookkeeping(capsys):
    import dataclasses

    general_fields = [f.name for f in dataclasses.fields(charts.GeneralChartParams)
                      if f.name != "orders"]
    standard_fields = [f.name for f in dataclasses.fields(charts.StandardChartPoint)
                       if f.name in ("t13", "t24", "v23", "v24", "v34")]
    concurrent_fields = [f.name for f in dataclasses.fields(charts.ConcurrentChartParams)
                         if f.name not in ("orders", "v44")]
    five_ok = len(general_fields) == 5 and len(standard_fields) == 5
    four_ok = len(concurrent_fields) == 4

    # the two closed half-lines: T = 4 is allowed, below is not
    half_line_ok = True
    charts.GeneralChartParams(O3333, 4.0, 4.0, -1.0, -1.0, -1.0)
    try:
        charts.GeneralChartParams(O3333, 3.999, 4.0, -1.0, -1.0, -1.0)
        half_line_ok = False
    except Exception:
        pass

    table = orbifold.EdgeOrders(4, {(i, j): 3 for i in range(1, 5)
                                    for j in range(i + 1, 5)})
    simplex = charts.SimplexChartParams(
        3, table, {(2, 3): -1.0, (2, 4): -1.0, (3, 4): -1.0})
    simplex_ok = simplex.parameter_count == 3  # n(n-1)/2, n = 3

    ok = five_ok and four_ok and half_line_ok and simplex_ok
    report(capsys, 7, "chart dimensions match the deformation spaces", ok,
           f"general/standard 5, concurrent slice 4, simplex {simplex.parameter_count}")


def test_criterion_8_orbifold_numerics(capsys):
    from fractions import Fraction
    sig = orbifold.quadrilateral_signature(3, 3, 3, 3)
    chi = orbifold.euler_characteristic(sig)
    ok = (chi == Fraction(-1, 3)
          and orbifold.teichmuller_dim(sig) == 1
          and orbifold.d_tp(sig) == 1
          and orbifold.cg05_dim(sig) == 4)
    report(capsys, 8, "orbifold Euler characteristic and dimensions", ok,
           f"chi {chi}, dims (1, 1, 4)")


def test_criterion_9_cocompactness(capsys):
    grid_ok = True
    for t13 in np.linspace(4.0, 8.0, 20):
        for t24 in np.linspace(4.0, 8.0, 20):
            p = charts.GeneralChartParams(O3333, float(t13), float(t24),
                                          -1.0, -1.0, -1.0)
            m = charts.build_general(p).cartan
            expected = bool(t13 > 4.0 and t24 > 4.0)
            grid_ok = grid_ok and (
                certify.is_convex_cocompact(m, O3333) == expected)

    rng = np.random.default_rng(47)
    concurrent_ok = True
    for _ in range(1000):
        p = random_concurrent(rng)
        m = charts.build_concurrent(p).cartan
        concurrent_ok = concurrent_ok and certify.is_convex_cocompact(m, p.orders)

    ok = grid_ok and concurrent_ok
    report(capsys, 9, "cocompactness criterion on grid + concurrent chart", ok,
           f"grid {'ok' if grid_ok else 'mismatch'}, "
           f"concurrent {'all cocompact' if concurrent_ok else 'counterexample'}")


def test_criterion_10_cross_chart_consistency(capsys):
    rng = np.random.default_rng(53)
    worst_gauge = 0.0
    equivalent = 0
    for _ in range(100):
        p = random_concurrent(rng)
        pt = charts.concurrent_to_standard(p)
        worst_gauge = max(worst_gauge, abs(pt.a4_v44))
        m_conc = cartan.cartan_of(charts.build_concurrent(p))
        m_std = pt.cartan
        if cartan.projectively_equivalent(m_conc, m_std):
            equivalent += 1
    ok = worst_gauge <= 1e-8 and equivalent == 100
    report(capsys, 10, "concurrent-to-standard round trip", ok,
           f"max |a4*v44| {worst_gauge:.2e}, equivalent {equivalent}/100")


def test_criterion_11_relations_at_large_orders(capsys):
    rng = np.random.default_rng(61)
    passed = {}
    worst = 0.0
    for n in (100, 400, 1000):
        orders = QuadPrismOrders(n, n, n, n)
        passed[n] = 0
        for _ in range(200):
            g = random_general(rng, orders)
            rep = certify.verify_relations(charts.build_general(g), orders)
            passed[n] += rep.passed
            worst = max(worst, *rep.finite_pair_residuals.values())
    ok = all(v == 200 for v in passed.values()) and worst <= 1e-7
    detail = ", ".join(f"n={n}: {v}/200" for n, v in passed.items())
    report(capsys, 11, "Coxeter relations at edge orders 100, 400, 1000", ok,
           f"{detail}, worst residual {worst:.2e}")
