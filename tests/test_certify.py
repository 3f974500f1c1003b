import hashlib
import math
import os
import threading
import tracemalloc
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (STANDARD_POINTS_NEAR_T24_EDGE, balanced_realization, mat_power,
                     negative_box, random_concurrent, random_general, random_standard,
                     rebuilt_scan, reflection, scan_block_records, whole_standard_solution)
from projcox import cartan, certify, charts, linalg, orbifold
from projcox.cartan import Check, ReflectionSystem, Verdict
from projcox.errors import DomainError, InvariantViolation, UnsupportedShape
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


#: the brute-force oracle's gate on ||(R_i R_j)^n - Id||_F: repeated
#: squaring takes about log2(n) products of 4x4 matrices, and each
#: rounds, so a valid power misses Id by far more than the pair gate's
#: bound on M_ij M_ji; at orders up to 6, 1e-7 still fails n +- 1
BRUTE_FORCE_TOL = 1e-7


def brute_force_verdicts(sys, orders: EdgeOrders) -> dict:
    """Whether ||(R_i R_j)^n - Id||_F <= BRUTE_FORCE_TOL for each finite
    pair, with the power taken by repeated squaring."""
    ident = np.eye(sys.alphas.shape[1])
    r = [reflection(a, v) for a, v in zip(sys.alphas, sys.vectors)]
    verdicts = {}
    for (i, j) in finite_pairs(orders):
        power = mat_power(r[i - 1] @ r[j - 1], orders.orders[(i, j)])
        verdicts[(i, j)] = bool(np.linalg.norm(power - ident) <= BRUTE_FORCE_TOL)
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
    # |p - mu(n)| between neighbouring orders is only about 8pi^2/n^3;
    # the scaled residual r keeps its scale, about 2/n
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
    with pytest.raises(InvariantViolation):
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


#: the largest order at which doubles still fail n +- 1: an order moved
#: by one reads about 2/n, more than twice the pair gate's bound 8u
#: n^2 / pi^2 below (pi^2 / 8u)^(1/3) = 2.23e5 (cartan._pair_checks)
SEPARABLE_ORDER = 220_000


def chart_systems(chart: str, o: QuadPrismOrders, t, v) -> list:
    """The systems of one chart point: a general or concurrent point, or
    a standard point realized at a4 = 1 and at the balanced a4, from T
    values t and negative coordinates v (four for concurrent)."""
    if chart == "general":
        return [charts.build_general(charts.GeneralChartParams(o, *t, *v[:3]))]
    if chart == "concurrent":
        return [charts.build_concurrent(charts.ConcurrentChartParams(o, *v))]
    pt = charts.build_standard(o, *t, *v[:3])
    return [charts.realize_representation(pt, a4=1.0), balanced_realization(pt)]


@pytest.mark.parametrize("chart", ["general", "concurrent", "standard"])
@settings(max_examples=150, deadline=None)
@given(orders=st.tuples(*[st.integers(3, SEPARABLE_ORDER)] * 4),
       log_x=st.tuples(*[st.floats(-9.0, 9.0)] * 5),
       moved=st.tuples(st.integers(0, 3), st.sampled_from((-1, 1))))
def test_valid_points_pass_over_the_whole_domain(chart, orders, log_x, moved):
    """Any edge order from 3 to SEPARABLE_ORDER, with |v| and T - 4 from
    1e-9 to 1e9: a point of each chart passes Vinberg's conditions and
    the Coxeter relations, a standard point realized at a4 = 1 and at
    the balanced a4, and both fail exactly at the one finite order moved
    by one."""
    o = QuadPrismOrders(*orders)
    x = [10.0 ** e for e in log_x]
    t = [4.0 + y for y in x[:2]]
    v = [-y for y in (x[2:] if chart != "concurrent" else x[:4])]
    pair = finite_pairs(o)[moved[0]]
    table = dict(o.orders)
    table[pair] += moved[1]
    wrong = EdgeOrders(4, table)
    for sys in chart_systems(chart, o, t, v):
        assert cartan.check_vinberg(sys, o).passed
        assert certify.verify_relations(sys, o).passed
        assert failures(cartan.check_vinberg(sys, wrong)) == [("C4", (pair,))]
        assert failures(certify.verify_relations(sys, wrong)) == [("finite", pair)]


@pytest.mark.parametrize("chart", ["general", "concurrent", "standard"])
def test_valid_points_pass_at_order_1e5_and_neighbours_fail(chart):
    """At orders (n, n, n, n), n = 1e5, with |v| in e^[-2, 2] and T - 4
    in e^[-3, 3]: every point passes C4 and the relations, and each fails
    both against (n +- 1, n, n, n).  Before the pair gate took a computed
    bound, the relations failed more than half of these valid points
    and C4 passed every neighbour."""
    n = 100_000
    o = QuadPrismOrders(n, n, n, n)
    neighbours = [QuadPrismOrders(k, n, n, n) for k in (n - 1, n + 1)]
    rng = np.random.default_rng(7)
    for _ in range(40):
        t = 4.0 + np.exp(rng.uniform(-3.0, 3.0, 2))
        v = -np.exp(rng.uniform(-2.0, 2.0, 4))
        for sys in chart_systems(chart, o, t.tolist(), v.tolist()):
            assert cartan.check_vinberg(sys, o).passed
            assert certify.verify_relations(sys, o).passed
            for wrong in neighbours:
                assert failures(cartan.check_vinberg(sys, wrong)) == [("C4", ((1, 2),))]
                assert failures(certify.verify_relations(sys, wrong)) == [("finite", (1, 2))]


#: gamma_2 = 2u / (1 - 2u), u = 2^-53 (Higham, ch. 3): the rounding
#: bound of a chart pair's product, relative to mu
GAMMA_2 = 2 * 2.0**-53 / (1 - 2 * 2.0**-53)


def random_simplex_system(data) -> tuple:
    """An n-simplex chart system, n from 2 to 4, at orders 2 to 1e6 and
    |v| from 1e-9 to 1e9, and its order table, drawn by hypothesis."""
    n = data.draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(1, n + 2) for j in range(i + 1, n + 2)]
    table = EdgeOrders(n + 1, {p: data.draw(st.integers(2, 10**6)) for p in pairs})
    free = {p: -(10.0 ** data.draw(st.floats(-9.0, 9.0)))
            for p in charts._simplex_free_pairs(table)}
    return charts.build_simplex(charts.SimplexChartParams(n, table, free)), table


@settings(max_examples=300, deadline=None)
@given(chart=st.sampled_from(("general", "concurrent", "standard", "simplex")),
       orders=st.tuples(*[st.integers(3, 10**6)] * 4),
       log_x=st.tuples(*[st.floats(-9.0, 9.0)] * 5), t24_at_4=st.booleans(),
       data=st.data())
def test_no_pair_exceeds_its_computed_bound(chart, orders, log_x, t24_at_4, data):
    """The bound's premise: on every chart, at orders 3 to 1e6 and |v|
    and T - 4 from 1e-9 to 1e9, or T24 = 4 (a standard point at a4 = 1
    and at the balanced a4), each pair's residual is within its computed
    rounding bound, with no slack.  At T24 = 4, T24 / v24 times v24 reads
    below 4.0 at about one v24 in seven."""
    if chart == "simplex":
        sys, o = random_simplex_system(data)
        systems = [sys]
    else:
        o = QuadPrismOrders(*orders)
        x = [10.0 ** e for e in log_x]
        t = [4.0 + x[0], 4.0 if t24_at_4 else 4.0 + x[1]]
        v = [-y for y in (x[2:] if chart != "concurrent" else x[:4])]
        systems = chart_systems(chart, o, t, v)
    for sys in systems:
        assert all(passed for *_, passed in cartan._pair_checks(sys.cartan, o, 0.0))


def table_term(n: int) -> float:
    """What the pair gate's bound at order n leaves for the table's own
    rounding of mu(n): the bound on |fl(p) - fl(mu)|, read off
    cartan._pair_checks with no slack, less a chart pair's gamma_2 mu."""
    mu_n = orbifold.mu(n)
    (*_, bound, _), = cartan._pair_checks(((2.0, -1.0), (-mu_n, 2.0)),
                                         EdgeOrders(2, {(1, 2): n}), 0.0)
    return bound * (4.0 - mu_n) - GAMMA_2 * mu_n


def test_the_mu_table_is_within_the_bounds_table_term():
    """|fl(mu(n)) - mu(n)|, against mu(n) to 200 bits, is within the
    table term of the pair gate's bound: every n from 3 to 1e4, and 300
    orders log-uniform from 1e4 to 3e8 but those whose mu(n) rounds to 4,
    which the table refuses."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(3)
    sampled = [n for n in np.exp(rng.uniform(math.log(1e4), math.log(3e8), 300)).astype(int)
               .tolist() if orbifold.mu(n) < 4.0]
    with mpmath.workprec(200):
        for n in chain(range(3, 10**4 + 1), sampled):
            error = abs(mpmath.mpf(orbifold.mu(n)) - 4 * mpmath.cos(mpmath.pi / n) ** 2)
            assert error <= table_term(n), n


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
    cocompactness verdicts stay, and so does the semisimplicity of a
    concurrent or standard point, whose relabelled covectors are its
    known form with the rows permuted; and each relation check's value
    and verdict reappear at its relabelled place."""
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

    def semisimple(s):
        return None if chart == "general" else charts.is_semisimple(s)

    verdicts = (cartan.check_vinberg(sys, orders).passed, relations.passed,
                certify.is_convex_cocompact(sys.cartan, orders), semisimple(sys))
    places = {(c.name, c.where): c for c in relations}
    for perm in DIHEDRAL:
        other, other_orders = relabelled(sys, orders, perm)
        other_relations = certify.verify_relations(other, other_orders)
        assert (cartan.check_vinberg(other, other_orders).passed, other_relations.passed,
                certify.is_convex_cocompact(other.cartan, other_orders),
                semisimple(other)) == verdicts
        for c in other_relations:
            old = places[c.name, tuple(sorted(perm[k - 1] for k in c.where))]
            assert (c.value.hex(), c.passed) == (old.value.hex(), old.passed)


def builder_systems() -> dict:
    """A system from each chart builder, with its order table: general,
    concurrent, simplex, and standard realised at a4 != 0 and at a4 = 0."""
    rng = np.random.default_rng(30)
    o = QuadPrismOrders(3, 4, 5, 6)
    concurrent = charts.ConcurrentChartParams(o, -1.3, -0.7, -2.1, -0.4, 0.5)
    simplex = random_simplex(rng)
    standard = charts.build_standard(o, 6.0, 5.0, -1.5, -0.7, -2.0)
    return {"general": (charts.build_general(random_general(rng, o)), o),
            "concurrent": (charts.build_concurrent(concurrent), o),
            "simplex": (charts.build_simplex(simplex), simplex.orders),
            "standard": (charts.realize_representation(standard, a4=1.7), o),
            "standard at a4 = 0": (charts.realize_representation(
                charts.concurrent_to_standard(concurrent), a4=0.0, v44=1.0), o)}


def test_check_vinberg_reads_a_systems_rows_as_held(monkeypatch):
    """check_vinberg converts none of a built system's rows: no call of
    linalg._rows, on fresh systems and on their relabellings."""
    expected = {name: cartan.check_vinberg(sys, o) for name, (sys, o) in builder_systems().items()}
    systems = builder_systems()
    moved = {name: relabelled(sys, o, (2, 3, 4, 1)) for name, (sys, o) in systems.items()}
    calls = []
    read = linalg._rows
    monkeypatch.setattr(linalg, "_rows", lambda *args: calls.append(args) or read(*args))
    for name, (sys, o) in systems.items():
        assert cartan.check_vinberg(sys, o) == expected[name], name
        assert expected[name].passed, name
        assert cartan.check_vinberg(*moved[name]).passed, name
    assert calls == []


def test_every_builder_holds_tuples_of_float_tuples():
    """The rows ReflectionSystem's contract promises and check_vinberg
    reads as held, from each builder and from relabelled."""
    for name, (sys, o) in builder_systems().items():
        for s in (sys, relabelled(sys, o, (4, 3, 2, 1))[0]):
            for rows in (s.alpha_rows, s.vector_rows, s.cartan):
                assert type(rows) is linalg.Rows, name
                assert all(type(row) is tuple and set(map(type, row)) == {float}
                           for row in rows), name
                assert linalg._rows(rows) is rows, name


def test_a_systems_cartan_rows_are_read_with_no_entry_scan(monkeypatch):
    """cartan_of's rows pass _rows as they are, and the certificates that
    take a matrix read them with no entry scan (the type scan linalg._rows
    runs over chain(*rows)), on every builder's system and on its
    relabellings."""
    systems = [(name, *pair) for name, (sys, o) in builder_systems().items()
               for pair in [(sys, o), *(relabelled(sys, o, perm)
                                        for perm in ((2, 3, 4, 1), (4, 3, 2, 1)))]]
    scans = []
    monkeypatch.setattr(linalg, "chain", lambda *rows: scans.append(rows) or chain(*rows))
    for name, sys, o in systems:
        m = cartan.cartan_of(sys)
        assert linalg._rows(m, (len(m), len(m))) is m, name
        if name != "simplex":
            assert linalg._rows(m, (4, 4)) is m
            certify.is_convex_cocompact(m, o)
            assert len(cartan.cyclic_invariants(m)) == 20
            assert cartan.projectively_equivalent(m, m)
    assert scans == []


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
    with pytest.raises(UnsupportedShape):
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
        with pytest.raises(UnsupportedShape, match=message):
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
    # every mu comes from the table, computed when the orders are built;
    # from an empty intern cache, as an earlier test may have built it
    orbifold._quad_prism_orders.cache_clear()
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
    # building the same table again computes no mu at all
    del calls[:]
    assert QuadPrismOrders(3, 4, 5, 6) is o
    assert certify.verify_relations(charts.build_concurrent(
        charts.ConcurrentChartParams(QuadPrismOrders(3, 4, 5, 6), -1.0, -1.0, -1.0, -1.0)),
        QuadPrismOrders(3, 4, 5, 6)).passed
    assert calls == []


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


@pytest.mark.parametrize("orders", [(3, 3, 3, 3), (4, 4, 4, 4), (3, 4, 5, 6), (7, 3, 9, 3)])
def test_concurrent_scan_minimum_is_above_the_closed_form_bound(orders):
    """T13 T24 >= (sqrt(ab) + sqrt(c))^4 with a = 2 + sqrt(mu34),
    b = 2 + sqrt(mu12), c = sqrt(mu14 mu23), by Cauchy-Schwarz and
    AM-GM; 256 at orders 3, where the grid attains it at all v = -1."""
    o = QuadPrismOrders(*orders)
    mu12, mu23, mu34, mu14 = map(orbifold.mu, orders)
    a, b = 2.0 + math.sqrt(mu34), 2.0 + math.sqrt(mu12)
    bound = (math.sqrt(a * b) + math.sqrt(math.sqrt(mu14 * mu23))) ** 4
    minimum = certify.concurrent_t_scan(o).min_product
    assert minimum >= bound
    if orders == (3, 3, 3, 3):
        assert bound == 256.0 and minimum == pytest.approx(256.0, rel=1e-15)


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
    # min_abs_det reads -max det M, so above 1e-6 it also shows every
    # det M < 0 on the slices: E = -det M > 0
    report = certify.det_locus_check(O3333, samples=2000, seed=0)
    assert report.min_abs_det["T13=4"] > 1e-6
    assert report.min_abs_det["T24=4"] > 1e-6


def test_det_locus_check_needs_a_sample():
    with pytest.raises(ValueError, match="samples must be >= 1"):
        certify.det_locus_check(O3333, samples=0, seed=0)


@pytest.mark.parametrize("scan", [
    lambda seed: certify.det_locus_check(O3333, samples=10, seed=seed),
    lambda seed: certify.standard_scan(O3333, 6.0, 6.0, samples=10, seed=seed),
])
def test_scans_name_a_negative_seed(scan):
    """Not numpy's "expected non-negative integer", which names no seed."""
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        scan(-1)


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
    assert report == certify.DetLocusReport(samples, seed, min_det)


def test_det_locus_minima_are_pinned():
    """Every bit of the minima at three order tables and four seeds: the
    sha256 of their hex forms, as recorded when v23, v24 and v34 were
    three draws in turn of -e^U, U uniform on [-2, 2].  The recorded
    digest hashed min |det M| and then -max det M, once a second field;
    on these slices the two are the same bits, so min_abs_det enters
    twice."""
    digest = hashlib.sha256()
    for orders in ((3, 3, 3, 3), (3, 4, 5, 6), (7, 9, 11, 1000)):
        for seed in (0, 1, 2, 73):
            report = certify.det_locus_check(QuadPrismOrders(*orders), 2000, seed)
            for minima in (report.min_abs_det, report.min_abs_det):
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
    min_abs_det = {}
    for name in ("T13=4", "T24=4"):
        t_free = charts.sample_t(rng, samples)
        v = negative_box(rng, -math.exp(2.0), -math.exp(-2.0), (3, samples))
        t13, t24 = (4.0, t_free) if name == "T13=4" else (t_free, 4.0)
        result = whole_standard_solution(orders, t13, t24, *v)
        det_m = result["det_m"][np.isfinite(result["a4_v44"])]
        min_abs_det[name] = float(np.min(np.abs(det_m)))
    return certify.DetLocusReport(samples, seed, min_abs_det)


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
    summary of the whole-array solve on the one-shot draw, and its blocks
    (_scan_blocks, which the CSV writes) give its valid samples, with
    every sample valid and, in the tiny box where most solutions
    overflow, through the masked path."""
    report = certify.standard_scan(O3333, 6.0, 6.0, samples=samples, seed=1, box=box)
    summary, records = rebuilt_scan(O3333, 6.0, 6.0, samples, 1, box)
    assert report.valid_samples == valid
    assert report.summary == summary
    blocked = scan_block_records(O3333, 6.0, 6.0, samples, 1, box)
    assert list(blocked) == list(records)
    for key, x in records.items():
        assert blocked[key].tobytes() == x.tobytes(), key


def scan_peak(samples: int) -> int:
    """tracemalloc's peak over one standard scan of O3333 at T = 6."""
    certify.standard_scan(O3333, 6, 6, samples=1, seed=0)
    tracemalloc.start()
    try:
        certify.standard_scan(O3333, 6, 6, samples=samples, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_standard_scan_peak_memory():
    """The scan draws and solves one block at a time and keeps a4*v44
    and its finite mask, 9 bytes per sample: over many blocks its peak,
    the histogram's temporaries included, stays below three float arrays
    of the sample size."""
    samples = 200_000
    assert scan_peak(samples) < 3 * 8 * samples


def usable_cpus(monkeypatch, n: int) -> None:
    """Make os.sched_getaffinity report n usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def hexed(x):
    """x with every float in it replaced by its hex form."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: hexed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [hexed(v) for v in x]
    return x


#: a size that splits over up to three workers, with spans of unaligned
#: lengths that start off every block boundary
SPLIT_SAMPLES = 1_000_003


@pytest.mark.parametrize("box", [(-10.0, -1e-8), (-1e-300, -1e-320)], ids=["finite", "overflow"])
@pytest.mark.parametrize("orders, seed", [(O3333, 3), (QuadPrismOrders(3, 4, 5, 6), 8)],
                         ids=["3333-3", "3456-8"])
def test_a_scan_split_over_cpus_keeps_its_bits(orders, seed, box, monkeypatch):
    """Split into spans on two or three workers, the scan's summary,
    every float of it to the bit, is the one-worker summary and the
    rebuild from the whole-array solve on the one-shot draw; in the
    overflow box it goes through the masked path."""
    assert SPLIT_SAMPLES // certify._SPAN_MIN >= 3
    summaries = []
    for cpus in (1, 2, 3):
        usable_cpus(monkeypatch, cpus)
        summaries.append(hexed(certify.standard_scan(orders, 6.0, 7.5, SPLIT_SAMPLES, seed,
                                                     box=box).summary))
    rebuilt, _ = rebuilt_scan(orders, 6.0, 7.5, SPLIT_SAMPLES, seed, box)
    assert summaries[1] == summaries[2] == summaries[0] == hexed(rebuilt)
    assert (summaries[0]["valid_samples"] < SPLIT_SAMPLES) == (box[1] == -1e-320)


def count_started_threads(monkeypatch) -> list:
    """The threads started from now on, as a list that fills as they start."""
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("cpus, samples", [
    pytest.param(1, SPLIT_SAMPLES, id="one-cpu"),
    pytest.param(8, certify._SPAN_MIN - 1, id="below-one-span"),
    pytest.param(8, 2 * certify._SPAN_MIN - 1, id="below-two-spans"),
])
def test_a_scan_on_one_worker_starts_no_thread(cpus, samples, monkeypatch):
    usable_cpus(monkeypatch, cpus)

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = certify.standard_scan(O3333, 6.0, 6.0, samples, 0)
    assert report.valid_samples == samples


@pytest.mark.parametrize("samples", [2 * certify._SPAN_MIN, SPLIT_SAMPLES])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_workers_never_outnumber_the_usable_cpus(cpus, samples, monkeypatch):
    """The calling thread solves one span and a thread of its own each
    other: min(cpus, samples // _SPAN_MIN) workers, every thread joined
    by the time the scan returns."""
    usable_cpus(monkeypatch, cpus)
    started = count_started_threads(monkeypatch)
    before = threading.active_count()
    certify.standard_scan(O3333, 6.0, 6.0, samples, 0)
    assert len(started) + 1 == min(cpus, samples // certify._SPAN_MIN) <= cpus
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in started)


@pytest.mark.parametrize("cpu_count, workers", [(None, 1), (1, 1), (3, 3)])
def test_without_sched_getaffinity_the_cpu_count_is_read(cpu_count, workers, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    started = count_started_threads(monkeypatch)
    certify.standard_scan(O3333, 6.0, 6.0, SPLIT_SAMPLES, 0)
    assert len(started) + 1 == workers


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_span_that_raises_raises_out_of_the_scan(failing, monkeypatch):
    """The solve raising on one span, the worker's or the calling
    thread's, comes out of the scan as that very exception, once the
    other span is done and its thread joined."""
    usable_cpus(monkeypatch, 2)
    caller = threading.current_thread()
    error = DomainError("one span fails")
    solve = charts.standard_solution

    def failing_solve(*args):
        if (threading.current_thread() is caller) == (failing == "caller"):
            raise error
        return solve(*args)

    monkeypatch.setattr(charts, "standard_solution", failing_solve)
    started = count_started_threads(monkeypatch)
    before = threading.active_count()
    with pytest.raises(DomainError) as raised:
        certify.standard_scan(O3333, 6.0, 6.0, SPLIT_SAMPLES, 0)
    assert raised.value is error
    assert len(started) == 1
    assert threading.active_count() == before


def test_a_worker_enters_its_own_errstate(monkeypatch):
    """numpy's errstate is per thread, so each worker quiets the solve's
    overflow itself: in the overflow box no warning reaches the caller
    even where every warning is an error."""
    usable_cpus(monkeypatch, 2)
    started = count_started_threads(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = certify.standard_scan(O3333, 6.0, 6.0, SPLIT_SAMPLES, 0,
                                       box=(-1e-300, -1e-320))
    assert len(started) == 1
    assert 0 < report.valid_samples < SPLIT_SAMPLES


@pytest.mark.parametrize("samples", [2 * certify._SPAN_MIN, SPLIT_SAMPLES])
def test_a_split_scan_peak_memory(samples, monkeypatch):
    """Split over two workers, each solving its span one block at a
    time, the scan keeps the bound of test_standard_scan_peak_memory
    with the second worker's blocks (0.68 of it at 2 * _SPAN_MIN, the
    fewest samples that split)."""
    usable_cpus(monkeypatch, 2)
    started = count_started_threads(monkeypatch)
    assert scan_peak(samples) < 3 * 8 * samples
    assert len(started) == 1   # the calling thread solves the other span


@st.composite
def _histogram_values(draw):
    """A float array for the histogram: heavy-tailed, uniform, constant,
    made of the edges of its own bins, or spread over a few ulps, at
    sizes about the chunk edges of certify._histogram."""
    chunk = certify._HIST_CHUNK
    size = draw(st.one_of(st.sampled_from((1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)),
                          st.integers(1, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("heavy", "uniform", "constant", "edges", "ulps")))
    if kind == "heavy":
        width = draw(st.floats(1.0, 690.0))
        return np.exp(rng.uniform(-width, width, size))
    if kind == "uniform":
        lo = draw(st.floats(-1e6, 1e6))
        return rng.uniform(lo, lo + draw(st.floats(1e-6, 1e6)), size)
    if kind == "edges":
        lo = draw(st.floats(-1e6, 1e6))
        edges = np.histogram_bin_edges([lo, lo + draw(st.floats(1e-3, 1e3))], 20)
        # both ends first, so that the values' range is the edges' own
        return np.concatenate([edges[[0, -1]], rng.choice(edges, size)])[:size]
    x = draw(st.one_of(st.sampled_from((0.0, 2.0 ** -1022)), st.floats(-1e300, 1e300)))
    if kind == "constant":
        return np.full(size, x)
    # a range of 1 to 40 ulps of x
    return x + rng.integers(0, draw(st.integers(1, 40)), size, endpoint=True) * np.spacing(x)


@settings(max_examples=150, deadline=None)
@given(values=_histogram_values())
# 29 ulps of zero: numpy's subnormal edges are uneven, and its counts
# follow its index formula, not those edges
@example(values=np.arange(1, 30) * 5e-324)
def test_histogram_equals_numpys(values):
    """The peeled histogram gives numpy's counts and edges over the
    values' own range, or numpy's ValueError for a range too narrow for
    20 distinct edges."""
    low, high = values.min(), values.max()
    try:
        want = np.histogram(values, 20, (low, high))
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            certify._histogram(values, low, high)
        assert str(got.value) == str(exc)
        return
    counts, edges = certify._histogram(values, low, high)
    assert counts.dtype == want[0].dtype and counts.tolist() == want[0].tolist()
    assert edges.tobytes() == want[1].tobytes()


def test_histogram_holds_one_chunk_at_a_time():
    """Over 1e6 uniform values, about 95 % of which survive the peel of
    the first bin, the histogram's peak is one chunk's temporaries: below
    2 MB, where a peel of the whole array would hold about 8 MB."""
    values = np.random.default_rng(0).random(1_000_000)
    certify._histogram(values[:10], 0.0, 1.0)
    tracemalloc.start()
    try:
        certify._histogram(values, float(values.min()), float(values.max()))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


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


def test_standard_scan_argmin_reproduces_minimum():
    report = certify.standard_scan(O3333, 6.0, 6.0, samples=2000, seed=2)
    v23, v24, v34 = report.argmin
    pt = charts.build_standard(O3333, 6.0, 6.0, v23, v24, v34)
    assert pt.a4_v44 == pytest.approx(report.min_a4_v44, rel=1e-9)


def test_standard_scan_rejects_empty():
    with pytest.raises(ValueError):
        certify.standard_scan(O3333, 6.0, 6.0, samples=0, seed=0)
