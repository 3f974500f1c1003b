import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_concurrent, random_general, random_standard
from projcox import cartan, charts
from projcox.cartan import (GENERATING_CYCLES, ReflectionSystem, cartan_of,
                            check_vinberg, cyclic_invariants,
                            derived_invariant_identities,
                            projectively_equivalent, relation_space_trivial)
from projcox.certify import is_convex_cocompact
from projcox.errors import InvariantViolation, UnsupportedShape
from projcox.orbifold import EdgeOrders, QuadPrismOrders

O3333 = QuadPrismOrders(3, 3, 3, 3)


def failed(report):
    """Names of the Vinberg conditions the report failed."""
    return [name for name, c in report.conditions.items() if not c.passed]


def concurrent_all_minus_one(orders=O3333):
    return charts.build_concurrent(
        charts.ConcurrentChartParams(orders, -1.0, -1.0, -1.0, -1.0))


def test_reflection_system_shape_checks():
    with pytest.raises(ValueError):
        ReflectionSystem(np.eye(4), np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        ReflectionSystem(np.eye(2), [[2.0, np.nan], [-1.0, 2.0]])


def _is_4x4_rows(m):
    """Whether m is a tuple of four 4-tuples of Python floats."""
    return (type(m) is tuple and len(m) == 4
            and all(type(row) is tuple and len(row) == 4 for row in m)
            and all(type(x) is float for row in m for x in row))


def test_reflection_system_stores_its_cartan_matrix_read_only():
    rng = np.random.default_rng(5)
    alphas, vectors = rng.standard_normal((2, 4, 4))
    sys = ReflectionSystem(alphas, vectors)
    assert _is_4x4_rows(sys.cartan)
    assert [list(row) for row in sys.cartan] == (alphas @ vectors.T).tolist()
    with pytest.raises(TypeError):
        sys.cartan[0][1] = 0.0
    concurrent = concurrent_all_minus_one()
    m = cartan_of(concurrent)
    assert _is_4x4_rows(m)
    assert [list(row) for row in m] == (concurrent.alphas @ concurrent.vectors.T).tolist()
    pt = charts.build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    realized = charts.realize_representation(pt, a4=1.0)
    assert _is_4x4_rows(pt.cartan)
    # rows 1-3 of [v] are those of M, so alpha_1..alpha_3 = e_i* read them back
    assert pt.cartan[:3] == realized.cartan[:3]
    assert [list(row) for row in realized.cartan] == (
        realized.alphas @ realized.vectors.T).tolist()


def test_cartan_of_concurrent_base_point():
    m = np.asarray(cartan_of(concurrent_all_minus_one()))
    # alpha_4 = e1* - e2* + e3* applied to the base-point vectors
    assert np.allclose(np.diag(m), 2.0)
    assert m[0, 2] == pytest.approx(-4.0)   # v23 + mu34/v34 - 2 = -1 - 1 - 2
    assert m[2, 0] == pytest.approx(-4.0)
    assert m[1, 3] == pytest.approx(-4.0)   # v14 + v34 - 2
    assert m[3, 1] == pytest.approx(-4.0)
    assert m[0, 2] * m[2, 0] == pytest.approx(16.0)
    assert m[1, 3] * m[3, 1] == pytest.approx(16.0)


def test_cartan_of_rejects_positive_off_diagonal():
    vmat = 2.0 * np.eye(3)
    vmat[0, 1] = 0.5
    vmat[1, 0] = -1.0
    vmat[0, 2] = vmat[2, 0] = vmat[1, 2] = vmat[2, 1] = -1.0
    with pytest.raises(InvariantViolation):
        cartan_of(ReflectionSystem(np.eye(3), vmat.T))


def test_cartan_of_rejects_broken_zero_symmetry():
    vmat = 2.0 * np.eye(3)
    vmat[0, 1] = 0.0
    vmat[1, 0] = -1.0
    vmat[0, 2] = vmat[2, 0] = vmat[1, 2] = vmat[2, 1] = -1.0
    with pytest.raises(InvariantViolation):
        cartan_of(ReflectionSystem(np.eye(3), vmat.T))


def test_check_vinberg_general_chart_passes():
    orders = QuadPrismOrders(3, 4, 5, 6)
    params = charts.GeneralChartParams(orders, 9.0, 5.0, -2.0, -0.5, -3.0)
    report = check_vinberg(charts.build_general(params), orders)
    assert report.passed
    for name in ("C1", "C2", "C3", "C4"):
        assert report.conditions[name].residual <= 1e-9


def test_check_vinberg_concurrent_chart_passes():
    report = check_vinberg(concurrent_all_minus_one(), O3333)
    assert report.passed


def test_check_vinberg_detects_wrong_order():
    # products tuned for orders (3,3,3,3) fail C4 against (4,3,3,3)
    wrong = QuadPrismOrders(4, 3, 3, 3)
    report = check_vinberg(concurrent_all_minus_one(), wrong)
    assert not report.passed
    assert failed(report) == ["C4"]
    assert (1, 2) in report.conditions["C4"].failures


@pytest.mark.parametrize("n", [3000, 5000, 10000])
def test_check_vinberg_passes_valid_points_at_large_orders(n):
    # C4's gated |p - mu(n)| stays at rounding level (p <= 4) whatever n;
    # divided by 4 - mu(n) (about 4pi^2/n^2) it would reach 2.5e-8 at
    # n = 10000 and fail most of these points at the default 1e-9
    orders = QuadPrismOrders(n, n, n, n)
    rng = np.random.default_rng(n)
    for _ in range(50):
        for sys in (charts.build_general(random_general(rng, orders)),
                    charts.build_concurrent(random_concurrent(rng, orders))):
            report = check_vinberg(sys, orders)
            assert report.passed, failed(report)


def test_check_vinberg_order_two_needs_both_entries_zero():
    # product 1e-10 is within 1e-9 of mu(2) = 0, yet R_1 R_2 is not of
    # order 2 unless the block [[p - 1, M_12], [-M_21, -1]] is -Id
    m = np.array([[2.0, -1e-5], [-1e-5, 2.0]])
    report = check_vinberg(ReflectionSystem(np.eye(2), m.T),
                           EdgeOrders(2, {(1, 2): 2}))
    assert failed(report) == ["C4"]
    assert report.conditions["C4"].residual == 1e-5


def test_zero_symmetry_reads_the_gauge_invariant_product():
    # M_23 = v23 = -1e10 and M_32 = mu23 / v23 = -1e-10: both entries are
    # nonzero and their product is mu23, whatever the diagonal gauge
    sys = charts.build_general(
        charts.GeneralChartParams(O3333, 6.0, 6.0, -1e10, -1.0, -1.0))
    report = check_vinberg(sys, O3333)
    assert report.passed, failed(report)
    cartan_of(sys)


def test_check_vinberg_detects_sign_flip():
    rng = np.random.default_rng(7)
    params = random_general(rng)
    sys = charts.build_general(params)
    vmat = sys.vectors.T.copy()
    vmat[1, 2] = -vmat[1, 2]
    report = check_vinberg(ReflectionSystem(np.eye(4), vmat.T),
                           params.orders)
    assert not report.passed
    assert "C2" in failed(report)


def test_relation_space_trivial_independent():
    assert relation_space_trivial(np.eye(4))
    # three independent covectors in R^4: no relation at all
    assert relation_space_trivial(np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0],
                                            [0, -1.0, 2.0, 0.5]]))


def test_relation_space_mixed_signs_pass():
    # alpha_4 = e1* - e2* + e3*: relation (1, -1, 1, -1) has both signs
    alphas = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0],
                       [1.0, -1.0, 1.0, 0]])
    assert relation_space_trivial(alphas)


def test_relation_space_one_signed_fails():
    # alpha_4 = -(e1* + e2* + e3*): the relation is single-signed
    alphas = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0],
                       [-1.0, -1.0, -1.0, 0]])
    assert not relation_space_trivial(alphas)


def test_relation_space_high_dimension_unsupported():
    alphas = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(UnsupportedShape):
        relation_space_trivial(alphas)
    # check_vinberg reports such a system as failing C5, without raising
    vectors = np.array([[2.0, 0, 0, 0], [2.0, 0, 0, 0], [1.0, 0, 0, 0]])
    orders = EdgeOrders(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3})
    report = check_vinberg(ReflectionSystem(alphas, vectors), orders)
    assert not report.conditions["C5"].passed


def test_cycle_value_by_hand():
    inv = cyclic_invariants(np.arange(1.0, 17.0).reshape(4, 4))
    assert inv[(1, 3)] == 3.0 * 9.0
    assert inv[(1, 2, 3)] == 2.0 * 7.0 * 9.0
    assert inv[(1, 4, 3, 2)] == 4.0 * 15.0 * 10.0 * 5.0


def test_cyclic_invariants_count_and_orientation():
    m = np.arange(1.0, 17.0).reshape(4, 4)
    inv = cyclic_invariants(m)
    assert len(inv) == 6 + 8 + 6
    assert inv[(1, 2, 3)] != inv[(1, 3, 2)]


def test_invariants_base_point_values():
    m = cartan_of(concurrent_all_minus_one())
    inv = cyclic_invariants(m)
    assert inv[(1, 3)] == pytest.approx(16.0)
    assert inv[(2, 4)] == pytest.approx(16.0)
    # M12 M23 M31 = (-1)(-1)(-4) = -4
    assert inv[(1, 2, 3)] == pytest.approx(-4.0)


def test_identities_on_base_point():
    m = cartan_of(concurrent_all_minus_one())
    report = derived_invariant_identities(cyclic_invariants(m), O3333)
    assert report.passed
    assert max(report.residuals.values()) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_identities_on_random_standard_points(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng)
    m = pt.cartan
    report = derived_invariant_identities(cyclic_invariants(m), pt.orders)
    assert report.passed, report.residuals


def test_identities_detect_perturbation():
    m = np.array(cartan_of(concurrent_all_minus_one()))
    m[1, 2] *= 1.0 + 1e-3
    report = derived_invariant_identities(cyclic_invariants(m), O3333)
    assert not report.passed


def test_projectively_equivalent_reflexive():
    m = cartan_of(concurrent_all_minus_one())
    assert projectively_equivalent(m, m)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_diagonal_conjugation_is_equivalence(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng)
    m = pt.cartan
    d = np.exp(rng.uniform(-1.0, 1.0, 4))
    conj = m * np.outer(d, 1.0 / d)
    assert projectively_equivalent(m, conj)


def test_distinct_points_not_equivalent():
    orders = QuadPrismOrders(3, 3, 3, 3)
    a = charts.build_standard(orders, 6.0, 6.0, -1.0, -1.0, -1.0)
    b = charts.build_standard(orders, 6.0, 6.0, -1.5, -1.0, -1.0)
    assert not projectively_equivalent(a.cartan, b.cartan)


def test_generating_cycles_cover_the_two_infinite_edges():
    assert (1, 3) in GENERATING_CYCLES
    assert (2, 4) in GENERATING_CYCLES
    assert len(GENERATING_CYCLES) == 5


def _numpy_cycle_product(m, cycle):
    """Reference: the cyclic product over numpy scalars, left to right
    from 1.0."""
    value = np.float64(1.0)
    k = len(cycle)
    with np.errstate(over="ignore", under="ignore"):
        for t in range(k):
            value = value * m[cycle[t] - 1, cycle[(t + 1) % k] - 1]
    return float(value)


#: entries of both signs with magnitudes from 1e-150 to 1e150, so that
#: products of four overflow to inf and underflow to subnormals and 0
WIDE_ENTRIES = st.builds(lambda sign, e: sign * 10.0 ** e,
                         st.sampled_from((-1.0, 1.0)), st.floats(-150.0, 150.0))


@settings(max_examples=200, deadline=None)
@given(entries=st.lists(WIDE_ENTRIES, min_size=16, max_size=16))
def test_invariants_equal_numpy_scalar_products(entries):
    m = np.array(entries).reshape(4, 4)
    rows = tuple(map(tuple, m.tolist()))
    for given_m in (m, rows):
        inv = cyclic_invariants(given_m)
        assert len(inv) == 20
        for cycle, value in inv.items():
            assert type(value) is float
            assert value.hex() == _numpy_cycle_product(m, cycle).hex()


def _all_invariants_agree(m1, m2, tol=1e-9):
    inv1, inv2 = cyclic_invariants(m1), cyclic_invariants(m2)
    return all(abs(inv1[c] - inv2[c]) / (1.0 + abs(inv1[c]) + abs(inv2[c])) <= tol
               for c in inv1)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000),
       coordinate=st.sampled_from(("t13", "t24", "v23", "v24", "v34")))
def test_projective_equivalence_agrees_with_all_invariants(seed, coordinate):
    """The five generators decide what all twenty invariants decide, on
    diagonal conjugates and on a coordinate moved by a relative 1e-6."""
    rng = np.random.default_rng(seed)
    params = random_general(rng)
    moved = dataclasses.replace(
        params, **{coordinate: getattr(params, coordinate) * (1.0 + 1e-6)})
    m = cartan_of(charts.build_general(params))
    d = np.exp(rng.uniform(-1.0, 1.0, 4))
    for other in (m, m * np.outer(d, 1.0 / d)):
        assert projectively_equivalent(m, other)
        assert _all_invariants_agree(m, other)
    m_moved = cartan_of(charts.build_general(moved)) * np.outer(d, 1.0 / d)
    assert not projectively_equivalent(m, m_moved)
    assert not _all_invariants_agree(m, m_moved)


def test_invariants_need_a_4x4_matrix():
    m3 = np.full((3, 3), -1.0) + 3.0 * np.eye(3)
    m4 = cartan_of(concurrent_all_minus_one())
    for m in (m3, tuple(map(tuple, m3.tolist()))):
        with pytest.raises(UnsupportedShape):
            cyclic_invariants(m)
        with pytest.raises(UnsupportedShape):
            projectively_equivalent(m, m4)
        with pytest.raises(UnsupportedShape):
            projectively_equivalent(m4, m)
        with pytest.raises(UnsupportedShape, match="4x4"):
            is_convex_cocompact(m, O3333)
        with pytest.raises(UnsupportedShape, match="4x4"):
            charts.standard_coordinates(m)
