import hashlib
import math
import pickle
import random
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import GAMMA_5, exact_kernel, random_concurrent, random_general, random_standard
from projcox import cartan, charts, linalg, orbifold
from projcox.cartan import (GENERATING_CYCLES, ReflectionSystem, cartan_of,
                            check_vinberg, cyclic_invariants,
                            derived_invariant_identities,
                            projectively_equivalent)
from projcox.certify import is_convex_cocompact, verify_relations
from projcox.errors import DomainError, InvariantViolation, ProjCoxError, UnsupportedShape
from projcox.orbifold import EdgeOrders, QuadPrismOrders

O3333 = QuadPrismOrders(3, 3, 3, 3)


def failed(report):
    """Names of the Vinberg conditions the report failed."""
    return [c.name for c in report if not c.passed]


def condition(report, name):
    """The report's Check of the Vinberg condition called name."""
    return next(c for c in report if c.name == name)


def concurrent_all_minus_one(orders=O3333):
    return charts.build_concurrent(
        charts.ConcurrentChartParams(orders, -1.0, -1.0, -1.0, -1.0))


def test_reflection_system_shape_checks():
    with pytest.raises(ValueError):
        ReflectionSystem(np.eye(4), np.eye(3))
    with pytest.raises(ValueError, match="finite"):
        ReflectionSystem(np.eye(2), [[2.0, np.nan], [-1.0, 2.0]])
    # the known form would read a4 = nan or inf as nonzero
    for x in (math.nan, math.inf):
        for fourth in ((0.0, 0.0, -1.0, x), (x, -1.0, -1.0, 0.0)):
            with pytest.raises(DomainError, match="alpha, vector and Cartan entries must be"):
                ReflectionSystem((*charts._UNIT_COVECTORS, fourth), np.zeros((4, 4)))


def test_a_given_cartan_matrix_must_be_f_by_f():
    for bad in (np.ones((3, 2)), np.ones((2, 3)), np.ones((3, 3))):
        with pytest.raises(UnsupportedShape, match="2 reflections must be 2x2"):
            ReflectionSystem(np.eye(2), np.eye(2), bad)


def test_sign_failures_are_read_at_construction():
    """A plain attribute, read-only, as known_form: no first-access cost."""
    rows = ((2.0, 5e-4, -1.0), (-1.0, 2.0, 0.0), (-1.0, -1.0, 2.0))
    sys = ReflectionSystem(np.eye(3), np.transpose(rows))
    assert vars(sys)["sign_failures"] == cartan._sign_failures(rows, linalg.TOL_ALGEBRAIC)
    assert sys.sign_failures == ([], [(1, 2)], [(2, 3)])
    with pytest.raises(AttributeError):
        sys.sign_failures = ([], [], [])


def _is_4x4_rows(m):
    """Whether m is linalg.Rows of four 4-tuples of Python floats."""
    return (type(m) is linalg.Rows and len(m) == 4
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
    orders, coords = QuadPrismOrders(3, 4, 5, 6), (-1.3, -0.7, -2.1, -0.4)
    concurrent = charts.build_concurrent(charts.ConcurrentChartParams(orders, *coords))
    m = cartan_of(concurrent)
    assert _is_4x4_rows(m)
    # the system keeps the closed-form rows; its alphas and vectors
    # multiply back to rows 1-3 exactly and to row 4, M1j - M2j + M3j,
    # within the rounding bound of its three terms
    assert m == charts.concurrent_cartan(orders, *coords)
    product, rows = concurrent.alphas @ concurrent.vectors.T, np.array(m)
    assert np.array_equal(product[:3], rows[:3])
    bound = GAMMA_5 * np.abs(rows[:3]).sum(axis=0)
    assert (np.abs(product[3] - rows[3]) <= bound).all()
    pt = charts.build_standard(O3333, 6.0, 6.0, -1.0, -1.0, -1.0)
    realized = charts.realize_representation(pt, a4=1.0)
    assert _is_4x4_rows(pt.cartan)
    # the realized system keeps the chart's rows; its alphas and vectors
    # multiply back to them within 1e-9 (1 + max|row 4|)
    assert realized.cartan is pt.cartan
    bound = 1e-9 * (1.0 + max(map(abs, pt.cartan[3])))
    assert np.abs(realized.alphas @ realized.vectors.T - np.array(pt.cartan)).max() <= bound


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


def test_cartan_of_rejects_a_diagonal_entry_off_two():
    vmat = np.full((3, 3), -1.0) + 3.0 * np.eye(3)
    vmat[1, 1] = 2.5
    with pytest.raises(InvariantViolation, match="diagonal entries must equal 2"):
        cartan_of(ReflectionSystem(np.eye(3), vmat.T))


def test_check_vinberg_rejects_an_orders_table_of_another_size():
    vmat = np.full((3, 3), -1.0) + 3.0 * np.eye(3)
    with pytest.raises(ValueError, match="orders table has 4 sides, system has 3"):
        check_vinberg(ReflectionSystem(np.eye(3), vmat.T), O3333)


def test_system_is_unequal_to_what_is_not_a_system():
    sys = concurrent_all_minus_one()
    assert sys.__eq__(sys.cartan) is NotImplemented
    assert sys != sys.cartan and sys != "system"
    assert sys == concurrent_all_minus_one()


def test_check_vinberg_general_chart_passes():
    orders = QuadPrismOrders(3, 4, 5, 6)
    params = charts.GeneralChartParams(orders, 9.0, 5.0, -2.0, -0.5, -3.0)
    report = check_vinberg(charts.build_general(params), orders)
    assert report.passed
    for name in ("C1", "C2", "C3", "C4"):
        assert condition(report, name).value <= 1e-9


def test_check_vinberg_concurrent_chart_passes():
    report = check_vinberg(concurrent_all_minus_one(), O3333)
    assert report.passed


def test_check_vinberg_detects_wrong_order():
    # products tuned for orders (3,3,3,3) fail C4 against (4,3,3,3)
    wrong = QuadPrismOrders(4, 3, 3, 3)
    report = check_vinberg(concurrent_all_minus_one(), wrong)
    assert not report.passed
    assert failed(report) == ["C4"]
    assert (1, 2) in condition(report, "C4").where


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
    assert condition(report, "C4").value == 1e-5


def test_a_failing_c4_reports_its_worst_failing_pair():
    """Pair (1,2) is off mu(3) by 1e-8 and fails; pair (1,3), at order
    10^6, is off its product by 5e-5 of 4 - mu and passes, as that
    order's rounding bound is about 9e-5.  C4's value and bound are the
    failing pair's, not those of the passing pair with the larger
    residual, so value > bound."""
    big = 10**6
    mu3, mu_big = orbifold.mu(3), orbifold.mu(big)
    rows = ((2.0, -1.0, -1.0), (-(mu3 + 1e-8), 2.0, 0.0),
            (-(mu_big + 5e-5 * (4.0 - mu_big)), 0.0, 2.0))
    orders = EdgeOrders(3, {(1, 2): 3, (1, 3): big, (2, 3): 2})
    c4 = condition(check_vinberg(ReflectionSystem(np.eye(3), np.transpose(rows)), orders), "C4")
    pairs = {pair: (r, bound, passed) for pair, _, _, r, bound, passed
             in cartan._pair_checks(rows, orders, linalg.TOL_ALGEBRAIC)}
    assert not pairs[(1, 2)][2] and pairs[(1, 3)][2]
    assert pairs[(1, 3)][0] > pairs[(1, 2)][0]
    assert (c4.where, c4.value, c4.bound, c4.passed) == (((1, 2),), *pairs[(1, 2)])
    assert c4.value == pytest.approx(1e-8 / 3.0, rel=1e-6)
    assert c4.value > c4.bound == pytest.approx(1e-9)


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


def _c5(alphas):
    """C5 on a system with these covectors: the known-form kernel's
    decision, or UnsupportedShape for covectors of no known form, where
    check_vinberg's C5 fails; check_vinberg's C5 is asserted to agree."""
    sys = ReflectionSystem(alphas, np.zeros(np.shape(alphas)))
    form = sys.known_form
    decision = (UnsupportedShape if form is None
                else cartan._relation_space_trivial(sys.alpha_rows, form))
    f = len(sys.cartan)
    if f >= 2:
        orders = EdgeOrders(f, dict.fromkeys(combinations(range(1, f + 1), 2), 3))
        assert condition(check_vinberg(sys, orders), "C5").passed == (decision is True)
    return decision


def test_known_forms_in_any_row_order():
    """A dual basis in any order, and three distinct unit covectors
    (zeros of either sign) beside any fourth covector, in any order,
    are known forms; a repeated unit covector is the other one."""
    rows = tuple(map(tuple, np.eye(4).tolist()))
    for perm in ((0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)):
        moved = tuple(rows[i] for i in perm)
        assert cartan._known_form(moved) == (perm[3], 3)
        assert _c5(moved) is True
    signed = ((-0.0, 0.0, 1.0, -0.0), (-2.0, -0.0, -3.0, 0.0),
              (1.0, -0.0, 0.0, 0.0), (0.0, -0.0, -0.0, 1.0))
    assert cartan._known_form(signed) == (1, 1)
    assert _c5(signed) is False
    repeated = (rows[0], rows[1], rows[0], rows[3])
    assert cartan._known_form(repeated) == (2, 2)
    assert _c5(repeated) is True   # e1* - e1* = 0 has both signs


def test_covectors_of_no_known_form_are_unsupported():
    """Fewer covectors than coordinates (twice), two covectors beside
    the distinct unit ones (twice, once a repeated unit), and none."""
    for alphas in (np.eye(4)[:3],                               # 3 in R^4
                   np.array([[1.0, 0, 0, 0], [1.0, 1.0, 0, 0],
                             [0, -1.0, 2.0, 0.5], [0, 0, 1.0, 0]]),
                   np.array([[1.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
                   np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]).T):  # 2 in R^3
        assert _c5(alphas) is UnsupportedShape
    # no covectors at all are of no known form, and make no system
    assert cartan._known_form(()) is None
    with pytest.raises(UnsupportedShape):
        ReflectionSystem(np.zeros((0, 0)), np.zeros((0, 0)))


def test_relation_space_mixed_signs_pass():
    # alpha_4 = e1* - e2* + e3*: relation (1, -1, 1, -1) has both signs
    alphas = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0],
                       [1.0, -1.0, 1.0, 0]])
    assert _c5(alphas) is True


def test_relation_space_one_signed_fails():
    # alpha_4 = -(e1* + e2* + e3*): the relation is single-signed
    alphas = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0],
                       [-1.0, -1.0, -1.0, 0]])
    assert _c5(alphas) is False


def test_relation_space_high_dimension_unsupported():
    alphas = np.array([[1.0, 0, 0, 0], [1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    assert _c5(alphas) is UnsupportedShape   # and check_vinberg's C5 fails, unraised


_ZERO = st.sampled_from((0.0, -0.0))
_ENTRY = st.one_of(_ZERO, st.floats(1e-9, 1e9).flatmap(lambda x: st.sampled_from((x, -x))))
_WIDE_ENTRY = st.one_of(_ZERO, st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from((x, -x))))


@st.composite
def _covectors(draw):
    """4x4 alphas with entries of either sign in [1e-9, 1e9] or zeros of
    either sign: half of them with first rows e1*, e2*, e3*, and half
    with a zero last column, so of rank 3 or less, as the standard
    chart's alphas at a4 = 0."""
    rows = draw(st.lists(st.lists(_ENTRY, min_size=4, max_size=4), min_size=4, max_size=4))
    if draw(st.booleans()):
        rows[:3] = [[1.0 if i == j else draw(_ZERO) for j in range(4)] for i in range(3)]
    if draw(st.booleans()):
        rows = [row[:3] + [draw(_ZERO)] for row in rows]
    return tuple(map(tuple, rows))


@settings(max_examples=300, deadline=None)
@given(rows=_covectors(), form=st.sampled_from((tuple, list, np.array)))
def test_verdict_depends_on_neither_input_form_nor_zero_sign(rows, form):
    """The verdict on rows given as tuples, lists or an ndarray is the
    one on the tuples, and so is the verdict on the rows with the sign
    of every zero flipped."""
    alphas = rows if form is tuple else form([form(row) for row in rows])
    expected = _c5(rows)
    assert _c5(alphas) == expected
    flipped = tuple(tuple(x if x else -x for x in row) for row in rows)
    assert _c5(flipped) == expected


def _exact_c5(alphas):
    """C5 decided exactly on the given doubles: the Fraction kernel of
    alphas^T is {0}, or one relation with coefficients of both signs."""
    kernel = exact_kernel(list(zip(*alphas)))
    if not kernel:
        return True
    if len(kernel) > 1:
        return UnsupportedShape
    return min(kernel[0]) < 0 < max(kernel[0])


@settings(max_examples=500, deadline=None)
@given(fourth=st.lists(_WIDE_ENTRY, min_size=4, max_size=4),
       zeros=st.lists(_ZERO, min_size=9, max_size=9),
       units=st.permutations(range(4)), order=st.permutations(range(4)))
def test_standard_form_c5_is_the_exact_decision(fourth, zeros, units, order):
    """Three distinct unit covectors (zeros of either sign) and a fourth
    of entries in +-[1e-300, 1e300], each a signed zero half the time,
    the four rows in any order: C5 is the exact decision on the same
    doubles, where a fixed cut of 1e-8 of the largest relation
    coefficient once read smaller ones as zero."""
    zeros = iter(zeros)
    rows = [tuple(1.0 if i == k else next(zeros) for i in range(4)) for k in units[:3]]
    rows.append(tuple(fourth))
    alphas = tuple(rows[i] for i in order)
    assert _c5(alphas) == _exact_c5(alphas)


def _concurrent_point_in_the_standard_chart(orders, v):
    """A concurrent point mapped to the standard chart and realized at
    a4 = 0, where its a4*v44 is 0.0."""
    pt = charts.concurrent_to_standard(charts.ConcurrentChartParams(orders, *v))
    return pt, charts.realize_representation(pt, a4=0.0)


def test_c5_passes_a_standard_point_with_large_a():
    # a2 and a3 reach 1.3e8: read by an unscaled numeric rank, the unit
    # covectors' pivots fell under 1e-8 of the first and the relation
    # space read as 2-D
    orders = QuadPrismOrders(5, 3, 3, 5)
    v = (-1.8736073673332666e-4, -1.5549663298848966, -9322.35854410505,
         -3.705378681633734e-4)
    pt, sys = _concurrent_point_in_the_standard_chart(orders, v)
    assert min(pt.a2, -pt.a3) < -1e8
    assert sys.alpha_rows[3][3] == 0.0
    report = check_vinberg(sys, orders)
    assert report.passed, failed(report)


def test_concurrent_points_pass_vinberg_in_the_standard_chart():
    """Each realizes at a4 = 0 and, semisimple in its own chart
    (v44 = 0), is semisimple there too.  With unscaled ranks 273 of the
    points read as not; with a4*v44 solved rather than 0.0, 56 could not
    be realized at a4 = 0."""
    rng = np.random.default_rng(0)
    for _ in range(3000):
        orders = QuadPrismOrders(*map(int, rng.integers(3, 7, 4)))
        v = -np.exp(rng.uniform(math.log(1e-4), math.log(1e4), 4))
        _, sys = _concurrent_point_in_the_standard_chart(orders, v.tolist())
        report = check_vinberg(sys, orders)
        assert report.passed, (orders, v.tolist(), failed(report))
        assert charts.is_semisimple(sys), (orders, v.tolist())


def _reference_sign_failures(rows, tol):
    """C1-C3 failures entry by entry, one condition at a time, each list
    in row-major order."""
    f = len(rows)
    c1 = [(i + 1, i + 1) for i in range(f) if abs(rows[i][i] - 2.0) > tol]
    c2 = [(i + 1, j + 1) for i in range(f) for j in range(f)
          if i != j and rows[i][j] > tol]
    c3 = [(i + 1, j + 1) for i in range(f) for j in range(i + 1, f)
          if (abs(rows[i][j]) <= tol) != (abs(rows[j][i]) <= tol)
          and not abs(rows[i][j] * rows[j][i]) > tol]
    return c1, c2, c3


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(st.sampled_from((-3.0, -2.0, -1.0, -1e-3, -1e-9, -0.0, 0.0, 1e-9,
                                         1e-3, 1.0, 2.0, 2.5, 3.0)), min_size=16, max_size=16),
       tol=st.sampled_from((-1.0, 0.0, 1e-9, 1e-3, 1.5, 2.0, 2.5, 5.0, math.nan)))
def test_sign_failures_equal_the_entrywise_reference(entries, tol):
    rows = tuple(tuple(entries[4 * i:4 * i + 4]) for i in range(4))
    assert cartan._sign_failures(rows, tol) == _reference_sign_failures(rows, tol)


def test_shared_sign_check_keeps_each_tolerance():
    # M_12 = +5e-4 passes C2 at tol 1e-3 and fails it at the default
    rows = ((2.0, 5e-4, -1.0), (-1.0, 2.0, -1.0), (-1.0, -1.0, 2.0))
    orders = EdgeOrders(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3})
    for tols in ((1e-3, linalg.TOL_ALGEBRAIC), (linalg.TOL_ALGEBRAIC, 1e-3)):
        sys = ReflectionSystem(np.eye(3), np.transpose(rows))
        for tol in tols:
            c2 = condition(check_vinberg(sys, orders, tol=tol), "C2")
            assert c2.passed == (tol == 1e-3)
            assert c2.where == (() if c2.passed else ((1, 2),))
            with pytest.raises(InvariantViolation, match="<= 0"):
                cartan_of(sys)
    # the stored result is not part of the value
    fresh = ReflectionSystem(np.eye(3), np.transpose(rows))
    for other in (sys, pickle.loads(pickle.dumps(sys)), pickle.loads(pickle.dumps(fresh))):
        assert other == fresh
        assert repr(other) == repr(fresh)
        assert condition(check_vinberg(other, orders, tol=1e-3), "C2").passed
        assert not condition(check_vinberg(other, orders), "C2").passed


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_library_tol_must_be_finite_and_nonnegative(tol):
    """check_vinberg, verify_relations and derived_invariant_identities
    refuse a tol that is not finite and >= 0 before any other check: at
    tol NaN, C1 would pass M_11 = 5 and verify_relations would not read
    C1 at all.  0 and 1e300 are accepted."""
    sys = ReflectionSystem([[1.0, 0.0], [0.0, 1.0]], [[5.0, -1.0], [-1.0, 2.0]])
    pair = EdgeOrders(2, {(1, 2): 3})
    inv = cyclic_invariants(cartan_of(concurrent_all_minus_one()))
    for call in (lambda t: check_vinberg(sys, pair, t),
                 lambda t: verify_relations(sys, pair, t),
                 lambda t: derived_invariant_identities(inv, pair, t)):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            call(tol)
    for ok in (0.0, 1e300):
        assert condition(check_vinberg(sys, pair, ok), "C1").passed is (ok == 1e300)
        with pytest.raises(InvariantViolation, match="diagonal"):
            verify_relations(sys, pair, ok)
        with pytest.raises(UnsupportedShape):
            derived_invariant_identities(inv, pair, ok)
        assert derived_invariant_identities(inv, O3333, ok).passed


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
    assert max(c.value for c in report) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_identities_on_random_standard_points(seed):
    rng = np.random.default_rng(seed)
    pt = random_standard(rng)
    m = pt.cartan
    report = derived_invariant_identities(cyclic_invariants(m), pt.orders)
    assert report.passed, report


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


#: entries at the edges of the doubles: signed zeros, subnormals,
#: infinities, NaN, magnitudes near 1e+-300, and moderate values
EDGE_ENTRIES = st.one_of(
    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, -math.inf, math.nan,
                     1e300, -1e300, 1e-300, -1e-300, 2.0, -1.0)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from((-1.0, 1.0)),
              st.floats(-310.0, 308.0)))


def _prod_hex(m, cycle):
    """math.prod of a cycle's entries, from 1.0, as a hex string; every
    NaN reads the same."""
    value = math.prod((m[i - 1][j - 1] for i, j in zip(cycle, cycle[1:] + cycle[:1])),
                      start=1.0)
    return "nan" if math.isnan(value) else value.hex()


def _generator_verdict(m1, m2):
    """projectively_equivalent's verdict as the generators' math.prod gives it."""
    for c in GENERATING_CYCLES:
        x, y = (math.prod((m[i - 1][j - 1] for i, j in zip(c, c[1:] + c[:1])), start=1.0)
                for m in (m1, m2))
        if not abs(x - y) / (1.0 + abs(x) + abs(y)) <= linalg.TOL_ALGEBRAIC:
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(entries=st.lists(EDGE_ENTRIES, min_size=32, max_size=32),
       d=st.lists(st.floats(-3.0, 3.0).map(math.exp), min_size=4, max_size=4))
def test_invariants_are_the_products_of_math_prod_bit_for_bit(entries, d):
    """Each of the 20 invariants, written out, has the bits of math.prod
    over its cycle from 1.0, on plain rows and on Rows alike, and the
    equivalence verdict is the generators' under math.prod: against the
    matrix itself, a positive diagonal conjugate of it, and another."""
    m = tuple(tuple(entries[4 * i:4 * i + 4]) for i in range(4))
    other = tuple(tuple(entries[16 + 4 * i:20 + 4 * i]) for i in range(4))
    conj = tuple(tuple(m[i][j] * (d[i] / d[j]) for j in range(4)) for i in range(4))
    for rows in (m, linalg.Rows.of(m)):
        inv = cyclic_invariants(rows)
        assert len(inv) == 20
        for cycle, value in inv.items():
            assert type(value) is float
            assert ("nan" if math.isnan(value) else value.hex()) == _prod_hex(m, cycle)
        for m2 in (m, conj, other):
            assert projectively_equivalent(rows, m2) is _generator_verdict(m, m2)


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
    moved = params._replace(**{coordinate: getattr(params, coordinate) * (1.0 + 1e-6)})
    m = cartan_of(charts.build_general(params))
    d = np.exp(rng.uniform(-1.0, 1.0, 4))
    for other in (m, m * np.outer(d, 1.0 / d)):
        assert projectively_equivalent(m, other)
        assert _all_invariants_agree(m, other)
    m_moved = cartan_of(charts.build_general(moved)) * np.outer(d, 1.0 / d)
    assert not projectively_equivalent(m, m_moved)
    assert not _all_invariants_agree(m, m_moved)


def test_ragged_matrix_is_an_unsupported_shape():
    ragged = ((2.0, -1.0, 0.0, 0.0), (1.0,), (0, 0, 2, 0), (0, 0, 0, 2))
    with pytest.raises(UnsupportedShape):
        cyclic_invariants(ragged)
    with pytest.raises(UnsupportedShape):
        projectively_equivalent(ragged, cartan_of(concurrent_all_minus_one()))
    # a raw (alphas, vectors) system is read through the same converter,
    # which refuses a 1-D input as well
    with pytest.raises(UnsupportedShape):
        ReflectionSystem(ragged, np.eye(4))
    with pytest.raises(UnsupportedShape):
        ReflectionSystem([1.0, 0.0], [2.0, 0.0])
    # text is refused, not read character by character
    with pytest.raises(UnsupportedShape):
        linalg._rows(['12', '34'])
    with pytest.raises(UnsupportedShape):
        cyclic_invariants(['1234'] * 4)
    with pytest.raises(UnsupportedShape):
        linalg._rows([[1.0, '2'], [b'3', 4.0]])
    # the library's own rows pass through unconverted
    rows = cartan_of(concurrent_all_minus_one())
    assert linalg._rows(rows) is rows
    assert linalg._rows(np.array(rows), (4, 4)) == rows


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


def test_invariants_refuse_a_simplex_systems_5x5_rows():
    orders = EdgeOrders(5, {(i, j): 3 for i in range(1, 6) for j in range(i + 1, 6)})
    free = {pair: -1.0 for pair in charts._simplex_free_pairs(orders)}
    m = cartan_of(charts.build_simplex(charts.SimplexChartParams(4, orders, free)))
    assert type(m) is linalg.Rows and len(m) == 5
    with pytest.raises(UnsupportedShape, match="4x4"):
        cyclic_invariants(m)
    with pytest.raises(UnsupportedShape, match="4x4"):
        projectively_equivalent(m, m)


def test_a_three_argument_system_holds_only_checked_rows(monkeypatch):
    """Rows given as lists, ints or floats of other types are read by
    linalg._rows, each once, before the system holds them as Rows; what
    the reading refuses raises UnsupportedShape."""
    given = ([[1, 0], [0, 1]], ((2, -1), (-1, 2)),
             tuple(tuple(map(np.float32, row)) for row in ((2.0, -1.0), (-1.0, 2.0))))
    scans = []
    monkeypatch.setattr(linalg, "chain", lambda *rows: scans.append(rows) or chain(*rows))
    sys = ReflectionSystem(*given)
    assert scans == [tuple(rows) for rows in given]
    for held, rows in zip((sys.alpha_rows, sys.vector_rows, sys.cartan), given):
        assert type(held) is linalg.Rows
        assert all(type(row) is tuple and type(x) is float for row in held for x in row)
        assert held == tuple(map(tuple, rows))
    floats = ((2.0, np.float64(-1.0)), (-1.0, 2.0))
    assert set(map(type, ReflectionSystem(floats, floats, floats).cartan[0])) == {float}
    for bad in ([[2.0, -1.0], [-1.0]], ["20", "02"], [[2.0, "-1"], [-1.0, 2.0]]):
        with pytest.raises(UnsupportedShape):
            ReflectionSystem(given[0], given[1], bad)


def _pinned_points():
    """(system, orders) pairs over the scalar path: 20 points per chart
    at orders 3-6, mutated general points (a sign flip, T13 dropped to
    3.9), a T13 = 4 point and points at orders 1000.  Coordinates come
    from random.Random, rounded to 6 digits, so the set is fixed."""
    rng = random.Random(2025)

    def neg():
        return -round(math.exp(rng.uniform(-2.0, 2.0)), 6)

    def t():
        return round(4.0 + math.exp(rng.uniform(-2.0, 2.0)), 6)

    def small():
        return QuadPrismOrders(*(rng.choice((3, 4, 5, 6)) for _ in range(4)))

    points = []
    for _ in range(20):
        o = small()
        points.append((charts.build_general(
            charts.GeneralChartParams(o, t(), t(), neg(), neg(), neg())), o))
        o = small()
        points.append((charts.build_concurrent(charts.ConcurrentChartParams(
            o, neg(), neg(), neg(), neg(), round(rng.uniform(-1.0, 1.0), 6))), o))
        o = small()
        pt = charts.build_standard(o, t(), t(), neg(), neg(), neg())
        points.append((charts.realize_representation(
            pt, a4=max(math.sqrt(abs(pt.a4_v44)), 1e-6)), o))
    for flip in ((0, 1), (1, 3), (3, 2), None, None, None):
        o = small()
        vmat = [list(row) for row in charts.build_general(
            charts.GeneralChartParams(o, t(), t(), neg(), neg(), neg())).cartan]
        if flip:
            vmat[flip[0]][flip[1]] *= -1.0
        else:
            vmat[0][2] = -3.9
        points.append((ReflectionSystem(np.eye(4), np.array(vmat).T), o))
    o = small()
    points.append((charts.build_general(
        charts.GeneralChartParams(o, 4.0, t(), neg(), neg(), neg())), o))
    o = QuadPrismOrders(1000, 1000, 1000, 1000)
    points.append((charts.build_general(
        charts.GeneralChartParams(o, t(), t(), neg(), neg(), neg())), o))
    points.append((charts.build_concurrent(
        charts.ConcurrentChartParams(o, neg(), neg(), neg(), neg())), o))
    return points, rng


def _values(report):
    """The verdict, then (name, place, value, bound, passed) for each of
    its checks, sorted, with values and bounds as float.hex; a Vinberg
    condition's place is the tuple of pairs that failed it."""
    return report.passed, sorted((c.name, c.where, float(c.value).hex(), float(c.bound).hex(),
                                  c.passed) for c in report)


def _scalar_path_digest():
    points, rng = _pinned_points()
    parts = []
    previous = None
    for sys, o in points:
        parts.append(repr(_values(check_vinberg(sys, o))))
        parts.append(repr(_values(check_vinberg(sys, o, tol=1e-6))))
        parts.append(repr(_values(verify_relations(sys, o))))
        try:
            m = cartan_of(sys)
        except ProjCoxError as exc:
            parts.append(f"{type(exc).__name__}: {exc}")
            continue
        parts.append(repr(is_convex_cocompact(m, o)))
        inv = cyclic_invariants(m)
        parts.append(repr([(c, x.hex()) for c, x in inv.items()]))
        parts.append(repr(_values(derived_invariant_identities(inv, o))))
        d = [math.exp(rng.uniform(-1.0, 1.0)) for _ in range(4)]
        conj = tuple(tuple(x * (d[i] / d[j]) for j, x in enumerate(row))
                     for i, row in enumerate(m))
        parts.append(repr(projectively_equivalent(m, conj)))
        parts.append(repr(projectively_equivalent(np.array(conj), m)))
        if previous is not None:
            parts.append(repr(projectively_equivalent(m, previous)))
        previous = m
    return len(points), hashlib.sha256("\n".join(parts).encode()).hexdigest()


def test_scalar_path_is_pinned():
    """Every verdict, residual and invariant of the scalar path, hashed
    by value over a fixed set of points: a rewrite of the path must keep
    its answers bit for bit, whatever type carries them."""
    assert _scalar_path_digest() == (
        69, "ce97976f7a96cfd52b089571c623c637b437144a289cd25ab35207dca026568d")


def test_scalar_path_verdicts_are_pinned():
    """The pass flags alone of check_vinberg, at the default tol and at
    1e-6, and of verify_relations over the pinned points, hashed as
    (passed, ((name, where, passed), ...)) per verdict: pinned before the
    pair gate took a computed bound, so no verdict moved with it."""
    points, _ = _pinned_points()
    verdicts = [(v.passed, tuple((c.name, c.where, c.passed) for c in v))
                for sys, o in points
                for v in (check_vinberg(sys, o), check_vinberg(sys, o, tol=1e-6),
                          verify_relations(sys, o))]
    assert (len(points), hashlib.sha256(repr(verdicts).encode()).hexdigest()) == (
        69, "3f91e237c2f23dc2fa9971503208fe46a60b9d3714169ac65d72b335a4dce93f")
