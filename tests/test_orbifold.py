import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcox import orbifold
from projcox.errors import InfiniteOrder, NonHyperbolic
from projcox.orbifold import (INFINITY, EdgeOrders, OrbifoldSignature,
                              QuadPrismOrders, cg05_dim, d_tp,
                              euler_characteristic, mu,
                              quadrilateral_signature, teichmuller_dim)


def test_mu_exact_values():
    assert mu(2) == pytest.approx(0.0, abs=1e-15)
    assert mu(3) == pytest.approx(1.0, abs=1e-15)
    assert mu(4) == pytest.approx(2.0, abs=1e-15)
    assert mu(6) == pytest.approx(3.0, abs=1e-15)


def test_mu_pentagon():
    # 4 cos^2(pi/5) = (3 + sqrt(5)) / 2
    assert mu(5) == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, abs=1e-14)


def test_mu_rejects_infinity():
    with pytest.raises(InfiniteOrder):
        mu(INFINITY)


def test_mu_rejects_bad_orders():
    with pytest.raises(ValueError):
        mu(1)
    with pytest.raises(ValueError):
        mu(3.0)  # float orders are ambiguous; require int


@given(n=st.integers(2, 200))
def test_mu_monotone_in_range(n):
    assert 0.0 <= mu(n) < 4.0
    assert mu(n + 1) > mu(n)


def test_infinity_singleton_survives_pickle():
    assert pickle.loads(pickle.dumps(INFINITY)) is INFINITY


def test_edge_orders_symmetric_lookup():
    table = EdgeOrders(3, {(1, 2): 4, (1, 3): 3, (2, 3): 5})
    assert table.order(2, 1) == 4
    assert table.order(3, 2) == 5


def test_edge_orders_missing_pair_rejected():
    with pytest.raises(ValueError):
        EdgeOrders(3, {(1, 2): 4, (1, 3): 3})


def test_edge_orders_bad_tables_rejected():
    with pytest.raises(ValueError, match="at least two sides"):
        EdgeOrders(1, {})
    with pytest.raises(ValueError, match="bad side pair"):
        EdgeOrders(2, {(1, 1): 3, (1, 2): 3})
    with pytest.raises(ValueError, match="conflicting orders"):
        EdgeOrders(2, {(1, 2): 3, (2, 1): 4})


def infinite_pairs(table: EdgeOrders) -> list:
    """The pairs of infinite order, sorted, read off the mu table."""
    return [p for p, _, mu_n in table.mu_table if mu_n is None]


def test_infinite_pairs_all_finite():
    table = EdgeOrders(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3})
    assert infinite_pairs(table) == []


def test_infinite_pairs_single():
    table = EdgeOrders(3, {(1, 2): INFINITY, (1, 3): 3, (2, 3): 3})
    assert infinite_pairs(table) == [(1, 2)]


def test_quad_prism_orders():
    o = QuadPrismOrders(3, 4, 5, 6)
    assert isinstance(o, EdgeOrders)
    assert infinite_pairs(o) == [(1, 3), (2, 4)]
    assert o.order(1, 2) == 3
    assert o.order(3, 4) == 5
    assert o.order(1, 4) == 6
    assert (o.n12, o.n23, o.n34, o.n14) == (3, 4, 5, 6)
    assert o.mu23 == pytest.approx(2.0)


def test_quad_prism_mu_computed_once(monkeypatch):
    calls = []
    monkeypatch.setattr(orbifold, "mu", lambda n: calls.append(n) or mu(n))
    o = QuadPrismOrders(3, 4, 5, 6)
    values = [(o.mu12, o.mu23, o.mu34, o.mu14) for _ in range(3)]
    assert calls == [3, 6, 4, 5]   # the finite pairs (1,2), (1,4), (2,3), (3,4)
    assert values[0] == (mu(3), mu(4), mu(5), mu(6)) == values[2]
    assert o == QuadPrismOrders(3, 4, 5, 6)
    assert hash(o) == hash(QuadPrismOrders(3, 4, 5, 6))


def test_edge_orders_mu_table_built_once(monkeypatch):
    calls = []
    monkeypatch.setattr(orbifold, "mu", lambda n: calls.append(n) or mu(n))
    table = EdgeOrders(4, {(1, 2): 3, (2, 3): 4, (3, 4): 5, (1, 4): 6,
                           (1, 3): INFINITY, (2, 4): INFINITY})
    tables = [table.mu_table for _ in range(3)]
    assert calls == [3, 6, 4, 5]   # the finite pairs (1,2), (1,4), (2,3), (3,4)
    assert tables[0] is tables[2]
    assert tables[0] == (((1, 2), 3, mu(3)), ((1, 3), INFINITY, None),
                         ((1, 4), 6, mu(6)), ((2, 3), 4, mu(4)),
                         ((2, 4), INFINITY, None), ((3, 4), 5, mu(5)))
    assert table.mu_table == QuadPrismOrders(3, 4, 5, 6).mu_table


def test_quad_prism_edge_orders_built_once():
    # the quad prism is its own order table: one object, one mu_table
    o = QuadPrismOrders(3, 4, 5, 6)
    assert o.mu_table is o.mu_table
    assert o.orders == QuadPrismOrders(3, 4, 5, 6).orders
    assert o == QuadPrismOrders(3, 4, 5, 6)
    assert o != QuadPrismOrders(3, 4, 5, 7)


@pytest.mark.parametrize("build", [
    lambda n: QuadPrismOrders(3, 3, 3, n),
    lambda n: EdgeOrders(3, {(1, 2): 3, (1, 3): 3, (2, 3): n}),
])
def test_order_whose_mu_rounds_to_four_rejected(build):
    # mu(10**9) is 4.0 in doubles, the value only an infinite order has
    assert mu(10**9) == 4.0
    with pytest.raises(ValueError, match="order 1000000000 of pair"):
        build(10**9)
    assert build(10**6).mu_table[-1][2] < 4.0


def test_quad_prism_rejects_order_two():
    with pytest.raises(ValueError):
        QuadPrismOrders(2, 3, 3, 3)


def test_euler_characteristic_quadrilateral_3333():
    sig = quadrilateral_signature(3, 3, 3, 3)
    assert euler_characteristic(sig) == Fraction(-1, 3)


def test_euler_characteristic_right_angles_flat():
    # D^2(;2,2,2,2) is Euclidean, not hyperbolic
    sig = quadrilateral_signature(2, 2, 2, 2)
    assert euler_characteristic(sig) == 0
    with pytest.raises(NonHyperbolic):
        teichmuller_dim(sig)


def test_euler_characteristic_with_cone_and_boundary():
    # disk, one cone point of order 7, two corner reflectors of order 4,
    # one extra full boundary component on a torus piece would not be a
    # disk; keep chi_underlying = 1:
    sig = OrbifoldSignature(1, (7,), (4, 4), 0)
    assert euler_characteristic(sig) == Fraction(1) - Fraction(6, 7) - Fraction(3, 4)


def test_dimension_counts_quadrilateral_3333():
    sig = quadrilateral_signature(3, 3, 3, 3)
    assert teichmuller_dim(sig) == 1
    assert d_tp(sig) == 1
    assert cg05_dim(sig) == 4


def test_cg05_pentagon():
    sig = OrbifoldSignature(1, (), (3, 3, 3, 3, 3), 0)
    assert cg05_dim(sig) == 7


def test_cg05_counts_order_two_corners():
    # l2 = 1: one right-angle corner contributes 3 - 1 = 2
    sig = OrbifoldSignature(1, (), (2, 3, 3, 3, 3), 0)
    assert euler_characteristic(sig) < 0
    assert cg05_dim(sig) == -8 + 3 * 5 - 1


def test_signature_input_checks():
    with pytest.raises(ValueError, match="integers >= 2"):
        OrbifoldSignature(1, (), (1, 3, 3, 3), 0)
    with pytest.raises(ValueError, match="full_boundary_count"):
        OrbifoldSignature(1, (3, 3), (), -1)


def test_d_tp_subtracts_boundary():
    sig = OrbifoldSignature(1, (3, 3), (), 1)
    assert euler_characteristic(sig) < 0
    assert d_tp(sig) == teichmuller_dim(sig) - 1


def test_cg05_requires_no_boundary():
    sig = OrbifoldSignature(1, (3, 3), (), 1)
    with pytest.raises(ValueError):
        cg05_dim(sig)


@given(n1=st.integers(3, 30), n2=st.integers(3, 30),
       n3=st.integers(3, 30), n4=st.integers(3, 30))
def test_quadrilateral_reflector_orbifolds_are_hyperbolic(n1, n2, n3, n4):
    """Four corners of order >= 3 always give chi < 0 and the same
    dimension counts regardless of the orders."""
    sig = quadrilateral_signature(n1, n2, n3, n4)
    assert euler_characteristic(sig) < 0
    assert teichmuller_dim(sig) == 1
    assert cg05_dim(sig) == 4
