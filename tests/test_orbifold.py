import copy
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcox import orbifold
from projcox.errors import DomainError
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
    with pytest.raises(DomainError):
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


def test_edge_orders_missing_pair_rejected():
    with pytest.raises(ValueError, match=r"missing order for pair \(2,3\)"):
        EdgeOrders(3, {(1, 2): 4, (1, 3): 3})
    with pytest.raises(ValueError, match=r"missing order for pair \(1,3\)"):
        EdgeOrders(4, {(2, 1): 3, (1, 4): 3, (2, 3): 3, (2, 4): 3, (3, 4): 3})


def test_edge_orders_accepts_a_pair_given_twice_with_one_order():
    table = EdgeOrders(3, {(1, 2): 4, (2, 1): 4, (1, 3): 3, (3, 2): 5})
    assert table.orders == {(1, 2): 4, (1, 3): 3, (2, 3): 5}
    assert table == EdgeOrders(3, {(1, 2): 4, (1, 3): 3, (2, 3): 5})


def test_edge_orders_bad_tables_rejected():
    with pytest.raises(ValueError, match="at least two sides"):
        EdgeOrders(1, {})
    with pytest.raises(ValueError, match="bad side pair"):
        EdgeOrders(2, {(1, 1): 3, (1, 2): 3})
    with pytest.raises(ValueError, match="conflicting orders"):
        EdgeOrders(2, {(1, 2): 3, (2, 1): 4})


def test_edge_orders_errors_keep_their_precedence():
    # pairs are read in the table's order, a bad pair or a conflict
    # raising where it is met; then a missing pair; then an order too large
    with pytest.raises(ValueError, match=r"bad side pair \(1,4\)"):
        EdgeOrders(3, {(1, 4): 3, (1, 2): 3, (2, 1): 4})
    with pytest.raises(ValueError, match=r"conflicting orders for pair \(1, 2\)"):
        EdgeOrders(3, {(1, 2): 3, (2, 1): 4, (1, 4): 3})
    with pytest.raises(ValueError, match="conflicting orders"):
        EdgeOrders(3, {(1, 2): 3, (2, 1): 4})
    with pytest.raises(ValueError, match="missing order"):
        EdgeOrders(3, {(1, 2): 10**9, (1, 3): 3})


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
    assert (o.orders[(1, 2)], o.orders[(3, 4)], o.orders[(1, 4)]) == (3, 5, 6)
    assert (o.n12, o.n23, o.n34, o.n14) == (3, 4, 5, 6)
    assert orbifold._quad_prism_mu(o)[1] == pytest.approx(2.0)


def test_quad_prism_mu_computed_once(monkeypatch):
    # from an empty intern cache, as an earlier test may have built the table
    orbifold._quad_prism_orders.cache_clear()
    calls = []
    monkeypatch.setattr(orbifold, "mu", lambda n: calls.append(n) or mu(n))
    o = QuadPrismOrders(3, 4, 5, 6)
    values = [orbifold._quad_prism_mu(o) for _ in range(3)]
    assert calls == [3, 6, 4, 5]   # the finite pairs (1,2), (1,4), (2,3), (3,4)
    assert values[0] == (mu(3), mu(4), mu(5), mu(6)) == values[2]
    # building the same table again computes no mu at all
    assert QuadPrismOrders(3, 4, 5, 6) is o and calls == [3, 6, 4, 5]
    assert o == QuadPrismOrders(3, 4, 5, 6)
    assert hash(o) == hash(QuadPrismOrders(3, 4, 5, 6))
    assert calls == [3, 6, 4, 5]


def test_quad_prism_orders_are_interned():
    o = QuadPrismOrders(3, 4, 5, 6)
    for again in (QuadPrismOrders(3, 4, 5, 6), QuadPrismOrders(n12=3, n23=4, n34=5, n14=6),
                  QuadPrismOrders(3, 4, n14=6, n34=5), pickle.loads(pickle.dumps(o)),
                  copy.copy(o), copy.deepcopy(o)):
        assert again is o
    assert orbifold._quad_prism_orders.cache_info().maxsize == orbifold.QUAD_PRISM_CACHE_SIZE
    # errors are not cached: a bad order raises on every call
    for _ in range(3):
        with pytest.raises(DomainError, match=r"^n23 must be an integer >= 3, got 2$"):
            QuadPrismOrders(3, 2, 5, 6)
    # an order equal to a cached one but of another type is refused as ever
    for bad in (np.int64(3), 3.0, True, [3]):
        for _ in range(2):
            with pytest.raises(DomainError) as err:
                QuadPrismOrders(bad, 4, 5, 6)
            assert str(err.value) == f"n12 must be an integer >= 3, got {bad!r}"
    assert QuadPrismOrders(3, np.int64(4).item(), 5, 6) is o
    # more distinct tables than the cache holds: each still equal and correct
    hexes = lambda t: [(pair, n, None if m is None else m.hex()) for pair, n, m in t.mu_table]
    orders = [(3 + k % 7, 3 + k // 7 % 7, 3 + k // 49 % 7, 3 + k // 343)
              for k in range(orbifold.QUAD_PRISM_CACHE_SIZE + 100)]
    for _ in range(2):
        for n in orders:
            table = QuadPrismOrders(*n)
            assert (table.n12, table.n23, table.n34, table.n14) == n
            generic = generic_quad_prism(*n)
            assert table.orders == generic.orders and hexes(table) == hexes(generic)
            assert orbifold._quad_prism_mu(table) == tuple(map(mu, n))
    assert orbifold._quad_prism_orders.cache_info().currsize == orbifold.QUAD_PRISM_CACHE_SIZE
    assert QuadPrismOrders(*orders[-1]) is QuadPrismOrders(*orders[-1])
    assert QuadPrismOrders(3, 4, 5, 6) == o


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


def generic_quad_prism(n12, n23, n34, n14) -> EdgeOrders:
    """The quad-prism table built through EdgeOrders, pairs given in
    QuadPrismOrders' order."""
    return EdgeOrders(4, {(1, 2): n12, (2, 3): n23, (3, 4): n34, (1, 4): n14,
                          (1, 3): INFINITY, (2, 4): INFINITY})


@pytest.mark.parametrize("orders", [(3, 4, 5, 6), (6, 5, 4, 3), (3, 3, 3, 3),
                                    (100, 400, 1000, 7), (10**8, 3, 10**6, 5)])
def test_quad_prism_fields_equal_the_generic_build(orders):
    o, g = QuadPrismOrders(*orders), generic_quad_prism(*orders)
    hexes = lambda t: [(pair, n, None if m is None else m.hex()) for pair, n, m in t.mu_table]
    assert type(o.mu_table) is tuple and hexes(o) == hexes(g)
    assert list(o.orders.items()) == list(g.orders.items())
    assert vars(o).keys() == vars(g).keys()
    assert repr(o) == repr(g).replace("EdgeOrders", "QuadPrismOrders", 1)
    assert hash(o) == hash(g)
    back = pickle.loads(pickle.dumps(o))
    assert type(back) is QuadPrismOrders and back == o and hash(back) == hash(o)
    assert list(back.orders.items()) == list(o.orders.items()) and hexes(back) == hexes(o)
    assert repr(back) == repr(o)


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [2, 3.0, True])
def test_quad_prism_refuses_a_bad_order_by_name(slot, bad):
    orders = [3, 4, 5, 6]
    orders[slot] = bad
    name = ("n12", "n23", "n34", "n14")[slot]
    with pytest.raises(DomainError) as err:
        QuadPrismOrders(*orders)
    assert str(err.value) == f"{name} must be an integer >= 3, got {bad!r}"


@pytest.mark.parametrize("orders", [(10**9, 4, 5, 6), (3, 10**9, 5, 6), (3, 4, 10**9, 6),
                                    (3, 4, 5, 10**9), (3, 10**9, 5, 10**10)])
def test_quad_prism_refuses_a_mu_of_four_as_the_generic_build(orders):
    with pytest.raises(DomainError) as quad:
        QuadPrismOrders(*orders)
    with pytest.raises(DomainError) as generic:
        generic_quad_prism(*orders)
    assert str(quad.value) == str(generic.value)
    # the first such pair in sorted order is named
    pair, n = min((p, n) for p, n in zip(((1, 2), (2, 3), (3, 4), (1, 4)), orders) if n >= 10**9)
    assert str(quad.value) == (f"order {n} of pair {pair} is too large: mu(n) rounds "
                               "to 4 in doubles, the value of an infinite order")


def test_euler_characteristic_quadrilateral_3333():
    sig = quadrilateral_signature(3, 3, 3, 3)
    assert euler_characteristic(sig) == Fraction(-1, 3)


def test_euler_characteristic_right_angles_flat():
    # D^2(;2,2,2,2) is Euclidean, not hyperbolic
    sig = quadrilateral_signature(2, 2, 2, 2)
    assert euler_characteristic(sig) == 0
    with pytest.raises(DomainError):
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


def test_dimensions_must_be_integral():
    """A fractional chi(|O|) = 1/5 makes -3 chi + ... = 22/5 and -8 chi
    + ... = 67/5 non-integral."""
    sig = OrbifoldSignature(Fraction(1, 5), (), (3, 3, 3, 3, 3), 0)
    assert euler_characteristic(sig) < 0
    for dim in (teichmuller_dim, cg05_dim):
        with pytest.raises(ValueError, match="must make the dimension integral"):
            dim(sig)


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
