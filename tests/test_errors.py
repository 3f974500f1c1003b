"""The package's refusals: three kinds of ProjCoxError, read off the
library's source, and the same refusal for the same fault from every
certificate that meets it."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from projcox import cartan, certify, charts, errors, linalg, orbifold
from projcox.errors import DomainError, InvariantViolation, ProjCoxError, UnsupportedShape
from projcox.orbifold import INFINITY, EdgeOrders, QuadPrismOrders

SRC = Path(__file__).resolve().parent.parent / "src" / "projcox"

#: the three kinds of refusal; the CLI's own flag errors stay ValueError
KINDS = {"DomainError", "UnsupportedShape", "InvariantViolation"}
#: (function, exception) of the raises outside the three kinds: the
#: records' read-only guard, and the TypeError that linalg._rows turns
#: into UnsupportedShape
EXEMPT = {("__setattr__", "AttributeError"), ("_float_row", "TypeError")}


def _name(node):
    """The name a class base or a raised expression ends in, or None."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _raises(node, function=None):
    """(function, name) of each raise under node, with function the name
    of the innermost def around it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise):
            yield function, None if child.exc is None else _name(child.exc)
        yield from _raises(child, function)


def _trees():
    for path in sorted(SRC.glob("*.py")):
        yield path, ast.parse(path.read_text(), str(path))


def test_every_error_class_is_raised():
    """Each subclass of ProjCoxError but the base is named in a raise,
    so an exception class that nothing raises fails the suite."""
    bases, raised = {}, set()
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(base) for base in node.bases}
            elif isinstance(node, ast.Raise) and node.exc is not None:
                raised.add(_name(node.exc))
    errors = {"ProjCoxError"}
    while True:
        grown = errors | {name for name, named in bases.items() if named & errors}
        if grown == errors:
            break
        errors = grown
    assert len(errors) > 1
    assert errors - {"ProjCoxError"} <= raised, sorted(errors - {"ProjCoxError"} - raised)


def test_every_raise_is_one_of_three_kinds():
    """Outside the CLI, every raise in the library names DomainError,
    UnsupportedShape or InvariantViolation, but for the two EXEMPT ones:
    a new exception class or a stray ValueError fails the suite."""
    stray = [(path.name, function, name) for path, tree in _trees() if path.name != "cli.py"
             for function, name in _raises(tree)
             if name not in KINDS and (function, name) not in EXEMPT]
    assert stray == []


def test_errors_defines_the_three_kinds():
    classes = {name: value for name, value in vars(errors).items() if isinstance(value, type)}
    assert set(classes) == {"ProjCoxError"} | KINDS
    assert DomainError.__bases__ == (ProjCoxError, ValueError)
    assert issubclass(DomainError, ValueError)
    assert UnsupportedShape.__bases__ == InvariantViolation.__bases__ == (ProjCoxError,)


O3333 = QuadPrismOrders(3, 3, 3, 3)
SYSTEM = charts.build_general(charts.GeneralChartParams(O3333, 6.0, 6.0, -1.0, -1.0, -1.0))


@pytest.mark.parametrize("refuse", [
    lambda: orbifold.mu(INFINITY),
    lambda: orbifold.QuadPrismOrders(2, 3, 3, 3),
    lambda: charts.realize_representation(charts.build_standard(O3333, 6, 6, -1, -1, -1), 0.0),
    lambda: charts._box_draw(-1.0, -2.0),
    lambda: cartan.cartan_of(cartan.ReflectionSystem(np.eye(2), [[2.5, -1.0], [-1.0, 2.0]])),
    lambda: cartan.ReflectionSystem(np.eye(2), [[2.0, np.nan], [-1.0, 2.0]]),
    lambda: certify.is_convex_cocompact(SYSTEM.cartan, EdgeOrders(2, {(1, 2): 3})),
    lambda: certify.standard_scan(O3333, 6.0, 6.0, 0, 0),
    lambda: linalg._rows([[1.0, 2.0], [3.0]]),
], ids=["orbifold-mu", "orbifold-orders", "charts-gauge", "charts-box", "cartan-diagonal",
        "cartan-finite", "certify-pattern", "certify-samples", "linalg-ragged"])
def test_except_projcoxerror_catches_a_refusal_from_each_module(refuse):
    with pytest.raises(ProjCoxError) as got:
        refuse()
    assert type(got.value).__name__ in KINDS


#: the certificates that read an order table, each on the 4x4 system
CERTIFICATES = {
    "check_vinberg": lambda table: cartan.check_vinberg(SYSTEM, table),
    "verify_relations": lambda table: certify.verify_relations(SYSTEM, table),
    "is_convex_cocompact": lambda table: certify.is_convex_cocompact(SYSTEM.cartan, table),
    "derived_invariant_identities": lambda table: cartan.derived_invariant_identities(
        cartan.cyclic_invariants(SYSTEM.cartan), table),
}
#: the ones that take any table of the system's size; the others take
#: only the quad prism's
GENERIC = ("check_vinberg", "verify_relations")

PATTERN = (UnsupportedShape, "expected the quad-prism pattern: infinite (1,3), (2,4)")
TABLES = {
    "smaller": (EdgeOrders(3, {(1, 2): 3, (1, 3): INFINITY, (2, 3): 3}),
                (DomainError, "orders table has 3 sides, system has 4"), PATTERN),
    "larger": (EdgeOrders(5, {(i, j): 3 for i in range(1, 6) for j in range(i + 1, 6)}),
               (DomainError, "orders table has 5 sides, system has 4"), PATTERN),
    "not the quad prism": (EdgeOrders(4, {(1, 2): 3, (2, 3): 3, (3, 4): 3, (1, 4): 3,
                                          (1, 3): 5, (2, 4): INFINITY}),
                           None, PATTERN),
    "an order 2": (EdgeOrders(4, {(1, 2): 2, (2, 3): 3, (3, 4): 3, (1, 4): 3,
                                  (1, 3): INFINITY, (2, 4): INFINITY}),
                   None, (UnsupportedShape, "finite orders must be >= 3")),
}


@pytest.mark.parametrize("table_name", list(TABLES))
@pytest.mark.parametrize("name", list(CERTIFICATES))
def test_certificates_refuse_a_table_alike(name, table_name):
    """One fault, one class and one message from every certificate that
    meets it: a table of another size for the ones that read its pairs,
    any table but the quad prism's for the ones that need it.  The
    generic certificates take a 4-sided table of another pattern, and
    fail its checks instead."""
    table, size_fault, pattern_fault = TABLES[table_name]
    fault = size_fault if name in GENERIC else pattern_fault
    if fault is None:
        assert not CERTIFICATES[name](table).passed
        return
    kind, message = fault
    for _ in range(2):   # a plain table is checked on every call
        with pytest.raises(ProjCoxError) as got:
            CERTIFICATES[name](table)
        assert (type(got.value), str(got.value)) == (kind, message)


def test_verify_relations_refuses_a_table_of_fewer_sides():
    """It read the one pair of a 2-sided table and passed a 3x3 system
    on 1 of its 3 pairs."""
    m = np.full((3, 3), -1.0) + 3.0 * np.eye(3)
    system = cartan.ReflectionSystem(np.eye(3), m.T)
    table = EdgeOrders(3, {(1, 2): 3, (1, 3): 3, (2, 3): 3})
    assert certify.verify_relations(system, table).passed
    with pytest.raises(DomainError, match=re.escape("orders table has 2 sides, system has 3")):
        certify.verify_relations(system, EdgeOrders(2, {(1, 2): 3}))


def test_identities_take_a_quad_prism_edge_orders():
    """A plain EdgeOrders of the quad prism's pattern gives the verdict
    of its QuadPrismOrders, bit for bit."""
    o = QuadPrismOrders(3, 4, 5, 6)
    point = charts.build_standard(o, 6.0, 5.0, -1.5, -0.7, -2.0)
    inv = cartan.cyclic_invariants(point.cartan)
    plain = EdgeOrders(4, o.orders)
    assert not isinstance(plain, QuadPrismOrders)
    assert (cartan.derived_invariant_identities(inv, plain)
            == cartan.derived_invariant_identities(inv, o))
    assert certify.is_convex_cocompact(point.cartan, plain) == certify.is_convex_cocompact(
        point.cartan, o)


_COORDS, _V = (6.0, 5.0, -1.5, -0.7, -2.0), (-1.3, -0.7, -2.1, -0.4)


def _system_rows(s):
    return s.alpha_rows, s.vector_rows, s.cartan


#: what each chart builder and scan makes of a table, without the table
BUILDERS = {
    "build_general": lambda t: _system_rows(
        charts.build_general(charts.GeneralChartParams(t, *_COORDS))),
    "build_concurrent": lambda t: _system_rows(
        charts.build_concurrent(charts.ConcurrentChartParams(t, *_V))),
    "build_standard": lambda t: charts.build_standard(t, *_COORDS)[1:],
    "standard_solution": lambda t: charts.standard_solution(t, *_COORDS),
    "standard_scan": lambda t: certify.standard_scan(t, 6.0, 6.0, 1000, 0),
    "det_locus_check": lambda t: certify.det_locus_check(t, 1000, 0),
    "concurrent_t_scan": lambda t: certify.concurrent_t_scan(t, 3),
}


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_and_scans_take_a_quad_prism_edge_orders(name):
    """A plain EdgeOrders of the quad prism's pattern gives the rows or
    report of its QuadPrismOrders bit for bit (it raised AttributeError
    on the first mu it read); a table of another pattern is refused as
    the certificates refuse it."""
    o = QuadPrismOrders(3, 3, 3, 3)
    assert repr(BUILDERS[name](EdgeOrders(4, o.orders))) == repr(BUILDERS[name](o))
    with pytest.raises(UnsupportedShape, match=re.escape(PATTERN[1])):
        BUILDERS[name](TABLES["not the quad prism"][0])
