import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import exact_kernel, mat_power, reflection
from projcox import linalg
from projcox.errors import InvariantViolation, UnsupportedShape

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def test_reflection_coordinate():
    r = reflection(2 * E1, E1)
    assert np.allclose(r, np.diag([-1.0, 1.0, 1.0, 1.0]))


def test_reflection_outer_product():
    r = reflection(E1, [2, -1, -1, -1])
    expected = np.eye(4)
    expected[:, 0] = [-1, 1, 1, 1]
    assert np.allclose(r, expected)


def test_reflection_requires_normalization():
    with pytest.raises(InvariantViolation):
        reflection(E1, E1)


@given(a=arrays(np.float64, 4, elements=st.floats(-5, 5)),
       v=arrays(np.float64, 4, elements=st.floats(-5, 5)))
def test_reflection_is_involution(a, v):
    p = a @ v
    if abs(p) < 1e-3:
        return
    a = a * (2.0 / p)  # rescale so a(v) = 2
    r = reflection(a, v)
    assert np.linalg.norm(r @ r - np.eye(4)) <= 1e-10 * max(1.0, np.linalg.norm(r) ** 2)


def test_mat_power_identity():
    assert np.allclose(mat_power(np.eye(4), 5), np.eye(4))


def test_mat_power_involution():
    d = np.diag([-1.0, 1.0, 1.0, 1.0])
    assert np.allclose(mat_power(d, 2), np.eye(4))


def test_mat_power_order_three_rotation():
    # R1 R2 for reflections with mu12 = 4cos^2(pi/3) = 1 has order 3
    r1 = reflection([2.0, -1.0, 0.0, 0.0], E1)
    r2 = reflection([-1.0, 2.0, 0.0, 0.0], E2)
    prod = r1 @ r2
    assert np.allclose(mat_power(prod, 3), np.eye(4), atol=1e-12)


@settings(max_examples=50)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 16), q=st.integers(1, 16))
def test_mat_power_additivity(seed, p, q):
    rng = np.random.default_rng(seed)
    q_mat, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    m = q_mat + 0.05 * rng.standard_normal((4, 4))
    lhs = mat_power(m, p + q)
    rhs = mat_power(m, p) @ mat_power(m, q)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1.0 + np.linalg.norm(lhs))


_WIDE_ENTRY = st.one_of(st.sampled_from((0.0, -0.0)),
                        st.floats(1e-300, 1e300).flatmap(lambda x: st.sampled_from((x, -x))))


@settings(max_examples=500, deadline=None)
@given(n=st.sampled_from((3, 4)), data=st.data())
def test_nonsingular_never_claims_a_singular_matrix(n, data):
    """Entries in +-[1e-300, 1e300] or signed zeros; in two draws of
    three the last row is the float sum of the first two or a power of
    two times the first, so exactly singular or singular but for the
    rounding of the sum.  Where nonsingular says True, the exact
    determinant of the given doubles is nonzero."""
    rows = data.draw(st.lists(st.lists(_WIDE_ENTRY, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    last = data.draw(st.sampled_from(("drawn", "sum", "multiple")))
    if last == "sum":
        rows[-1] = [x + y for x, y in zip(rows[0], rows[1])]
    elif last == "multiple":
        rows[-1] = [x * 2.0 ** data.draw(st.integers(-60, 60)) for x in rows[0]]
    if linalg.nonsingular(rows):
        assert not exact_kernel(rows)


def test_nonsingular_decides_well_conditioned_matrices():
    assert linalg.nonsingular(np.eye(4).tolist())
    assert linalg.nonsingular([[2.0, -1.0, -1e-300], [-1e300, 2.0, 0.0], [-1.0, -0.5, 2.0]])
    assert not linalg.nonsingular([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
    assert not linalg.nonsingular(np.zeros((4, 4)).tolist())


def _scaled_by_abs(rows) -> list:
    """linalg._scaled as first written, each row's top max(map(abs, row))."""
    tops = [max(map(abs, row), default=0.0) for row in rows]
    return [[x / top for x in row] if top and top != 1.0 else row for row, top in zip(rows, tops)]


def _hexes(rows) -> list:
    return [[x.hex() for x in row] for row in rows]


#: zeros of both signs, subnormals, the smallest normal, values near
#: 1e-300 and 1e300, the largest double, and rows whose top is 1
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, -3e-300,
               1e300, -2e300, 1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1.0, 0.5)


def test_scaled_is_the_abs_formula_at_the_edges():
    rows = [(0.0, -0.0, 0.0), (5e-324, -0.0, 0.0), (-5e-324, 1e-310, 0.0),
            (1e-300, -2e-300, 3e-300), (1e300, -1e300, 1.0), (-1.7976931348623157e308, 1.0, 0.0),
            (1.0, -1.0, 0.5), (-1.0, 0.25, 0.0), (-0.0, -1e300), (), (2.0, -8.0, 4.0)]
    new, old = linalg._scaled(rows), _scaled_by_abs(rows)
    assert _hexes(new) == _hexes(old)
    # a row of top 0 or 1 is handed back as it is
    assert [a is b for a, b in zip(new, old)] == [type(a) is tuple for a in old]


@settings(max_examples=500, deadline=None)
@given(rows=st.lists(st.lists(st.sampled_from(EDGE_FLOATS) | st.floats(), max_size=5)
                     .map(tuple), max_size=5))
def test_scaled_is_the_abs_formula_bit_for_bit(rows):
    new, old = linalg._scaled(rows), _scaled_by_abs(rows)
    assert _hexes(new) == _hexes(old)
    assert [a is b for a, b in zip(new, old)] == [type(a) is tuple for a in old]


def _rows_entry_by_entry(a):
    """An ndarray's rows read entry by entry: its tolist rows, each entry
    through float(), text refused; None where that refuses the input."""
    try:
        rows = []
        for row in a.tolist():
            if isinstance(row, (str, bytes)) or any(isinstance(x, (str, bytes)) for x in row):
                return None
            rows.append(tuple(map(float, row)))
    except TypeError:
        return None
    return tuple(rows)


@pytest.mark.parametrize("a", [
    pytest.param(np.array([[1.5, -0.0, np.inf], [2.0, 5e-324, -1e300]]), id="float64"),
    pytest.param(np.arange(6.0).reshape(2, 3).T, id="float64-transposed"),
    pytest.param(np.array([[0.1, 2.0], [3.0, -4.5]], dtype=np.float32), id="float32"),
    pytest.param(np.arange(6).reshape(2, 3), id="int"),
    pytest.param(np.array([[2**62, -1]]), id="int-large"),
    pytest.param(np.eye(3, dtype=bool), id="bool"),
    pytest.param(np.array([[1, 2.5], [3.0, -4]], dtype=object), id="object-numbers"),
    pytest.param(np.array([["1.5", 2.0], [3.0, 4.0]], dtype=object), id="object-text"),
    pytest.param(np.array([[b"1", 2.0]], dtype=object), id="object-bytes"),
    pytest.param(np.array([["1", "2"], ["3", "4"]]), id="unicode"),
    pytest.param(np.arange(4.0), id="1-D"),
    pytest.param(np.array(["12", "34"]), id="1-D-text"),
    pytest.param(np.zeros((2, 2, 2)), id="3-D"),
    pytest.param(np.zeros((2, 2, 0)), id="3-D-empty-rows"),
    pytest.param(np.zeros((0, 2, 2)), id="3-D-empty"),
    pytest.param(np.zeros(0), id="1-D-empty"),
    pytest.param(np.zeros((0, 4)), id="no-rows"),
    pytest.param(np.zeros((3, 0)), id="empty-rows"),
    pytest.param(np.array(1.0), id="0-D"),
])
def test_rows_reads_an_array_as_entry_by_entry(a):
    expected = _rows_entry_by_entry(a)
    if expected is None:
        with pytest.raises(UnsupportedShape, match="expected a matrix"):
            linalg._rows(a)
        return
    rows = linalg._rows(a)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(x) is float for row in rows for x in row)
    assert _hexes(rows) == _hexes(expected)


_FLOAT_ROWS = ((-0.0, float("inf")), (float("nan"), 5e-324))


@pytest.mark.parametrize("m, expected", [
    pytest.param([[1.5, -2.0], [0.0, 3.0]], ((1.5, -2.0), (0.0, 3.0)), id="list"),
    pytest.param([(1.0, 2.0), [3.0, 4.0]], ((1.0, 2.0), (3.0, 4.0)), id="mixed-rows"),
    pytest.param(((1, 2), (3, 4)), ((1.0, 2.0), (3.0, 4.0)), id="int-tuples"),
    pytest.param(((np.float64(1.5), 2.0),), ((1.5, 2.0),), id="np-float64-tuples"),
    pytest.param(_FLOAT_ROWS, _FLOAT_ROWS, id="float-tuples"),
    pytest.param([[1.0, 2.0], [3.0]], None, id="ragged"),
    pytest.param(((1.0,), ()), None, id="ragged-tuples"),
    pytest.param(["12", "34"], None, id="text-rows"),
    pytest.param([[1.0, "2"], [b"3", 4.0]], None, id="text-entries"),
    pytest.param("1234", None, id="text"),
])
def test_rows_reads_any_other_matrix_as_before(m, expected):
    """Every input but Rows reads as it did before Rows (arrays: the test
    above): _rows gives a plain tuple of tuples of Python floats (tuples
    of such rows as they are) or raises UnsupportedShape, and Rows.of
    holds the same floats."""
    if expected is None:
        for read in (linalg._rows, linalg.Rows.of):
            with pytest.raises(UnsupportedShape):
                read(m)
        return
    rows = linalg._rows(m)
    assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(x) is float for row in rows for x in row)
    assert _hexes(rows) == _hexes(expected)
    assert (rows is m) == (m is _FLOAT_ROWS)
    held = linalg.Rows.of(m)
    assert type(held) is linalg.Rows and _hexes(held) == _hexes(expected)
    assert linalg._rows(held) is held and linalg.Rows.of(held) is held
    with pytest.raises(UnsupportedShape, match="expected a 3x2 matrix"):
        linalg._rows(held, (3, 2))
