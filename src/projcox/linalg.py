"""Small dense matrices over IEEE doubles: rows read as tuples of
Python floats, and whether their determinant is zero, decided exactly.
"""

from __future__ import annotations

from itertools import chain

from .errors import UnsupportedShape

TOL_ALGEBRAIC = 1e-9


def _float_row(row) -> tuple:
    """One row as a tuple of Python floats.  Text raises TypeError:
    float() reads '1.5', and a string or bytes row iterates into its
    characters."""
    if isinstance(row, (str, bytes)):
        raise TypeError("a row of text")
    row = tuple(row)
    if any(isinstance(x, (str, bytes)) for x in row):
        raise TypeError("an entry of text")
    return tuple(map(float, row))


class Rows(tuple):
    """Rows known to be equal-length tuples of Python floats, which _rows
    hands back as they are: made by Rows.of, and by the chart builders."""

    __slots__ = ()

    @classmethod
    def of(cls, m) -> Rows:
        """m as Rows: Rows as they are, any other matrix read by _rows."""
        return m if type(m) is cls else cls(_rows(m))


def _rows(m, shape=None) -> tuple:
    """The rows of a matrix as a tuple of tuples of Python floats: Rows as
    they are, other such tuples after one type scan, an ndarray through
    its ``tolist``, any other nested sequence entry by entry.  A ragged
    or non-2-D input, a row or entry of text, or a matrix whose (rows,
    columns) is not ``shape``, raises UnsupportedShape."""
    if type(m) is not Rows:
        if hasattr(m, "tolist"):
            m = m.tolist()
        kind = type(m)
        if not (kind in (tuple, list) and set(map(type, m)) == {kind}
                and set(map(type, chain(*m))) == {float}):
            try:
                m = tuple(map(_float_row, m))
            except TypeError:
                raise UnsupportedShape("expected a matrix: a sequence of rows of numbers") from None
        elif kind is list:
            m = tuple(map(tuple, m))
        if len(set(map(len, m))) > 1:
            raise UnsupportedShape(f"rows of unequal lengths {[len(row) for row in m]}")
    width = len(m[0]) if m else 0
    if shape is not None and (len(m), width) != shape:
        raise UnsupportedShape(f"expected a {shape[0]}x{shape[1]} matrix, "
                               f"got {len(m)} rows of {width}")
    return m


def _det(rows) -> int:
    """The determinant of a 3x3 or larger matrix of ints, by cofactor
    expansion along the first row."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    det = 0
    for j, x in enumerate(rows[0]):
        minor = _det([row[:j] + row[j + 1:] for row in rows[1:]])
        det += -x * minor if j % 2 else x * minor
    return det


def nonsingular(rows) -> bool:
    """Whether an n x n matrix of floats, n >= 3, has a nonzero
    determinant, decided exactly: each finite double is an integer over
    a power of two, and the rows times the largest such denominator are
    integers whose determinant is zero iff the doubles' is.  A matrix
    with a non-finite entry reads False."""
    try:
        ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    except (OverflowError, ValueError):
        return False
    k = max([d for row in ratios for _, d in row]).bit_length()
    return _det([[p << (k - d.bit_length()) for p, d in row] for row in ratios]) != 0
