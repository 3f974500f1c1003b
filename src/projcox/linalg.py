"""Small dense matrices over IEEE doubles: rows read as tuples of
Python floats, and a determinant proven nonzero against its rounding
bound.
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


def _scaled(rows) -> list:
    """Each nonzero row divided by its largest |entry|, which keeps
    whether the determinant is zero: nonsingular's bound is then taken
    on entries of at most 1 in size.  The top, max(max(row), -min(row)),
    is max(map(abs, row)) wherever it divides."""
    out = []
    for row in rows:
        top = max(max(row), -min(row)) if row else 0.0
        out.append([x / top for x in row] if top and top != 1.0 else row)
    return out


def _cofactor_det(rows) -> tuple:
    """(determinant, permanent of |rows|) of a 3x3 or larger matrix of
    floats, both by cofactor expansion along the first row."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g),
                abs(a) * (abs(e * i) + abs(f * h)) + abs(b) * (abs(d * i) + abs(f * g))
                + abs(c) * (abs(d * h) + abs(e * g)))
    d = p = 0.0
    for j, x in enumerate(rows[0]):
        dj, pj = _cofactor_det([row[:j] + row[j + 1:] for row in rows[1:]])
        d, p = d + (-x * dj if j % 2 else x * dj), p + abs(x) * pj
    return d, p


def nonsingular(rows) -> bool:
    """Whether an n x n matrix of floats, n >= 3, has a nonzero exact
    determinant; False is undecided.  The float determinant d of its
    _scaled rows (|entries| <= 1; a positive row scale keeps the zero)
    must clear the forward error bound gamma_{2n^2} p + 2n^(n+1)
    2^-1074, p their permanent (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 3; the second term bounds underflow)."""
    n = len(rows)
    d, p = _cofactor_det(_scaled(rows))
    ku = 2 * n * n * 2.0 ** -53
    return abs(d) > ku / (1.0 - ku) * p + 2 * n ** (n + 1) * 5e-324
