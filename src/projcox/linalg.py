"""Numerical rank of small dense matrices over IEEE doubles, by Gaussian
elimination with complete pivoting in pure Python, with each pivot
measured against the first one.
"""

from __future__ import annotations

from .errors import UnsupportedShape

TOL_ALGEBRAIC = 1e-9
TOL_SINGULAR = 1e-12
#: pivots at or below RANK_TOL times the first pivot count as zero
RANK_TOL = 1e-8


def _rows(m) -> list:
    """The rows of a matrix as lists of Python floats: an ndarray
    through its ``tolist``, any other nested sequence entry by entry.
    A ragged or non-2-D input raises UnsupportedShape."""
    if hasattr(m, "tolist"):
        m = m.tolist()
    try:
        rows = [[float(x) for x in row] for row in m]
    except TypeError:
        raise UnsupportedShape("expected a matrix: a sequence of rows of numbers") from None
    if any(len(row) != len(rows[0]) for row in rows):
        raise UnsupportedShape(f"rows of unequal lengths {[len(row) for row in rows]}")
    return rows


def _eliminate(rows):
    """Gaussian elimination with complete pivoting of a matrix given as
    lists of Python floats (see _rows), which it consumes.

    Each step takes the largest remaining entry as the pivot; a pivot at
    or below RANK_TOL times the first one counts as zero and ends the
    elimination.  Returns (pivots, free): pivots the list of (column,
    row) pairs in elimination order, each row as it stood when it was
    the pivot row, and free the columns left without a pivot.  The
    number of pivots is the numerical rank.
    """
    free = list(range(len(rows[0]))) if rows else []
    pivots = []
    cut = None
    while rows and free:
        best, bi, bj = 0.0, 0, free[0]
        for i, row in enumerate(rows):
            for j in free:
                x = abs(row[j])
                if x > best:
                    best, bi, bj = x, i, j
        if cut is None:
            cut = RANK_TOL * best
        if not best > cut:
            break
        prow = rows.pop(bi)
        free.remove(bj)
        p = prow[bj]
        for row in rows:
            f = row[bj] / p
            if f:
                for j in free:
                    row[j] -= f * prow[j]
        pivots.append((bj, prow))
    return pivots, free


def rank(m) -> int:
    """Numerical rank: the pivots of complete-pivoting elimination above
    RANK_TOL times the first (largest) pivot."""
    return len(_eliminate(_rows(m))[0])
