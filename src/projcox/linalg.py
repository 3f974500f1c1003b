"""Small dense linear algebra over IEEE doubles.

Everything here works on plain numpy arrays of dimension at most 9
(the 3-simplex chart needs 4, the general n-simplex chart up to n+1).
Vectors and covectors are both 1-d arrays; a covector acts on a vector
through :func:`pair`.  All inputs are validated to be finite, and all
returned arrays are fresh copies so values can be shared freely.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NormalizationError

TOL_ALGEBRAIC = 1e-9
TOL_SINGULAR = 1e-12

MAX_DIM = 9


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-d float array of length <= MAX_DIM."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or not 1 <= v.shape[0] <= MAX_DIM:
        raise DimensionMismatch(f"expected 1-d array of length <= {MAX_DIM}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v.copy()


def as_matrix(x) -> np.ndarray:
    """Coerce to a finite square float matrix of size <= MAX_DIM."""
    m = np.asarray(x, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not 1 <= m.shape[0] <= MAX_DIM:
        raise DimensionMismatch(f"expected square matrix of size <= {MAX_DIM}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m.copy()


def _pair(a: np.ndarray, x: np.ndarray) -> float:
    if a.shape != x.shape:
        raise DimensionMismatch(f"covector length {a.shape[0]} vs vector length {x.shape[0]}")
    return float(a @ x)


def pair(a, x) -> float:
    """Evaluate the covector a on the vector x."""
    return _pair(as_vector(a), as_vector(x))


def reflection(a, v, tol: float = TOL_ALGEBRAIC) -> np.ndarray:
    """The projective reflection Id - v a^T fixing ker(a), with a(v) = 2."""
    a = as_vector(a)
    v = as_vector(v)
    p = _pair(a, v)
    if abs(p - 2.0) > tol:
        raise NormalizationError(f"a(v) = {p}, expected 2")
    return np.eye(a.shape[0]) - np.outer(v, a)


def mat_power(m, k: int) -> np.ndarray:
    """m**k for integer k >= 1, by repeated squaring."""
    m = as_matrix(m)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    result = np.eye(m.shape[0])
    base = m
    while k:
        if k & 1:
            result = result @ base
        k >>= 1
        if k:
            base = base @ base
    return result


def rank(m, tol: float = 1e-8) -> int:
    """Numerical rank with singular values below tol * s_max treated as zero."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False).tolist()
    if s[0] == 0.0:
        return 0
    cut = tol * s[0]
    return sum(x > cut for x in s)


def kernel_basis(m, tol: float = 1e-8) -> np.ndarray:
    """Orthonormal basis (rows) of the right null space of m."""
    m = np.asarray(m, dtype=float)
    _, s, vt = np.linalg.svd(m)
    smax = s[0] if s.size and s[0] > 0 else 1.0
    nullmask = np.zeros(vt.shape[0], dtype=bool)
    nullmask[: s.size] = s <= tol * smax
    nullmask[s.size:] = True
    return vt[nullmask].copy()
