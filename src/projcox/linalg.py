"""Numerical rank and null spaces of small dense matrices over IEEE
doubles, with singular values measured against the largest one.
"""

from __future__ import annotations

import numpy as np

TOL_ALGEBRAIC = 1e-9
TOL_SINGULAR = 1e-12


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
