"""Numerical rank of small dense matrices over IEEE doubles, with
singular values measured against the largest one.
"""

from __future__ import annotations

import numpy as np

TOL_ALGEBRAIC = 1e-9
TOL_SINGULAR = 1e-12
#: singular values at or below RANK_TOL * s_max count as zero
RANK_TOL = 1e-8


def rank(m) -> int:
    """Numerical rank: the singular values above RANK_TOL * s_max."""
    m = np.asarray(m, dtype=float)
    if m.size == 0:
        return 0
    return _rank_of_singular_values(np.linalg.svd(m, compute_uv=False))


def _rank_of_singular_values(s) -> int:
    """Number of the singular values s (descending) above RANK_TOL * s[0]."""
    s = s.tolist()
    cut = RANK_TOL * s[0]
    return sum(x > cut for x in s)
