import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helpers import mat_power, reflection
from projcox import linalg
from projcox.errors import NormalizationError

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
    with pytest.raises(NormalizationError):
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


def test_rank_of_deficient_matrix():
    # fourth row zero, as in the semisimple concurrent [v]
    m = np.array([
        [2.0, -1.0, -4.0, -1.0],
        [-1.0, 2.0, -1.0, -4.0],
        [-4.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    assert linalg.rank(m) == 3
