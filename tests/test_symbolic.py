"""Symbolic proofs of the facts the standard-chart solve relies on in
place of run-time checks (charts.standard_solution): the signs of the
cofactors of M3 = M[:3, :3], det M3 <= -8, that the solve is Cramer's
rule on those cofactors, and the row-4 relation that makes a2 negative
below a4*v44 = 2.  The solve itself runs on the symbols: it is written
in operators only, so it returns the expressions it evaluates.

Each sign is proved on the whole chart, not sampled: the chart's
coordinates are written through variables that range over [0, inf) or
(0, inf), and a rational function is positive where its numerator and
denominator are polynomials with nonnegative coefficients and a
positive monomial in the open variables alone.
"""

import types

import pytest

from projcox import charts
from projcox.orbifold import INFINITY

sp = pytest.importorskip("sympy")

# open variables, each in (0, inf): the |v| of the chart, |v23| = x,
# and a gap below a4*v44 = 2
x, w24, w34, gap = sp.symbols("x w24 w34 gap", positive=True)
# closed variables, each in [0, inf): T = 4 + t, and mu = (1 + 4y) / (1
# + y), which runs over [1, 4) as y runs over [0, inf), the range of
# 4 cos^2(pi / n) for orders n >= 3
t13, t24, y12, y23, y14, y34 = sp.symbols("t13 t24 y12 y23 y14 y34", nonnegative=True)
OPEN = (x, w24, w34, gap)
CLOSED = (t13, t24, y12, y23, y14, y34)


def mu(y):
    return (1 + 4 * y) / (1 + y)


MU12, MU23, MU14, MU34 = map(mu, (y12, y23, y14, y34))
T13, T24 = 4 + t13, 4 + t24
V23, V24, V34 = -x, -w24, -w34
H = MU23 / V23

#: the rows of standard_cartan
M = sp.Matrix([[2, -MU12, -T13, -1],
               [-1, 2, V23, V24],
               [-1, H, 2, V34],
               [-MU14, T24 / V24, MU34 / V34, 2]])
M3 = M[:3, :3]
R = M[3, :3]

#: the cofactors as charts.standard_solution's docstring writes them
COFACTORS = ((4 - MU23, 2 - V23, 2 - H),
             (2 * MU12 - T13 * H, 4 - T13, MU12 - 2 * H),
             (2 * T13 - MU12 * V23, T13 - 2 * V23, 4 - MU12))

#: (a1, a2, a3, a4*v44, det3) of the solve on the symbols, its float
#: literals 2.0, 4.0 and 8.0 read as the integers they are
A1, A2, A3, A4_V44, DET3 = (
    e.xreplace({f: sp.Rational(f) for f in e.atoms(sp.Float)})
    for e in charts.standard_solution(
        # the quad prism's order table as orbifold._quad_prism_mu reads it,
        # any finite order >= 3 standing for the symbolic mu beside it
        types.SimpleNamespace(size=4, mu_table=(
            ((1, 2), 3, MU12), ((1, 3), INFINITY, None), ((1, 4), 3, MU14),
            ((2, 3), 3, MU23), ((2, 4), INFINITY, None), ((3, 4), 3, MU34))),
        T13, T24, V23, V24, V34))


def _certified(poly) -> bool:
    """Whether a polynomial is positive on the chart: nonnegative
    coefficients and a positive monomial free of the closed variables."""
    p = sp.Poly(sp.expand(poly), *OPEN, *CLOSED)
    terms = p.terms()
    return (all(c >= 0 for _, c in terms)
            and any(c > 0 and not any(e[len(OPEN):]) for e, c in terms))


def sign(expr) -> int:
    """+1 or -1 where a certificate proves that sign over the whole
    chart, else 0."""
    num, den = sp.fraction(sp.cancel(sp.together(expr)))
    for s in (1, -1):
        if (_certified(s * num) and _certified(den)) or (
                _certified(-s * num) and _certified(-den)):
            return s
    return 0


def test_certificate_is_not_vacuous():
    """The certificate proves neither sign of an expression that takes
    both, nor of one that vanishes somewhere on the chart."""
    assert sign(x - 1) == 0
    assert sign(t13) == 0
    assert sign(x) == 1 and sign(-T13) == -1


def test_solve_is_cramers_rule():
    """C_ij is the (i, j) cofactor of M3 and det3 its determinant, so
    M3^T C = det3 I, and the solve's a_i is sum_j C_ij r_j / det3: it
    solves M3^T a = r^T, which is alpha_4(v_j) = M4j for j = 1..3."""
    for i in range(3):
        for j in range(3):
            assert sp.cancel(COFACTORS[i][j] - M3.cofactor(i, j)) == 0, (i, j)
    assert sp.cancel(DET3 - M3.det()) == 0
    assert all(sp.cancel(e) == 0 for e in M3.T * sp.Matrix(COFACTORS) - DET3 * sp.eye(3))
    for a, row in zip((A1, A2, A3), COFACTORS):
        assert sp.cancel(a - sum(c * r for c, r in zip(row, R)) / DET3) == 0


@pytest.mark.parametrize("i, j", [(0, 0), (0, 1), (0, 2), (2, 0), (2, 1), (2, 2)])
def test_cofactors_of_a1_and_a3_are_positive(i, j):
    assert sign(COFACTORS[i][j]) == 1


def test_right_hand_side_is_negative():
    assert [sign(r) for r in R] == [-1, -1, -1]


def test_det3_is_at_most_minus_8():
    """x (det3 + 8) = -(x - 2)^2 - (p x^2 + 2 (p + q + t) x + t + 4 q +
    t q) with v23 = -x, T13 = 4 + t, mu12 = 1 + p and mu23 = 1 + q: a
    square and a polynomial with nonnegative coefficients, so det3 <= -8
    wherever mu >= 1, T13 >= 4 and v23 < 0."""
    p, q, t = sp.symbols("p q t", nonnegative=True)
    # y = p / (3 - p) is the y of mu = 1 + p
    det3 = DET3.subs({y12: p / (3 - p), y23: q / (3 - q), t13: t})
    rest = p * x**2 + 2 * (p + q + t) * x + t + 4 * q + t * q
    assert sp.cancel(x * (det3 + 8) + (x - 2) ** 2 + rest) == 0
    assert all(c > 0 for c in sp.Poly(rest, x, p, q, t).coeffs())
    assert sign(DET3) == -1


@pytest.mark.parametrize("i, a", [(0, A1), (2, A3)], ids=["a1", "a3"])
def test_each_term_of_a1_and_a3_is_positive(i, a):
    """C_ij / det3 * r_j > 0 for each j, and the solve's a1, a3 > 0 on
    the chart."""
    for j in range(3):
        assert sign(COFACTORS[i][j]) * sign(DET3) * sign(R[j]) == 1
    assert sign(a) == 1


def test_row_4_makes_a2_negative_below_two():
    """alpha_4(v_4) = M44 = 2 with v_4 = (M14, M24, M34, v44) gives a4*v44
    = 2 + a1 - v24 a2 - v34 a3, the solve's, that is v24 a2 = 2 + a1 +
    |v34| a3 - a4*v44: with a1, a3 > 0 and v24 < 0, a2 < 0 wherever
    a4*v44 < 2, and a2 may take either sign beyond."""
    a1, a2, a3, a4_v44 = sp.symbols("a1 a2 a3 a4_v44")
    row4 = a1 * M[0, 3] + a2 * M[1, 3] + a3 * M[2, 3] + a4_v44
    (solved,) = sp.solve(sp.Eq(row4, M[3, 3]), a4_v44)
    at_solve = {a1: A1, a2: A2, a3: A3}
    assert sp.expand(solved.xreplace(at_solve) - A4_V44) == 0
    assert sp.expand(V24 * a2 - (2 + a1 + w34 * a3 - solved)) == 0
    # a4*v44 = 2 - gap, with the solve's a1 and a3
    assert sign((gap + A1 + w34 * A3) / V24) == -1
    assert sign(A2) == 0
