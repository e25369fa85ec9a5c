"""sympy as an independent oracle for the nefcone-plane elimination and the Segre determinant.

sympy is a test-only dependency: these tests are skipped when it is missing.
"""

import pytest

from hk4.h4 import lagrangian_plane_certificate
from hk4.ledger import SEGRE_DET_GOLDEN, segre_certificate
from hk4.rationals import Q

sp = pytest.importorskip("sympy")

t, u, x = sp.symbols("t u x")

# the three plane equations in (t, u) over x = q(A), as in lagrangian_plane_certificate
SELF_INTERSECTION = 3 * t**2 * x**2 + 50 * t * u * x + 575 * u**2 - 3
SECOND_CHERN = sp.Rational(6, 5) * (25 * t * x + 575 * u) + 3
RESTRICTION = 3 * t * x**2 + 25 * u * x - x**2


def _primitive_coefficients(expr) -> list:
    """Low-first coefficients of expr / (content * x^k), with a positive leading coefficient."""
    _, stripped = sp.Poly(expr, x).terms_gcd()
    _, prim = sp.Poly(stripped.as_expr(), x).primitive()
    if prim.LC() < 0:
        prim = -prim
    return [int(c) for c in reversed(prim.all_coeffs())]


def test_resultant_chain_gives_the_plane_quadratic():
    r13 = sp.resultant(SELF_INTERSECTION, RESTRICTION, t)
    r23 = sp.resultant(SECOND_CHERN, RESTRICTION, t)
    chained = sp.resultant(r13, r23, u)
    assert _primitive_coefficients(chained) == [-525, 20, 92]
    cert = lagrangian_plane_certificate()
    assert cert["quadratic_resultant"] == [-525, 20, 92]
    assert cert["quadratic"] == [-525, 20, 92]


def test_roots_of_the_plane_quadratic():
    roots = sp.roots(sp.Poly(92 * x**2 + 20 * x - 525, x))
    assert roots == {sp.Rational(105, 46): 1, sp.Rational(-5, 2): 1}
    cert = lagrangian_plane_certificate()
    expected = sorted(Q(int(r.p), int(r.q)) for r in roots)
    assert cert["roots"] == cert["rational_roots"] == expected
    assert cert["integer_roots"] == [r for r in expected if r.denominator == 1] == []


def test_segre_determinant():
    cert = segre_certificate()
    det = sp.Matrix(cert["matrix"]).det()
    assert det == cert["det_cofactor"] == cert["det_fraction_free"] == SEGRE_DET_GOLDEN == 70785
