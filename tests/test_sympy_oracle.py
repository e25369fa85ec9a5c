"""sympy as an independent oracle: the nefcone-plane elimination, the Segre determinant, the b-window.

sympy is a test-only dependency: these tests are skipped when it is missing.
"""

import pytest

from hk4.classifier import gamma_search, sqrt_gate
from hk4.h4 import lagrangian_plane_certificate
from hk4.ledger import segre_certificate
from hk4.rationals import Q, sqrt_rational

sp = pytest.importorskip("sympy")
sqrt_mod = pytest.importorskip("sympy.ntheory.residue_ntheory").sqrt_mod

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
    assert det == cert["det_cofactor"] == cert["det_fraction_free"] == 70785


def _b_window_by_square_roots(a: int, A_X: Q) -> set:
    """{m/2 : m in (2 beta - a, 2 beta + a], m = a mod 2, m^2 = p mod 8a}, p = 32 a A_X.

    The roots of m^2 = p mod 8a come from sympy; each root class meets the
    window (of width 2a < 8a) at most once.  Empty unless p is an integer.
    """
    p, beta = 32 * a * A_X, sqrt_rational(8 * a * A_X)
    if p.denominator != 1:
        return set()
    lo, modulus = 2 * beta - a, 8 * a
    found = set()
    for r in sqrt_mod(int(p), modulus, all_roots=True):
        m = r + modulus * ((lo - r) // modulus + 1)  # the least m > lo with m = r mod 8a
        if m <= 2 * beta + a and (m - a) % 2 == 0:
            found.add(Q(m, 2))
    return found


def test_b_window_states_are_the_square_roots_mod_8a():
    pairs = 0
    for a in range(1, 301):
        for A_X in sqrt_gate(a):
            pairs += 1
            assert {s.b for s in gamma_search(a, A_X)} == _b_window_by_square_roots(a, A_X), (a, A_X)
    assert pairs > 0
