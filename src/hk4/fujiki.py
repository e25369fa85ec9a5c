"""Fujiki calculus and the Riemann-Roch polynomial engine.

For a hyper-Kahler manifold of dimension 2n the top self-intersection of a
degree-2 class is c_X * q(alpha)^n for a positive rational constant c_X; this
module implements the fiber degree a that relation gives an isotropic pair
(l, m), the dimension-4 four-class identity, the degree-n Riemann-Roch
polynomial (the n = 2 form from (c_X, A_X) and the principal fibration form),
and the Betti/Chern constraint arithmetic built on A_X = (7 c2^2 - 4 c4)/5760.
"""

from __future__ import annotations

from math import factorial

from .lattices import U
from .rationals import (
    Q,
    RatPoly,
    is_integer,
    sqrt_rational,
)

#: 288*A_X is an integer (c4 is divisible by 12); the admissible values are
#: the singleton 225 (rank-23 branch, A_X = 25/32) together with the integer
#: window [240, 262] (low-rank branch, 5/6 <= A_X <= 131/144).
ADMISSIBLE_288AX: tuple[int, ...] = (225,) + tuple(range(240, 263))

#: The admissible A_X values themselves, N/288 for N in ADMISSIBLE_288AX, and the
#: pairs (N, N/288) that ``guan_gate`` tests.
ADMISSIBLE_AX: tuple[Q, ...] = tuple(Q(n, 288) for n in ADMISSIBLE_288AX)
_ADMISSIBLE_PAIRS = tuple(zip(ADMISSIBLE_288AX, ADMISSIBLE_AX))


def a_from_fujiki(n: int, c_X, q_lm) -> Q:
    """The fiber polarization degree a = (1/n!) * integral(l^n m^n).

    Equals c_X * (2 q(l,m))^n * n!/(2n)!; integral whenever l, m are integral
    classes, which the caller asserts.
    """
    return Q(c_X) * (2 * Q(q_lm)) ** n * Q(factorial(n), factorial(2 * n))


def fujiki4_pairing(a1, a2, a3, a4) -> Q:
    """Four-class intersection number in dimension 4 for classes of U, at c_X = 3.

    3 * integral(a1 a2 a3 a4) = c_X * (q12 q34 + q13 q24 + q14 q23), and the
    K3^[2] Fujiki constant c_X = 3 cancels the 3.
    """
    q = U.pair
    return Q(q(a1, a2) * q(a3, a4) + q(a1, a3) * q(a2, a4) + q(a1, a4) * q(a2, a3))


class RRPolynomial:
    """Degree-n Riemann-Roch polynomial in the degree-2 quadratic invariant T.

    chi(X, L) = P(q(c1(L))); for a hyper-Kahler X, P has constant term n+1
    (= chi(O_X)), leading coefficient c_X/(2n)! and positive coefficients.
    """

    __slots__ = ("base", "n")

    def __init__(self, base: RatPoly, n: int):
        self.base = base
        self.n = n

    @property
    def c_X(self) -> Q:
        """Fujiki constant implied by the leading coefficient."""
        return self.base.coefficient(self.n) * factorial(2 * self.n)

    def __call__(self, t) -> Q:
        return self.base(Q(t))

    def pretty(self) -> str:
        return self.base.pretty("T")


def rr_from_cx_ax(c_X, A_X) -> RRPolynomial:
    """n = 2 Riemann-Roch polynomial (c_X/24) T^2 + sqrt(2 c_X A_X/3) T + 3.

    Raises ValueError when 2 c_X A_X/3 is not a rational square; the
    classifier calls this only for admitted q, where it is one.
    """
    c_X, A_X = Q(c_X), Q(A_X)
    mid_sq = 2 * c_X * A_X / 3
    mid = sqrt_rational(mid_sq)
    if mid is None:
        raise ValueError(f"sqrt({mid_sq}) is irrational: no rational RR polynomial")
    return RRPolynomial(base=RatPoly((Q(3), mid, c_X / 24)), n=2)


def rr_lagrangian_form(n: int) -> RRPolynomial:
    """binom(T/2 + n + 1, n), the polynomial of a principally polarized fibration.

    This is the fibration form binom(d + (T - q(m))/(2 q(l,m)) + n, n) at
    d = 1, q(l,m) = 1, q(m) = 0, the only case a command reports.  As
    binom(T/2 + n + 1, n) = prod_{i<n} (T + 2(n + 1 - i)) / (2^n n!), the
    product is multiplied out over the integers and each coefficient is
    divided once.
    """
    coeffs = [1]  # lowest degree first
    for i in range(n):
        c = 2 * (n + 1 - i)  # times (T + c)
        coeffs = [c * x + y for x, y in zip(coeffs + [0], [0] + coeffs)]
    den = 2**n * factorial(n)
    return RRPolynomial(base=RatPoly(Q(x, den) for x in coeffs), n=n)


def betti_profile(b2: int, b3: int) -> dict:
    """Betti/Chern bookkeeping of a hyper-Kahler fourfold from (b2, b3).

    c4 = 3(4 b2 + 16 - b3); the topological Euler characteristic c4 equals
    2 + 2 b2 - 2 b3 + b4 (simply connected, Poincare duality), which fixes
    b4; and A_X = (7 - c4/432)/8 with 288 A_X an integer.  Returns the keys
    b2, b3, b4, c4, A_X and violations.

    Violations are reported rather than silently filtered so the gate stays
    auditable; only b4 < 0 (and malformed input) raise.
    """
    if b2 < 3:
        raise ValueError("b2 >= 3 is required")
    if b3 < 0 or b3 % 2 != 0:
        raise ValueError("b3 must be a nonnegative even integer")
    c4 = 3 * (4 * b2 + 16 - b3)
    b4 = c4 - 2 - 2 * b2 + 2 * b3
    if b4 < 0:
        raise ValueError(f"negative b4 = {b4}")
    A_X = (7 - Q(c4, 432)) / 8
    violations = []
    if not is_integer(288 * A_X):
        violations.append(f"288*A_X = {288 * A_X} is not an integer (c4 not divisible by 12)")
    if b2 == 23:
        if b3 != 0:
            violations.append("rank-23 branch requires b3 = 0")
    elif b2 > 8:
        violations.append("b2 must be 23 or at most 8")
    else:
        if not (Q(5, 6) <= A_X <= Q(131, 144)):
            violations.append(f"A_X = {A_X} outside [5/6, 131/144] on the low-rank branch")
    return {"b2": b2, "b3": b3, "b4": b4, "c4": c4, "A_X": A_X, "violations": violations}


def guan_gate(t) -> frozenset[Q]:
    """Admissible A_X values with 4*A_X - t an integer, for t in [0, 1/3).

    Scans the exact admissible set {225/288} union {N/288 : 240 <= N <= 262};
    the unique hit over all such t is t = 1/8 with A_X = 25/32.  In integers,
    with A_X = N/288 and t = num/den, 4*A_X - t = (N*den - 72*num)/(72*den),
    so the test is (N*den - 72*num) % (72*den) == 0.

    Lemma: that congruence holds modulo den as well, so den | 72*num, and as
    num/den is in lowest terms, den | 72.  A den that does not divide 72
    admits no N, and the scan is skipped.
    """
    num, den = Q(t).as_integer_ratio()
    if not (0 <= num and 3 * num < den):
        raise ValueError("guan_gate requires t in [0, 1/3)")
    if 72 % den:
        return frozenset()
    mod, off = 72 * den, 72 * num
    return frozenset([ax for n, ax in _ADMISSIBLE_PAIRS if (n * den - off) % mod == 0])
