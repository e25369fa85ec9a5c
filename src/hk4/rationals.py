"""Exact rational scalars and polynomials.

Every quantity in this package is a rational number and every check is an
identity or an integrality statement, so there is no floating point and no
tolerance anywhere: equality means equality.  The scalar type is the
standard-library ``fractions.Fraction`` (always stored in lowest terms,
denominator positive), aliased ``Q``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional

Q = Fraction  # the only scalar type in the engine


def rational_from_string(s: str) -> Q:
    """Parse "p" or "p/q" (signed, q != 0), the forms ``str(Q(x))`` writes."""
    if not re.fullmatch(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?", s):
        raise ValueError(f'expected "p" or "p/q" with q != 0, got {s!r}')
    return Q(s)


def ratio_to_string(num: int, den: int) -> str:
    """``str(Q(num, den))`` for integers with den > 0, reduced by one gcd, no Fraction built."""
    if den <= 0:
        raise ValueError("ratio_to_string requires a positive denominator")
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def sqrt_rational(x: Q) -> Optional[Q]:
    """Exact nonnegative square root of x, or None if x is not a square in Q.

    A reduced fraction p/q is a rational square iff p and q are both perfect
    squares, so the decision reduces to two integer square roots.
    """
    x = Q(x)
    if x < 0:
        raise ValueError("sqrt_rational requires a nonnegative argument")
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Q(rp, rq)
    return None


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n = s * (perfect square), for n >= 1."""
    if n < 1:
        raise ValueError("squarefree_part requires n >= 1")
    part, d = 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e % 2:
            part *= d
        d += 1
    return part * n


def divisors(n: int) -> list[int]:
    """Positive divisors of |n| (n nonzero), ascending."""
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of 0 requested")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def det_cofactor(rows, zero=0):
    """Determinant by cofactor expansion along the first row, over any exact ring.

    ``zero`` is the ring's zero (``0`` for integers, ``RatPoly()`` for
    polynomials); entries only need ``+``, ``-``, ``*`` and truthiness.
    """
    if len(rows) == 1:
        return rows[0][0]
    total = zero
    for c, entry in enumerate(rows[0]):
        if not entry:
            continue
        minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
        term = entry * det_cofactor(minor, zero)
        total = total + (term if c % 2 == 0 else -term)
    return total


class RatPoly:
    """Polynomial with exact coefficients, lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    Coefficients are normally rationals, but the arithmetic only ever uses
    ring operations, so nested RatPoly coefficients work too (this is what
    the resultant machinery in :mod:`hk4.h4` relies on).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c) -> "RatPoly":
        return RatPoly((c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return RatPoly(tuple(a[i] + b[i] if i < len(b) else a[i] for i in range(len(a))))

    __radd__ = __add__

    def __neg__(self):
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, RatPoly):
            other = RatPoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, RatPoly):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return RatPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return RatPoly(tuple(out))

    __rmul__ = __mul__

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    # pytest prints it for the records that hold polynomials when an assertion fails
    def __repr__(self):
        return f"RatPoly({self.coeffs!r})"

    def pretty(self, var: str = "T") -> str:
        """Human-readable form, highest degree first, exact rationals."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coefficient(k)
            if not c:
                continue
            if k == 0:
                term = str(c)
            else:
                mono = var if k == 1 else f"{var}^{k}"
                term = mono if c == 1 else (f"-{mono}" if c == -1 else f"{c}*{mono}")
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)


def is_integer(x) -> bool:
    return Q(x).denominator == 1


def integer_valued_on(P: RatPoly, stride: int, offset: int) -> bool:
    """Decide whether P(offset + stride*j) is an integer for every j in Z."""
    return integrality_witness(P, stride, offset) is None


def integrality_witness(P: RatPoly, stride: int, offset: int) -> Optional[Q]:
    """The first progression point T = offset + stride*j, j >= 0, with P(T) not an integer.

    Exact, no sampling: with Q(j) := P(offset + stride*j), the Newton expansion
    Q(j) = sum_k (Delta^k Q)(0) * binom(j, k) shows that Q is integer valued on Z
    iff Q(0), ..., Q(deg P) are integers, so None means P is integer valued on
    the whole progression.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    for j in range(max(P.degree, 0) + 1):
        t = Q(offset + stride * j)
        if not is_integer(P(t)):
            return t
    return None
