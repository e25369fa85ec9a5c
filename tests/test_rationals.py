"""Exact scalar and polynomial layer: frozen examples plus property tests."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hk4.rationals import (
    Q,
    RatPoly,
    divisors,
    integer_valued_on,
    integrality_witness,
    is_integer,
    rational_from_string,
    ratio_to_string,
    sqrt_rational,
    squarefree_part,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
)


class TestSqrtRational:
    def test_examples(self):
        assert sqrt_rational(Q(25, 16)) == Q(5, 4)
        assert sqrt_rational(Q(0)) == 0
        assert sqrt_rational(Q(7)) is None
        assert sqrt_rational(Q(7, 4)) is None
        assert sqrt_rational(Q(193600)) == 440

    def test_negative_is_contract_violation(self):
        with pytest.raises(ValueError):
            sqrt_rational(Q(-1))

    @given(rationals)
    def test_square_root_squares_back(self, x):
        r = sqrt_rational(x * x)
        assert r is not None and r * r == x * x

    @given(rationals)
    def test_none_or_exact(self, x):
        if x < 0:
            return
        r = sqrt_rational(x)
        if r is not None:
            assert r * r == x and r >= 0


class TestFieldAxioms:
    @given(rationals, rationals)
    def test_addition_matches_cross_multiplication(self, x, y):
        s = x + y
        assert s == Fraction(
            x.numerator * y.denominator + y.numerator * x.denominator,
            x.denominator * y.denominator,
        )
        assert s.denominator >= 1
        from math import gcd

        assert gcd(s.numerator, s.denominator) == 1

    @given(rationals, rationals, rationals)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z


class TestSerialization:
    def test_strings(self):
        assert rational_from_string("25/32") == Q(25, 32)
        assert rational_from_string("7") == 7

    @given(rationals)
    def test_round_trip(self, x):
        assert rational_from_string(str(x)) == x

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**12))
    @example(0, 7)
    @example(-12, 8)
    @example(12, 1)
    def test_ratio_string_is_the_fraction_string(self, num, den):
        assert ratio_to_string(num, den) == str(Q(num, den))

    @pytest.mark.parametrize("den", [0, -3])
    def test_ratio_string_rejects_nonpositive_denominator(self, den):
        with pytest.raises(ValueError):
            ratio_to_string(1, den)

    @pytest.mark.parametrize("text", ["abc", "1/0", "3/00", "1.5", "1e9999999", " 3", "3/-4", "", "/2"])
    def test_rejects_anything_but_p_or_p_over_q(self, text):
        # decimals and exponents are not accepted: "1e9999999" would build a huge integer
        with pytest.raises(ValueError):
            rational_from_string(text)


class TestRatPoly:
    def test_zero_poly(self):
        z = RatPoly()
        assert not z and z.degree == -1 and z(Q(5)) == 0
        assert not RatPoly((0, 0))

    def test_eval_exact(self):
        p = RatPoly((Q(3), Q(5, 4), Q(1, 8)))
        assert p(2) == Q(6)
        assert p(Q(1)) == Q(35, 8)

    def test_arithmetic(self):
        p = RatPoly((2, 1))  # T + 2
        q = RatPoly((3, 1))  # T + 3
        assert p * q == RatPoly((6, 5, 1))
        assert p + q == RatPoly((5, 2))
        assert not (p - p)
        assert 2 * p == RatPoly((4, 2))

    def test_pretty(self):
        p = RatPoly((3, Q(5, 4), Q(1, 8)))
        assert p.pretty() == "1/8*T^2 + 5/4*T + 3"
        assert RatPoly((Q(-525), 20, 92)).pretty("x") == "92*x^2 + 20*x - 525"


class TestIntegerValuedOn:
    def test_even_progression(self):
        p = RatPoly((3, Q(5, 4), Q(1, 8)))
        assert integer_valued_on(p, 2, 0)
        assert not integer_valued_on(p, 1, 1)
        assert not integer_valued_on(p, 2, 1)

    def test_constant(self):
        for n in range(1, 5):
            assert integer_valued_on(RatPoly.constant(Q(n + 1)), 3, 7)

    def test_witness_exists_iff_not_integer_valued(self):
        p = RatPoly((3, Q(5, 4), Q(1, 8)))
        assert integrality_witness(p, 2, 0) is None
        w = integrality_witness(p, 2, 1)
        assert w is not None and not is_integer(p(w))

    @given(
        st.lists(rationals, min_size=1, max_size=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-10, max_value=10),
    )
    @settings(max_examples=60)
    def test_agrees_with_brute_force(self, coeffs, stride, offset):
        p = RatPoly(tuple(coeffs))
        brute = all(is_integer(p(Q(offset + stride * j))) for j in range(-50, 51))
        assert integer_valued_on(p, stride, offset) == brute


class TestMisc:
    def test_squarefree_part(self):
        assert squarefree_part(243) == 3
        assert squarefree_part(225) == 1
        assert squarefree_part(250) == 10
        assert squarefree_part(1) == 1

    def test_divisors(self):
        assert divisors(525) == [1, 3, 5, 7, 15, 21, 25, 35, 75, 105, 175, 525]
        assert divisors(-6) == [1, 2, 3, 6]
