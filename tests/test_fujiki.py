"""Fujiki calculus and Riemann-Roch engine: frozen values and oracles."""

import itertools
import random
from math import factorial, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4 import ledger
from hk4.classifier import classify
from hk4.fujiki import (
    ADMISSIBLE_288AX,
    ADMISSIBLE_AX,
    RRPolynomial,
    a_from_fujiki,
    betti_profile,
    fujiki4_pairing,
    guan_gate,
    rr_from_cx_ax,
    rr_lagrangian_form,
)
from hk4.lattices import U, QuadLattice
from hk4.rationals import Q, RatPoly, integer_valued_on, is_integer


def rr_violations(rr) -> tuple[str, ...]:
    """Test-only oracle: how an RR polynomial of degree n fails the paper's structural
    properties (degree n, constant term n+1 = chi(O_X), positive coefficients)."""
    base, n = rr.base, rr.n
    out = []
    if base.degree != n:
        out.append(f"degree {base.degree} != n = {n}")
    if base.coefficient(0) != n + 1:
        out.append(f"constant term {base.coefficient(0)} != n+1 = {n + 1}")
    if any(base.coefficient(k) <= 0 for k in range(n + 1)):
        out.append("not all coefficients are positive")
    return tuple(out)


class TestReportedRRPolynomials:
    """Every RR polynomial a command reports has the structural properties."""

    def test_admitted_rr_of_every_classified_a(self):
        admitted = [opt.rr for a in range(1, 9) for sol in classify(a).solutions
                    for opt in sol.q_options]
        assert admitted  # a = 1, 3, 4 admit q
        for rr in admitted:
            assert rr_violations(rr) == (), rr.pretty()

    def test_ledger_rr(self):
        assert rr_violations(ledger.RR) == ()

    def test_principal_fibration_forms(self):
        # the scenario's principal case for n != 2 reports rr_lagrangian_form(n)
        for n in range(1, 6):
            assert rr_violations(rr_lagrangian_form(n)) == (), n


class TestPolarizedPairing:
    def test_a_examples(self):
        assert a_from_fujiki(2, 3, 1) == 1
        assert a_from_fujiki(2, 9, 1) == 3
        assert a_from_fujiki(5, 945, 1) == 1

    def test_a_is_pairing_over_factorial(self):
        def polarized_pairing_n(n, c_X, q_lm):
            # polarizing the Fujiki relation at q(l) = 0 gives
            # (1/2^n) binom(2n, n) * integral(l^n m^n) = c_X q(l, m)^n
            return Q(c_X) * Q(q_lm) ** n * Q(2**n * factorial(n) ** 2, factorial(2 * n))

        assert polarized_pairing_n(2, 3, 1) == 2  # integral(l^2 m^2) = 2a with a = 1
        for n in range(1, 7):
            for q_lm in range(1, 6):
                c = Q(7, 3)
                assert a_from_fujiki(n, c, q_lm) == polarized_pairing_n(n, c, q_lm) / factorial(n)


class TestFujiki4:
    def test_examples(self):
        l, m = (1, 0), (0, 1)
        assert fujiki4_pairing(l, l, m, m) == 2
        assert fujiki4_pairing(l, l, l, m) == 0
        assert fujiki4_pairing((1, 1), (1, 1), (-1, 1), l) == 2

    def test_permutation_symmetry(self):
        rng = random.Random(20260810)
        for _ in range(50):
            classes = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
            base = fujiki4_pairing(*classes)
            for perm in itertools.permutations(classes):
                assert fujiki4_pairing(*perm) == base

    def test_binomial_expansion_oracle(self):
        # the x^2 y^2 coefficient of integral((x*l + y*m)^4) is 6 * integral(l^2 m^2)
        for gram in (((0, 1), (1, 0)), ((2, 1), (1, 0)), ((2, 3), (3, -4))):
            lat = QuadLattice(gram)
            for c in (Q(3), Q(7, 2)):
                # integral(alpha^4) = c_X q(alpha)^2, the Fujiki relation in dimension 4
                values = [c * lat.q((x, 1)) ** 2 for x in range(-2, 3)]
                # interpolate the degree-4 polynomial p(x) = integral((x*l + m)^4)
                coeff = _interp_coefficient(values, list(range(-2, 3)), 2)
                assert coeff == 6 * fujiki4_general(c, lat, (1, 0), (1, 0), (0, 1), (0, 1))

    def test_engine_is_the_general_identity_on_U_at_c_X_3(self):
        rng = random.Random(20260811)
        for _ in range(50):
            classes = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
            assert fujiki4_pairing(*classes) == fujiki4_general(3, U, *classes)


def fujiki4_general(c_X, lattice, a1, a2, a3, a4):
    """Test-only oracle: the four-class identity on any lattice and any Fujiki constant,
    3 * integral(a1 a2 a3 a4) = c_X * (q12 q34 + q13 q24 + q14 q23)."""
    q = lattice.pair
    return Q(c_X) * (q(a1, a2) * q(a3, a4) + q(a1, a3) * q(a2, a4) + q(a1, a4) * q(a2, a3)) / 3


def _interp_coefficient(values, points, k):
    """Coefficient of x^k of the unique degree<=4 polynomial through the samples."""
    from hk4.rationals import RatPoly

    total = RatPoly()
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = RatPoly.constant(Q(yi))
        for j, xj in enumerate(points):
            if i != j:
                term = term * RatPoly((-xj, 1)) * Q(1, xi - xj)
        total = total + term
    return total.coefficient(k)


class TestRRFromCxAx:
    def test_k3_square_numbers(self):
        rr = rr_from_cx_ax(3, Q(25, 32))
        assert rr.base.coeffs == (3, Q(5, 4), Q(1, 8))
        assert rr.c_X == 3

    def test_triple_kummer_numbers(self):
        rr = rr_from_cx_ax(9, Q(27, 32))
        assert rr.base.coeffs == (3, Q(9, 4), Q(3, 8))

    def test_irrational_witness(self):
        # 2 c_X A_X / 3 = 7/4 is not a rational square
        with pytest.raises(ValueError, match="7/4"):
            rr_from_cx_ax(3, Q(7, 8))

    def test_integer_valued_on_even_not_odd(self):
        rr = rr_from_cx_ax(3, Q(25, 32))
        assert integer_valued_on(rr.base, 2, 0)
        assert not integer_valued_on(rr.base, 2, 1)
        assert not integer_valued_on(rr.base, 1, 0)


def fibration_form(n, d, q_lm, q_m) -> RRPolynomial:
    """Test-only oracle: the general fibration form binom(d + (T - q(m))/(2 q(l,m)) + n, n),
    multiplied out as prod_{i<n} (x - i) / n! in Fraction coefficients."""
    x = RatPoly((Q(d + n) - Q(q_m, 2 * q_lm), Q(1, 2 * q_lm)))
    base = RatPoly.constant(Q(1))
    for i in range(n):
        base = base * (x - i)
    return RRPolynomial(base=base * Q(1, factorial(n)), n=n)


class TestRRLagrangianForm:
    @pytest.mark.parametrize("n", [*range(1, 61), 100, 200, 400])
    def test_is_the_general_form_at_the_principal_case(self, n):
        rr, general = rr_lagrangian_form(n), fibration_form(n, 1, 1, 0)
        assert (rr.n, rr.base) == (general.n, general.base)

    def test_dimension_four(self):
        rr = rr_lagrangian_form(2)
        assert rr.base.coeffs == (3, Q(5, 4), Q(1, 8))

    def test_dimension_ten(self):
        rr = rr_lagrangian_form(5)
        assert rr.c_X == 945
        assert rr.base.coefficient(0) == 6
        # spot values: binom(k + 6, 5) = (k + 6)(k + 5)...(k + 2)/5! at T = 2k, for every integer k
        for k in range(-8, 9):
            assert rr(2 * k) == prod(range(k + 2, k + 7)) // factorial(5)

    def test_constant_term_gate(self):
        rr = fibration_form(2, 0, 1, 0)
        assert rr.base.coefficient(0) == 1
        assert any("constant term" in v for v in rr_violations(rr))

    def test_scaled_form_matches_value_polynomial(self):
        # d = 1, q(l,m) = 1, q(m) = 0 in dimension 4 reproduces binom(T/2+3, 2)
        rr = rr_lagrangian_form(2)
        assert rr(2) == 6 and rr(4) == 10 and rr(-2) == 1 and rr(-4) == 0


class TestBettiProfile:
    def test_rank_23(self):
        p = betti_profile(23, 0)
        assert (p["c4"], p["b4"], p["A_X"]) == (324, 276, Q(25, 32))
        assert p["violations"] == []

    def test_low_rank_triples(self):
        for b2, b3, b4 in ((7, 8, 108), (6, 4, 102), (5, 0, 96)):
            p = betti_profile(b2, b3)
            assert (p["b2"], p["b3"], p["b4"]) == (b2, b3, b4)
            assert p["A_X"] == Q(27, 32) and p["c4"] == 108 and p["violations"] == []

    def test_euler_characteristic_consistency(self):
        p = betti_profile(5, 0)
        assert 2 + 2 * p["b2"] - 2 * p["b3"] + p["b4"] == p["c4"] == 108

    def test_negative_b4_rejected(self):
        with pytest.raises(ValueError):
            betti_profile(3, 78)  # b4 = 10*3 + 46 - 78 < 0

    def test_bad_input_rejected(self):
        with pytest.raises(ValueError):
            betti_profile(2, 0)
        with pytest.raises(ValueError):
            betti_profile(5, 3)

    def test_violations_reported_not_raised(self):
        p = betti_profile(5, 2)  # c4 = 102 not divisible by 12
        assert any("288*A_X" in v for v in p["violations"])

    def test_ax_window_on_low_rank_branch(self):
        # restricted to c4 >= 0 (i.e. b3 <= 4 b2 + 16); exact comparisons
        for b2 in range(3, 9):
            for b3 in range(0, 4 * b2 + 17, 2):
                p = betti_profile(b2, b3)
                assert Q(5, 6) <= p["A_X"] <= Q(131, 144)

    def test_admissible_values_cover_both_branches(self):
        vals = ADMISSIBLE_AX
        assert Q(25, 32) in vals
        assert vals[1] == Q(5, 6) and vals[-1] == Q(131, 144)
        assert len(ADMISSIBLE_288AX) == 24


class TestGuanGate:
    def test_unique_hit(self):
        assert guan_gate(Q(1, 8)) == frozenset({Q(25, 32)})
        assert guan_gate(0) == frozenset()
        assert guan_gate(Q(1, 4)) == frozenset()

    def test_domain(self):
        with pytest.raises(ValueError):
            guan_gate(Q(1, 3))

    def test_every_admitted_ax_is_admissible(self):
        for den in range(1, 25):
            for num in range(den):
                t = Q(num, den)
                if t >= Q(1, 3):
                    continue
                for ax in guan_gate(t):
                    assert is_integer(288 * ax)
                    assert is_integer(4 * ax - t)

    def test_rejects_t_outside_the_window(self):
        for t in (Q(-1, 7), Q(1, 3), Q(1, 2), 1):
            with pytest.raises(ValueError):
                guan_gate(t)


def _guan_gate_reference(t):
    """Test-only Fraction reference: the admissible A_X with 4*A_X - t an integer."""
    return frozenset(ax for ax in ADMISSIBLE_AX if is_integer(4 * ax - t))


class TestGuanGateIntegerIdentity:
    """guan_gate decides 4*N/288 - num/den in Z in integers; the reference uses Fractions."""

    def test_every_reduced_t_with_denominator_up_to_120(self):
        hits = []
        for den in range(1, 121):
            for num in range(den):
                if gcd(num, den) != 1 or 3 * num >= den:
                    continue
                t = Q(num, den)
                assert guan_gate(t) == _guan_gate_reference(t), t
                if guan_gate(t):
                    hits.append(t)
        assert hits == [Q(1, 8)]  # the unique hit over every t, as the docstring says

    @given(st.fractions(min_value=0, max_value=Q(1, 3), max_denominator=10**6))
    @settings(max_examples=200)
    def test_random_t(self, t):
        if t == Q(1, 3):
            return
        assert guan_gate(t) == _guan_gate_reference(t)


class TestGuanGateLemma:
    """With t = num/den in lowest terms, 72*den | N*den - 72*num forces den | 72."""

    def test_every_reduced_t_with_denominator_up_to_240(self):
        hits = []
        for den in range(1, 241):
            for num in range(den):
                if gcd(num, den) != 1 or 3 * num >= den:
                    continue
                t = Q(num, den)
                # the whole scan, with no early exit on the denominator
                scan = frozenset([Q(n, 288) for n in ADMISSIBLE_288AX
                                  if (n * den - 72 * num) % (72 * den) == 0])
                assert guan_gate(t) == scan, t
                if 72 % den:
                    assert scan == frozenset(), t
                if scan:
                    hits.append(t)
        assert hits == [Q(1, 8)]
