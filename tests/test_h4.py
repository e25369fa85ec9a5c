"""Degree-4 Hodge algebra and the three UNSAT certificates."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4 import h4
from hk4.cli import main
from hk4.fujiki import fujiki4_pairing
from hk4.h4 import (
    OMEGA,
    TWIST,
    H4Class,
    _sym2_gram,
    boundary_value,
    contracted_surface_certificate,
    h4_pair,
    intersection_matrix,
    lagrangian_plane_certificate,
    ns_product,
    primitive_integer_form,
    resultant,
    root_scan,
    sigma_split_certificate,
)
from hk4.lattices import U2
from hk4.rationals import Q, RatPoly, divisors, is_integer

small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=4)
L2, LM, M2, QDUAL = H4Class(l2=1), H4Class(lm=1), H4Class(m2=1), H4Class(qdual=1)
W = RatPoly((Q(0), Q(1)))  # the unknown w, as a polynomial


def plus(x, y):
    """Test-only sum of two classes by coordinates; the engine builds each class whole."""
    return H4Class(*(a + b for a, b in zip(x.coords(), y.coords())))


def h4_classes():
    return st.builds(H4Class, small_rats, small_rats, small_rats, small_rats)


class TestPairing:
    def test_table(self):
        assert h4_pair(LM, QDUAL) == 25
        assert h4_pair(QDUAL, QDUAL) == 575
        assert h4_pair(L2, L2) == 0
        assert h4_pair(L2, M2) == 2
        assert h4_pair(LM, LM) == 2
        assert h4_pair(L2, LM) == 0
        assert h4_pair(M2, M2) == 0
        assert h4_pair(LM, M2) == 0
        assert h4_pair(L2, QDUAL) == 0
        assert h4_pair(M2, QDUAL) == 0

    def test_sigma_square_value(self):
        # <(1/2) lm + w (q-dual - (25/2) lm), same> = 1/2 + (525/2) w^2
        for w in (Q(0), Q(1, 5), Q(2, 5), Q(1), Q(-3, 5)):
            eta = plus(H4Class(lm=Q(1, 2)), H4Class(lm=-Q(25, 2), qdual=1).scale(w))
            assert h4_pair(eta, eta) == Q(1, 2) + Q(525, 2) * w * w

    @given(h4_classes(), h4_classes())
    @settings(max_examples=80)
    def test_symmetric(self, a, b):
        assert h4_pair(a, b) == h4_pair(b, a)

    @given(h4_classes(), h4_classes(), h4_classes(), small_rats)
    @settings(max_examples=80)
    def test_bilinear(self, a, b, c, t):
        left = h4_pair(plus(a, b.scale(t)), c)
        assert left == h4_pair(a, c) + t * h4_pair(b, c)

    def test_oracle_equivalence_with_fujiki4(self):
        rng = random.Random(20260810)
        for _ in range(50):
            alpha, beta, gamma, delta = (
                (rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)
            )
            assert h4_pair(ns_product(alpha, beta), ns_product(gamma, delta)) == fujiki4_pairing(
                alpha, beta, gamma, delta
            )


_GRAM = _sym2_gram()  # the dense Fraction Gram matrix, all 16 entries


def _dense_pair(x, y):
    """Test-only reference: the full 16-term sum over the Fraction Gram matrix."""
    xs, ys = x.coords(), y.coords()
    return sum(xs[i] * _GRAM[i][j] * ys[j] for i in range(4) for j in range(4))


# coordinates that are often exactly zero, as in the certificates' classes
sparse_rats = st.one_of(st.just(Q(0)), st.integers(-9, 9), small_rats)
sparse_classes = st.builds(H4Class, sparse_rats, sparse_rats, sparse_rats, sparse_rats)


class TestPairingIntegerGram:
    """h4_pair sums the 6 non-zero integer entries of H4; the reference sums all 16."""

    @given(sparse_classes, sparse_classes)
    @settings(max_examples=150)
    def test_matches_dense_sum(self, x, y):
        value = h4_pair(x, y)
        # an int would serialize as a JSON number instead of a "p/q" string
        assert type(value) is Fraction
        assert value == _dense_pair(x, y)

    def test_basis_table_matches_dense_sum(self):
        basis = (L2, LM, M2, QDUAL, H4Class())
        for x in basis:
            for y in basis:
                assert type(h4_pair(x, y)) is Fraction
                assert h4_pair(x, y) == _dense_pair(x, y)

    def test_coordinates_are_fractions(self):
        eta = H4Class(1, 0, Q(3, 2), -4)
        assert all(type(c) is Fraction for c in eta.coords())
        assert eta.coords() == (1, 0, Q(3, 2), -4)


def _root_scan_reference(c0, c1, c2):
    """Test-only reference: the rational root test by RatPoly evaluation on Fractions."""
    poly = RatPoly((Q(c0), Q(c1), Q(c2)))
    numerators = [d for dd in divisors(c0) for d in (dd, -dd)]
    integer_roots = sorted(r for r in numerators if poly(Q(r)) == 0)
    rational_roots = sorted(
        {Q(p, q) for p in numerators for q in divisors(c2) if poly(Q(p, q)) == 0}
    )
    return integer_roots, rational_roots


class TestRootScan:
    def test_plane_quadratic(self):
        assert root_scan(-525, 20, 92) == ([], [Q(-5, 2), Q(105, 46)])

    def test_random_quadratics_match_ratpoly_evaluation(self):
        rng = random.Random(20261018)
        nonzero = [k for k in range(-30, 31) if k]
        for _ in range(300):
            if rng.random() < 0.5:  # (a x + b)(c x + d): rational roots guaranteed
                a, b, c, d = (rng.choice(nonzero) for _ in range(4))
                c0, c1, c2 = b * d, a * d + b * c, a * c
            else:
                c0, c1, c2 = rng.choice(nonzero), rng.randint(-60, 60), rng.choice(nonzero)
            assert root_scan(c0, c1, c2) == _root_scan_reference(c0, c1, c2), (c0, c1, c2)

    def test_finds_integer_and_rational_roots(self):
        # (x - 3)(2x + 5) = 2 x^2 - x - 15
        assert root_scan(-15, -1, 2) == ([3], [Q(-5, 2), Q(3)])


class TestIntersectionMatrix:
    def test_table(self):
        assert intersection_matrix(LM) == ((0, 2), (2, 0))
        assert intersection_matrix(QDUAL) == ((0, 25), (25, 0))
        assert intersection_matrix(L2) == ((0, 0), (0, 2))
        assert intersection_matrix(M2) == ((2, 0), (0, 0))

    def test_symmetric_and_integral_for_integral_classes(self):
        rng = random.Random(3)
        for _ in range(25):
            eta = ns_product(
                (rng.randint(-4, 4), rng.randint(-4, 4)),
                (rng.randint(-4, 4), rng.randint(-4, 4)),
            )
            m = intersection_matrix(eta)
            assert m[0][1] == m[1][0]
            assert all(is_integer(x) for row in m for x in row)


class TestBoundaryWitness:
    def test_default_witness(self):
        assert U2.q(OMEGA) == 0
        assert U2.pair(OMEGA, (1, 0, 0, 0)) == U2.pair(OMEGA, (0, 1, 0, 0)) == 1

    def test_rejects_nonisotropic(self):
        with pytest.raises(ValueError):
            boundary_value(LM, (1, 1, 1, 1))

    def test_rejects_negative_pairing(self):
        with pytest.raises(ValueError):
            boundary_value(LM, (-1, 1, 1, 1))
        with pytest.raises(ValueError):
            boundary_value(LM, (1, -1, 1, 1))

    def test_values(self):
        assert boundary_value(LM, OMEGA) == 2
        assert boundary_value(QDUAL, OMEGA) == 0
        for w in (Q(0), Q(1, 5), Q(2)):
            eta = plus(H4Class(lm=Q(1, 2)), H4Class(lm=-Q(25, 2), qdual=1).scale(-w))
            assert boundary_value(eta, OMEGA) == 1 + 25 * w

    def test_nontrivial_witness(self):
        # q = 2*2*1 + 2*2*(-1) = 0
        w = (2, 1, 2, -1)
        assert boundary_value(LM, w) == 2 * 1 * 2
        assert boundary_value(L2, w) == 2
        assert boundary_value(M2, w) == 8

    def test_positivity_is_not_an_identity(self):
        # nonnegativity against boundary classes is an effectivity assumption;
        # the pairing itself happily goes negative on non-effective classes
        assert boundary_value(LM.scale(-1), OMEGA) == -2


class TestResultantMachinery:
    def test_univariate_resultant(self):
        # Res of (x - 2)(x - 3) and (x - 3) styles: common root makes it vanish
        p = [Q(6), Q(-5), Q(1)]  # x^2 - 5x + 6
        q = [Q(-3), Q(1)]  # x - 3
        assert resultant(p, q, Q(0)) == 0
        q2 = [Q(-4), Q(1)]  # x - 4
        assert resultant(p, q2, Q(0)) == (4 - 2) * (4 - 3)

    def test_primitive_integer_form(self):
        p = RatPoly((0, 0, -1050, 40, 184))
        prim, k = primitive_integer_form(p)
        assert k == 2
        assert prim == RatPoly((-525, 20, 92))

    def test_primitive_integer_form_makes_the_leading_coefficient_positive(self):
        prim, k = primitive_integer_form(RatPoly((525, -20, -92)))
        assert (prim, k) == (RatPoly((-525, 20, 92)), 0)
        assert all(type(c) is Fraction for c in prim.coeffs)


class TestLagrangianPlane:
    def test_certificate(self):
        v = lagrangian_plane_certificate()
        assert v["status"] == "UNSAT"
        assert v["quadratic"] == [Q(-525), Q(20), Q(92)]
        assert v["quadratic_resultant"] == [Q(-525), Q(20), Q(92)]
        assert v["roots"] == [Q(-5, 2), Q(105, 46)]
        assert v["integer_roots"] == []
        assert v["rational_roots"] == [Q(-5, 2), Q(105, 46)]
        assert v["discriminant"] == 193600 == 440**2

    def test_back_substitution(self):
        res = lagrangian_plane_certificate()
        back = res["back_substitution"]
        assert len(back) == 2 and all(b["consistent"] for b in back)
        # spot-check the x = -5/2 branch
        b = next(e for e in back if e["x"] == Q(-5, 2))
        assert (b["t"], b["u"]) == (Q(1, 2), Q(1, 20))


def _verify_plane_exit_code(capsys):
    code = main(["verify", "nefcone-plane"])
    capsys.readouterr()
    return code


class TestPlaneVerdictIsDerived:
    """Each half of the plane certificate's verdict can turn it SAT and fail verification."""

    def test_an_integer_root_makes_it_sat(self, monkeypatch, capsys):
        monkeypatch.setattr(h4, "root_scan", lambda c0, c1, c2: ([1], [Q(1)]))
        res = lagrangian_plane_certificate()
        assert res["status"] == "SAT"
        assert res["deduction"][2].endswith("divisors of 525: 1")
        assert _verify_plane_exit_code(capsys) == 1

    def test_an_integer_root_alone_makes_it_sat(self, monkeypatch, capsys):
        # the true rational roots back-substitute consistently, so only the integer root
        # can turn the verdict: this kills dropping `not integer_roots` from it
        real = h4.root_scan
        monkeypatch.setattr(h4, "root_scan", lambda c0, c1, c2: ([1], real(c0, c1, c2)[1]))
        res = lagrangian_plane_certificate()
        assert all(b["consistent"] for b in res["back_substitution"])
        assert res["quadratic"] == res["quadratic_resultant"]
        assert res["status"] == "SAT"
        assert _verify_plane_exit_code(capsys) == 1

    def test_a_root_that_does_not_back_substitute_makes_it_sat(self, monkeypatch, capsys):
        # no integer root, and the quadratics agree: only the back-substitution can turn it
        monkeypatch.setattr(h4, "root_scan", lambda c0, c1, c2: ([], [Q(1, 2)]))
        res = lagrangian_plane_certificate()
        assert res["quadratic"] == res["quadratic_resultant"] and res["integer_roots"] == []
        assert [b["consistent"] for b in res["back_substitution"]] == [False]
        assert res["status"] == "SAT"
        assert _verify_plane_exit_code(capsys) == 1

    def test_a_resultant_quadratic_that_differs_makes_it_sat(self, monkeypatch, capsys):
        real = h4.resultant

        def shifted(p, q, zero):
            r = real(p, q, zero)
            # only the last resultant of the chain, over Z[x], has scalar coefficients
            return r + 1 if type(r.coefficient(0)) is not RatPoly else r

        monkeypatch.setattr(h4, "resultant", shifted)
        res = lagrangian_plane_certificate()
        assert res["quadratic"] == [Q(-525), Q(20), Q(92)]
        assert res["quadratic_resultant"] != res["quadratic"]
        assert res["status"] == "SAT"
        assert _verify_plane_exit_code(capsys) == 1


class TestClassesAffineInW:
    """Coordinates may be polynomials in w; the pairings are then the polynomials in w."""

    def test_polynomial_coordinates_are_kept(self):
        eta = plus(H4Class(lm=Q(1, 2)), TWIST.scale(W))
        assert eta.lm == RatPoly((Q(1, 2), Q(-25, 2)))
        assert eta.qdual == W and type(eta.l2) is RatPoly

    def test_pairing_and_boundary_match_values_at_samples(self):
        # test-only oracle: the classes at fixed w, paired over the rationals
        rng = random.Random(20261018)
        for _ in range(20):
            x0, y0, x1, y1 = (H4Class(*(Q(rng.randint(-9, 9), rng.randint(1, 5))
                                        for _ in range(4))) for _ in range(4))
            x, y = plus(x0, x1.scale(W)), plus(y0, y1.scale(W))
            pair, bv = h4_pair(x, y), boundary_value(x)
            assert pair.degree <= 2 and bv.degree <= 1
            for w in (Q(-2), Q(0), Q(1, 5), Q(7, 3)):
                assert pair(w) == h4_pair(plus(x0, x1.scale(w)), plus(y0, y1.scale(w)))
                assert bv(w) == boundary_value(plus(x0, x1.scale(w)))

    def test_an_intersection_matrix_that_depends_on_w_raises(self, monkeypatch, capsys):
        # the invariant is reported, not raised: no case is refuted, so the status is SAT
        monkeypatch.setattr(h4, "TWIST", plus(TWIST, L2))
        res = contracted_surface_certificate()
        assert res["status"] == "SAT" and res["unsat_t"] == []
        assert main(["verify", "contract-surface"]) == 1
        out = capsys.readouterr().out
        assert "contract-surface: FAIL" in out and "raised" not in out


class TestContractedSurface:
    def test_certificate(self):
        res = contracted_surface_certificate()
        assert res["status"] == "UNSAT"
        cases = {c["t"]: c for c in res["cases"]}
        for t in (1, 2, 3, 4):
            c = cases[t]
            assert c["verdict"] == "UNSAT"
            assert c["forced_w"] == Q(t, 25)
            assert not is_integer(c["five_w"])
            assert c["M_S"] == ((t, -t), (-t, t))
            # 2 [S]^2 = 3 t^2 + 525 w^2
            assert c["two_S_sq"] == [3 * t * t, 0, 525]
            # boundary values t - 25w and 25w - t
            assert c["boundary_S"] == [t, -25]
            assert c["boundary_S_prime"] == [-t, 25]

    def test_probe_is_not_vacuous(self):
        res = contracted_surface_certificate()
        probe = next(c for c in res["cases"] if c["probe"])
        assert probe["t"] == 5
        assert probe["verdict"] == "SAT-candidate"
        assert probe["five_w"] == 1


class TestSigmaSplit:
    def test_certificate(self):
        v = sigma_split_certificate()
        assert v["status"] == "UNSAT"
        assert v["sigma1_sq"] == [Q(1, 2), 0, Q(525, 2)]
        assert v["sigma2_sq"] == v["sigma1_sq"]
        assert v["sigma1_sigma2"] == [Q(1, 2), 0, Q(-525, 2)]
        assert v["two_sigma1_sq"] == [1, 0, 525]
        assert v["two_sigma1_sigma2"] == [1, 0, -525]
        assert v["boundary_sigma2"] == [1, -25]
        assert v["boundary_sigma1"] == [1, 25]
        assert v["w_min_integrality"] == Q(1, 5)
        assert v["w_max_witness"] == Q(1, 25)

    def test_both_kill_paths_fire(self):
        v = sigma_split_certificate()
        by_w = {c["w"]: c for c in v["candidates"]}
        assert all(c["killed"] for c in v["candidates"])
        # w = 0: integrality kill (Sigma_1^2 = 1/2)
        assert any("integrality" in k for k in by_w[Q(0)]["kills"])
        # w = 2/5: 525 w^2 = 84 is even, integrality kill fires
        assert any("integrality" in k for k in by_w[Q(2, 5)]["kills"])
        # w = 1/5: 525 w^2 = 21 is an odd integer, so only the witness kills
        kills_15 = by_w[Q(1, 5)]["kills"]
        assert not any("integrality" in k for k in kills_15)
        assert any("witness" in k for k in kills_15)

    def test_sigma_sum_is_lm(self):
        # the two modeled classes always add up to the class of the surface lm,
        # and Sigma_1 . (Sigma_1 + Sigma_2) = Sigma_1 . lm = 1 for every w
        for w in (Q(0), Q(1, 5), Q(7, 5)):
            s1 = plus(H4Class(lm=Q(1, 2)), H4Class(lm=-Q(25, 2), qdual=1).scale(-w))
            s2 = plus(H4Class(lm=Q(1, 2)), H4Class(lm=-Q(25, 2), qdual=1).scale(w))
            assert plus(s1, s2).coords() == LM.coords()
            assert h4_pair(s1, LM) == 1


def _value(coeffs, w):
    return sum(c * w**k for k, c in enumerate(coeffs))


class TestDerivedValues:
    """Each value the certificates report is the root of the polynomial reported beside it."""

    def test_forced_w_is_the_root_of_both_boundary_values(self):
        for c in contracted_surface_certificate()["cases"]:
            assert _value(c["boundary_S"], c["forced_w"]) == 0
            assert _value(c["boundary_S_prime"], c["forced_w"]) == 0
            assert c["five_w"] == 5 * c["forced_w"]

    def test_w_denominator_bound_is_read_off_the_w2_coefficient(self):
        surface, split = contracted_surface_certificate(), sigma_split_certificate()
        for two_sq in [c["two_S_sq"] for c in surface["cases"]] + [split["two_sigma1_sq"]]:
            c = int(two_sq[2])
            assert c == 525
            # c w^2 integral with w = p/d in lowest terms: d^2 | c; brute-force the largest d
            bound = max(d for d in range(1, c + 1) if c % (d * d) == 0)
            assert bound == 5
        for case in surface["cases"]:
            assert case["five_w"] == bound * case["forced_w"]
        scan = [Q(0)] + [Q(p, bound) for p in range(1, 2 * bound + 1)]
        assert [c["w"] for c in split["candidates"]] == scan

    def test_w_max_is_the_root_of_the_sigma2_boundary_value(self):
        v = sigma_split_certificate()
        assert _value(v["boundary_sigma2"], v["w_max_witness"]) == 0

    def test_w_min_is_the_least_positive_scanned_w_with_525_w2_odd(self):
        v = sigma_split_certificate()
        w_min = v["w_min_integrality"]
        odd = [
            c["w"] for c in v["candidates"]
            if c["w"] > 0 and is_integer(525 * c["w"] ** 2) and 525 * c["w"] ** 2 % 2 == 1
        ]
        assert w_min == min(odd)
        # both intersection numbers are integers there: 2 Sigma^2 values are even
        assert _value(v["two_sigma1_sq"], w_min) % 2 == 0
        assert _value(v["two_sigma1_sigma2"], w_min) % 2 == 0
