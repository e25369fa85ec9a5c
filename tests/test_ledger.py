"""Chi bookkeeping, Segre certificate, plane cohomology, Mukai arithmetic."""

import random
from math import comb

import pytest

from hk4.fujiki import fujiki4_pairing, rr_from_cx_ax
from hk4.lattices import U
from hk4.ledger import (
    RR,
    bott_p2,
    chi_table,
    k3_exceptional_checks,
    koszul_counts,
    mukai_solve,
    segre_certificate,
    segre_row,
    to_markdown,
)
from hk4.rationals import Q


def chi_formula(pq: int) -> int:
    """binom(pq + 3, 2) in integers, the generalized binomial for every integer pq."""
    return (pq + 3) * (pq + 2) // 2


def chi_by_pq(table: dict) -> dict:
    """The ledger entries of ``chi_table`` keyed by (p, q)."""
    return {(e["p"], e["q"]): e for e in table["entries"]}


class TestChiTable:
    def test_pinned_values(self):
        chi = {pq: e["chi"] for pq, e in chi_by_pq(chi_table()).items()}
        assert chi[1, 1] == 6
        assert chi[2, 1] == 10
        assert chi[3, 2] == 36
        assert chi[2, 2] == 21
        assert chi[3, 1] == 15
        assert chi[1, -1] == 1  # P_RR(-2)
        assert chi[2, -1] == 0  # P_RR(-4)
        assert chi[0, 1] == 3
        assert chi[0, -1] == 3
        assert chi[1, -2] == 0

    def test_w_dimensions_and_k_l(self):
        t = chi_table()
        assert (t["W6"], t["W10"], t["W36"]) == (6, 10, 36)
        assert t["k_L"] == 1

    def test_matches_binomial_everywhere(self):
        # chi(L^p M^q) = P_RR(q(pl + qm)) = P_RR(2pq), pinned or not
        for p in range(-6, 7):
            for q in range(-6, 7):
                assert RR(2 * p * q) == chi_formula(p * q)
                assert RR(2 * p * q) == RR(U.q((p, q)))
        for (p, q), e in chi_by_pq(chi_table()).items():
            assert e["bbf_value"] == U.q((p, q))
            assert e["chi"] == RR(e["bbf_value"]) == chi_formula(p * q)

    def test_promotion_sources_are_distinguished(self):
        entry = chi_by_pq(chi_table())
        assert entry[1, 1]["h0_source"] != entry[2, 2]["h0_source"]
        assert entry[1, 0]["h0_source"] is not None
        assert entry[1, -1]["h0_source"] is None

    def test_markdown_renders(self):
        text = to_markdown(chi_table())
        assert "| 3 | 2 | 12 | 36 |" in text
        assert "k_L = 1" in text


class TestKoszul:
    def test_counts_on_the_contradiction_branch(self):
        rep = koszul_counts()
        assert rep["ideal_LM"] == 1
        assert rep["ideal_L2M2"] == 10 + 10 - 6 == 14
        assert rep["restricted_L2M2"] == 21 - 14 == 7
        assert rep["restriction_rank_LM"] == 6 - 1 == 5
        assert rep["quadric_lower_bound"] == comb(6, 2) - 7 == 8
        assert rep["castelnuovo_max"] == comb(3, 2) == 3
        assert rep["contradiction"]


class TestSegre:
    def test_displayed_rows(self):
        assert segre_row(8) == (45, -120, 210, -252)
        assert segre_row(9) == (-55, 165, -330, 462)
        assert segre_row(10) == (66, -220, 495, -792)
        assert segre_row(11) == (-78, 286, -715, 1287)

    def test_certificate(self):
        sys_ = segre_certificate()
        assert sys_["determinant"] == 70785
        assert sys_["det_cofactor"] == sys_["det_fraction_free"]
        assert sys_["rank"] == 4

    def test_rows_against_power_series_oracle(self):
        # validate the twist identity s_i(E*H) = sum (-1)^j binom(i+2, j) H^j s_{i-j}(E)
        # for rank-3 bundles, by exact Chern-root specialization
        def series_mul(a, b, n):
            out = [Q(0)] * n
            for i, s in enumerate(a[:n]):
                for j, t in enumerate(b[: n - i]):
                    out[i + j] += s * t
            return out

        def series_inv(c, n):
            s = [Q(0)] * n
            s[0] = Q(1)
            for k in range(1, n):
                s[k] = -sum(c[j] * s[k - j] for j in range(1, min(k, len(c) - 1) + 1))
            return s

        rng = random.Random(11)
        n = 13
        for _ in range(10):
            roots = [rng.randint(-4, 4) for _ in range(3)]
            h = rng.randint(-4, 4)
            c_e, c_eh = [Q(1)], [Q(1)]
            for r in roots:
                c_e = series_mul(c_e, [Q(1), Q(r)], n)
                c_eh = series_mul(c_eh, [Q(1), Q(r + h)], n)
            s_e, s_eh = series_inv(c_e, n), series_inv(c_eh, n)
            for i in range(8, 12):
                pred = sum(
                    (-1) ** j * comb(i + 2, j) * Q(h) ** j * s_e[i - j]
                    for j in range(0, i + 1)
                    if i - j < n
                )
                assert pred == s_eh[i]


class TestBott:
    def test_pinned_values(self):
        assert bott_p2(0, 1) == (3, 0, 0)
        assert bott_p2(1, 1) == (0, 0, 0)
        assert bott_p2(2, 1) == (0, 0, 0)

    def test_known_middle_cohomology(self):
        assert bott_p2(1, 0) == (0, 1, 0)
        assert bott_p2(1, 2) == (3, 0, 0)
        assert bott_p2(0, -3) == (0, 0, 1)

    def test_serre_duality(self):
        for q in (0, 1, 2):
            for d in range(-4, 5):
                hs = bott_p2(q, d)
                dual = bott_p2(2 - q, -d)
                assert hs == tuple(reversed(dual))

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            bott_p2(3, 1)


def mukai_pairing(v, w) -> int:
    """Test-only oracle: <(r, c, s), (r', c', s')> = 2 c c' - r s' - r' s (with H^2 = 2)."""
    return 2 * v[1] * w[1] - v[0] * w[2] - w[0] * v[2]


def mukai_chi(v) -> int:
    """Test-only oracle: chi(Sigma, F) = rank + s for a sheaf with Mukai vector (r, c, s)."""
    return v[0] + v[2]


def mukai_twist(v, k: int) -> tuple:
    """Test-only oracle: the Mukai vector of F (x) H^k; c shifts by r k, s by 2kc + r k^2."""
    r, c, s = v
    return (r, c + r * k, s + 2 * k * c + r * k * k)


def reported_vector(rep: dict) -> tuple:
    v = rep["vector"]
    return (v["rank"], v["c1_coeff"], v["s"])


class TestMukai:
    def test_solve(self):
        rep = mukai_solve()
        v = reported_vector(rep)
        assert v == (2, 1, 1)
        assert rep["self_pairing"] == -2
        assert mukai_pairing(v, v) == -2  # spherical: the condition the mukai claim checks
        assert rep["chi_untwisted"] == 3 and rep["chi_twisted_down"] == 3

    def test_reported_vector_reproduces_its_chi_inputs(self):
        rep = mukai_solve()
        v = reported_vector(rep)
        assert mukai_chi(v) == rep["chi_untwisted"]
        assert mukai_chi(mukai_twist(v, -1)) == rep["chi_twisted_down"]

    def test_pairing_formula(self):
        assert mukai_pairing((2, 1, 1), (0, 1, 0)) == 2 * 1 * 1 - 2 * 0 - 0 * 1 == 2

    def test_oracle_equivalence_via_fujiki(self):
        # re-derive the chi inputs from the Fujiki pairing instead of the table:
        # chi(X, L^p M^q) = P_RR(q(p l + q m)) with P_RR from (c_X, A_X) = (3, 25/32)
        rr = rr_from_cx_ax(3, Q(25, 32))
        chi = lambda p, q: rr(U.q((p, q)))
        assert chi(1, 0) - chi(2, -1) == 3  # chi(Sigma, E)
        assert chi(0, -1) - chi(1, -2) == 3  # chi(Sigma, E(-H))
        vector = reported_vector(mukai_solve())
        assert mukai_chi(vector) == chi(1, 0) - chi(2, -1)
        assert mukai_chi(mukai_twist(vector, -1)) == chi(0, -1) - chi(1, -2)

    def test_twist_consistency(self):
        v = (2, 1, 1)
        up = mukai_twist(v, 1)
        assert up == (2, 3, 5)
        assert mukai_twist(up, -1) == v


class TestK3Checks:
    def test_values(self):
        rep = k3_exceptional_checks()
        assert rep["chi_O_minus_E"] == 1
        assert rep["chi_O_E"] == 2
        assert rep["h_squared"] == 2
        assert rep["is_degree2_k3"]

    def test_h_squared_is_the_four_class_integral(self):
        assert k3_exceptional_checks()["h_squared"] == fujiki4_pairing(
            (1, 1), (1, 1), (-1, 1), (1, 0)
        )
