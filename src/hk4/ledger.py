"""Euler-characteristic bookkeeping, section counts, and K3 side arithmetic.

Under the hyperbolic hypotheses (q(l) = q(m) = 0, q(l, m) = 1, c_X = 3) every
line bundle L^p M^q has chi = P_RR(q(p*l + q*m)) = P_RR(2pq) = binom(pq+3, 2).
The ledger stores these Euler characteristics together with the hypothesis
under which each one is promoted to an h^0 (the promotions have genuinely
different sources: ampleness, big-and-nef, or a pushforward argument, and the
engine keeps them apart).  On top of the ledger sit the Koszul and
Castelnuovo section counts, the Segre-relation rank certificate, the
cohomology table of twisted forms on the plane, and the Mukai-vector
arithmetic of the contracted K3 surface.
"""

from __future__ import annotations

from math import comb

from .fujiki import fujiki4_pairing, rr_from_cx_ax
from .lattices import U
from .rationals import Q, det_cofactor

#: Riemann-Roch polynomial of the hyperbolic model: binom(T/2 + 3, 2).
RR = rr_from_cx_ax(3, Q(25, 32))

# h^0-promotion sources; chi = h^0 only ever under one of these hypotheses
AMPLE = "kodaira vanishing (p, q > 0 ample in the equal-cones case)"
BIG_NEF = "kawamata-viehweg vanishing (big and nef)"
PUSHFORWARD = "pushforward to the plane (fibration argument)"


_PINNED = (
    # (p, q, promotion source)
    (1, 1, AMPLE),
    (2, 1, AMPLE),
    (1, 2, AMPLE),
    (3, 1, BIG_NEF),
    (2, 2, BIG_NEF),
    (3, 2, AMPLE),
    (1, 0, PUSHFORWARD),
    (0, 1, None),
    (0, -1, None),
    (1, -1, None),
    (2, -1, None),
    (1, -2, None),
)


def chi_table() -> dict:
    """The pinned chi ledger: chi(p, q) = P_RR(2pq).

    Returns ``{entries, k_L, W6, W10, W36}``; each entry is
    ``{p, q, bbf_value, chi, h0_source}`` with bbf_value = q(p*l + q*m) = 2pq
    and h0_source None where only chi is recorded, with no h^0 promotion.
    That chi equals binom(pq + 3, 2) is the claim of the ``chi-table``
    certificate, checked there and not here.
    """
    return {
        "entries": [
            {"p": p, "q": q, "bbf_value": U.q((p, q)), "chi": RR(U.q((p, q))), "h0_source": src}
            for p, q, src in _PINNED
        ],
        "k_L": 1,
        "W6": int(RR(2)),
        "W10": int(RR(4)),
        "W36": int(RR(12)),
    }


def to_markdown(table: dict) -> str:
    """The ledger of ``chi_table`` as a markdown table and a line of section counts."""
    lines = [
        "| p | q | q(pl+qm) | chi(L^p M^q) | h0 = chi under |",
        "|---|---|----------|--------------|----------------|",
    ]
    for e in table["entries"]:
        src = e["h0_source"] or "-"
        lines.append(f"| {e['p']} | {e['q']} | {e['bbf_value']} | {e['chi']} | {src} |")
    lines.append("")
    lines.append(f"k_L = {table['k_L']}; dim W6 = {table['W6']}, W10 = {table['W10']}, "
                 f"W36 = {table['W36']}")
    return "\n".join(lines)


def koszul_counts() -> dict:
    """Koszul/Castelnuovo bookkeeping on the h0(L) = h0(M) = 1 branch.

    The section counts of the two-divisor intersection surface come from
    Koszul resolutions.  The h^1 vanishing of the twisted ideal sheaf is an
    input hypothesis of that argument, recorded as such and not rederived.
    A nondegenerate surface in P^4 lying on 8 independent quadrics violates
    the Castelnuovo bound binom(2+1, 2) = 3; that contradiction is the
    content of the final flag.
    """
    h0_L = h0_M = 1
    chi11, chi21, chi12, chi22 = (int(RR(U.q(v))) for v in ((1, 1), (2, 1), (1, 2), (2, 2)))
    ideal_lm = h0_L + h0_M - 1
    ideal_l2m2 = chi21 + chi12 - chi11
    restricted = chi22 - ideal_l2m2
    quadrics = comb(4 + 2, 2) - restricted
    castelnuovo = comb(2 + 1, 2)
    return {
        "h0_L": h0_L,
        "h0_M": h0_M,
        "ideal_LM": ideal_lm,  # h0(I(L M)) = h0(L) + h0(M) - 1
        "ideal_L2M2": ideal_l2m2,  # h0(I(L^2 M^2)) = chi(2,1) + chi(1,2) - chi(1,1)
        "h1_ideal_L2M2": 0,  # input vanishing hypothesis
        "restricted_L2M2": restricted,  # h0 on the surface: chi(2,2) - ideal_L2M2
        "restriction_rank_LM": chi11 - ideal_lm,  # rank of H0(L M) -> H0(surface)
        "quadric_lower_bound": quadrics,  # binom(4+2, 2) - restricted_L2M2
        "castelnuovo_max": castelnuovo,  # binom(2+1, 2)
        "contradiction": quadrics > castelnuovo,
    }


# ---------------------------------------------------------------------------
# Segre-relation rank certificate


def segre_row(i: int) -> tuple[int, ...]:
    """Coefficients of (s_0, s_1, s_2, s_3) in the vanishing of s_i(E (x) H).

    From s_i(E (x) H) = sum_j (-1)^j binom(i+2, j) H^j s_{i-j}(E) for a rank-3
    bundle E, with s_j(E) = 0 for j >= 4 (E sits in a short exact sequence
    with a trivial bundle of rank 6): only j = i-3 .. i survive.
    """
    row = []
    for k in range(4):  # coefficient of s_k, i.e. j = i - k
        j = i - k
        row.append((-1) ** j * comb(i + 2, j) if 0 <= j <= i else 0)
    return tuple(row)


def _det_fraction_free(rows) -> int:
    """Bareiss fraction-free determinant of an integer matrix.

    A deliberately independent second method: the ``segre`` certificate's
    claim checks it against the cofactor expansion ``det_cofactor``.
    """
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def segre_certificate() -> dict:
    """Four independent linear relations kill the ample-power intersection numbers.

    Rows i = 8..11 express the vanishing of H^(11-i) s_i(E (x) H) against the
    monomials (H^11 s_0, H^10 s_1, H^9 s_2, H^8 s_3); the determinant is a
    nonzero exact integer, so the matrix has rank 4 and all four intersection
    numbers vanish -- which is impossible against an ample H.
    """
    rows = tuple(segre_row(i) for i in range(8, 12))
    d_cof = det_cofactor(rows)
    d_ff = _det_fraction_free(rows)
    return {
        "matrix": rows,
        "determinant": d_cof,
        "rank": 4 if d_cof != 0 else 3,
        "det_cofactor": d_cof,
        "det_fraction_free": d_ff,
    }


# ---------------------------------------------------------------------------
# cohomology of twisted forms on the plane


def _h0_o(d: int) -> int:
    return comb(d + 2, 2) if d >= 0 else 0


def _chi_o(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def bott_p2(q: int, d: int) -> tuple[int, int, int]:
    """(h^0, h^1, h^2) of Omega^q(d) on the projective plane.

    q = 0 and q = 2 are line bundles (Omega^2 = O(-3)); q = 1 is chased
    through the Euler sequence 0 -> Omega^1(d) -> O(d-1)^3 -> O(d) -> 0,
    whose multiplication map on sections is onto for d >= 1 and zero for
    d <= 0, with h^2 recovered from the exact Euler characteristic.
    """
    if q not in (0, 1, 2):
        raise ValueError("q must be 0, 1, or 2 on a surface")
    if q == 0:
        return (_h0_o(d), 0, _h0_o(-d - 3))
    if q == 2:
        return (_h0_o(d - 3), 0, _h0_o(-d))
    rank = _h0_o(d) if d >= 1 else 0
    h0 = 3 * _h0_o(d - 1) - rank
    h1 = _h0_o(d) - rank
    chi = 3 * _chi_o(d - 1) - _chi_o(d)
    h2 = chi - h0 + h1
    return (h0, h1, h2)


# ---------------------------------------------------------------------------
# Mukai-vector arithmetic on the contracted K3 surface (H^2 = 2)


def mukai_solve() -> dict:
    """Solve for the Mukai vector (2, H, 1) of the rank-2 bundle on the K3 side.

    The exceptional divisor is a P^1-bundle over the K3 surface with the
    pushed-forward rank-2 bundle E; restricting the two exact sequences
    0 -> F(-E) -> F -> F|_E -> 0 for F = L and F = M^-1 to Euler
    characteristics gives two linear conditions on the unknown (s, s'),
    namely chi(Sigma, E) = s' + 2 = 3 and chi(Sigma, E(-H)) = 5 - 2s = 3.
    The vector (2, s H, s') has self-pairing H^2 s^2 - 2 * 2 s' = 2 s^2 - 4 s'.
    """
    chi_E = int(RR(U.q((1, 0))) - RR(U.q((2, -1))))  # chi(1, 0) - chi(2, -1) = 3 - 0
    chi_E_down = int(RR(U.q((0, -1))) - RR(U.q((1, -2))))  # chi(0, -1) - chi(1, -2) = 3 - 0
    # chi(Sigma, (2, s H, s')) = 2 + s' ; chi of the (-1)-twist = 4 + s' - 2s
    s_prime = chi_E - 2
    s = (4 + s_prime - chi_E_down) // 2
    if 4 + s_prime - 2 * s != chi_E_down:
        raise ValueError("inconsistent chi inputs for the Mukai solve")
    return {
        "vector": {"rank": 2, "c1_coeff": s, "s": s_prime},
        "chi_untwisted": chi_E,  # chi(Sigma, E) = chi(X, L) - chi(X, L(-E))
        "chi_twisted_down": chi_E_down,  # chi(Sigma, E(-H)) = chi(X, M^-1) - chi(X, L M^-2)
        "self_pairing": 2 * s * s - 4 * s_prime,
        "stability_input": "h^0(Sigma, E(-H)) = 0 via the vanishing h^1(X, L M^-2) = 0",
    }


def k3_exceptional_checks() -> dict:
    """The contracted surface is a polarized K3 of degree 2.

    chi(E, O_E) = chi(O_X) - chi(X, O(-E)) = 3 - P_RR(-2) = 2 identifies the
    K3 (a symplectic surface with chi(O) = 2), and the polarization degree is
    the exact four-class integral h^2 = integral((l+m)^2 (-l+m) l) = 2.
    """
    chi_minus_e = RR(U.q((1, -1)))  # q(l - m) = -2
    chi_oe = RR(0) - chi_minus_e
    h2 = fujiki4_pairing((1, 1), (1, 1), (-1, 1), (1, 0))
    return {
        "chi_O_minus_E": chi_minus_e,  # P_RR(q(l - m)) = P_RR(-2)
        "chi_O_E": chi_oe,  # chi(O_X) - chi(O(-E)) = 3 - 1
        "h_squared": h2,  # integral((l+m)^2 (-l+m) l)
        "is_degree2_k3": chi_oe == 2 and h2 == 2,
    }
