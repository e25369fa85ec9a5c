"""Degree-4 Hodge classes over (l^2, lm, m^2, q-dual) and the UNSAT certificates.

For the very general fourfold with c_X = 3, b2 = 23 and hyperbolic (l, m),
the rational degree-4 Hodge classes are spanned by l^2, lm, m^2 and the class
q-dual of the quadratic form, with pairings

    <q-dual, alpha*beta> = 25 q(alpha, beta),   <q-dual, q-dual> = 575,

and the Sym^2 block given by the four-class Fujiki identity.  On top of this
exact algebra the module certifies three emptiness claims:

  * no Lagrangian plane (the eliminated quadratic 92 x^2 + 20 x - 525 in
    x = q(A) has no integer roots),
  * no surface contracted to a point (25w = t with 5w integral fails for
    t in {1, 2, 3, 4}),
  * no splitting of the class lm into two surfaces (integrality forces
    w >= 1/5 while the boundary witness forces w <= 1/25).

Each certificate replaces the universally quantified boundary condition
"for all omega in the closure of the Kahler cone with q(omega) = 0" by the
single explicit witness omega = l + m + e' - f', the vector ``OMEGA`` of
``lattices.U2``; the witness and its admissibility are recorded in every
report.  Both forms are ``lattices.QuadLattice``s: ``h4_pair`` is ``H4.pair``
and ``boundary_value`` reads q(omega, l) and q(omega, m) from ``U2.pair``.

The unknown of each refutation is a polynomial indeterminate: x = q(A) for
the plane, w for the contracted surface and the splitting of lm.  Classes
whose coordinates are affine in w are ordinary ``H4Class`` values over
``RatPoly``, so ``h4_pair`` and ``boundary_value`` return the reported
polynomials in w directly; ``M_[S]`` is checked to have degree 0 in w.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Sequence

from .fujiki import fujiki4_pairing
from .lattices import U, U2, QuadLattice
from .rationals import Q, RatPoly, det_cofactor, divisors, is_integer, squarefree_part

B2 = 23
QDUAL_NS = B2 + 2  # <q-dual, alpha*beta> = 25 q(alpha, beta)
QDUAL_SELF = B2 * (B2 + 2)  # <q-dual, q-dual> = 575
C2_FACTOR = Q(6, 5)  # c2(X) = (6/5) q-dual


class H4Class:
    """Coordinates over the basis (l^2, lm, m^2, q-dual).

    A coordinate is a rational, or a ``RatPoly`` in an unknown such as w
    (the certificates' classes are affine in w); rationals are stored as
    ``Q`` and polynomials as they are.
    """

    __slots__ = ("l2", "lm", "m2", "qdual")

    def __init__(self, l2=Q(0), lm=Q(0), m2=Q(0), qdual=Q(0)):
        self.l2, self.lm, self.m2, self.qdual = (
            v if type(v) in (Q, RatPoly) else Q(v) for v in (l2, lm, m2, qdual))

    def coords(self) -> tuple:
        return (self.l2, self.lm, self.m2, self.qdual)

    def __add__(self, other: "H4Class") -> "H4Class":
        return H4Class(*(a + b for a, b in zip(self.coords(), other.coords())))

    def __sub__(self, other: "H4Class") -> "H4Class":
        return H4Class(*(a - b for a, b in zip(self.coords(), other.coords())))

    def scale(self, c) -> "H4Class":
        if type(c) is not RatPoly:
            c = Q(c)
        return H4Class(*(c * a for a in self.coords()))


L2 = H4Class(l2=1)
LM = H4Class(lm=1)
M2 = H4Class(m2=1)

#: The unknown w of the contracted-surface and splitting refutations.
W = RatPoly((Q(0), Q(1)))

#: q-dual - (25/2) lm, the direction in which both refutations' classes move with w.
TWIST = H4Class(lm=-Q(25, 2), qdual=1)


def ns_product(alpha: Sequence[int], beta: Sequence[int]) -> H4Class:
    """The product of two degree-2 classes a1*l + a2*m as an H4 class."""
    a1, a2 = alpha
    b1, b2 = beta
    return H4Class(l2=a1 * b1, lm=a1 * b2 + a2 * b1, m2=a2 * b2)


def _sym2_gram() -> tuple[tuple[Q, ...], ...]:
    """Pairing matrix of (l^2, lm, m^2, q-dual), Sym^2 block from the Fujiki identity."""
    l, m = (1, 0), (0, 1)
    pairs = ((l, l), (l, m), (m, m))
    rows = []
    for i, (a, b) in enumerate(pairs):
        row = [fujiki4_pairing(a, b, c, d) for (c, d) in pairs]
        row.append(Q(QDUAL_NS) * U.pair(a, b))
        rows.append(tuple(row))
    rows.append(tuple([Q(QDUAL_NS) * U.pair(a, b) for (a, b) in pairs] + [Q(QDUAL_SELF)]))
    return tuple(rows)


#: The degree-4 pairing; its 6 non-zero Gram entries are integers.
H4 = QuadLattice(_sym2_gram())


def h4_pair(x: H4Class, y: H4Class) -> Q | RatPoly:
    """Bilinear intersection pairing on degree-4 Hodge classes, ``H4.pair`` on coordinates:

        <x, y> = 2 (x_l2 y_m2 + x_lm y_lm + x_m2 y_l2)
                 + 25 (x_lm y_qdual + x_qdual y_lm) + 575 x_qdual y_qdual.

    With coordinates affine in w the pairing is the polynomial in w, of
    degree at most 2; the contracted-surface certificate checks that the
    entries of M_[S] have degree 0 in w and raises if one does not.
    """
    return H4.pair(x.coords(), y.coords())


def intersection_matrix(eta: H4Class) -> tuple[tuple, tuple]:
    """M_eta = ((eta.l^2, eta.lm), (eta.lm, eta.m^2)) as exact intersection numbers."""
    a = h4_pair(eta, L2)
    b = h4_pair(eta, LM)
    c = h4_pair(eta, M2)
    return ((a, b), (b, c))


#: The witness used by every certificate: omega = l + m + e' - f' in U2, basis (l, m, e', f').
OMEGA = (1, 1, 1, -1)


def boundary_value(eta: H4Class, omega: Sequence[int] = OMEGA) -> Q | RatPoly:
    """integral(eta * omega^2) for a boundary class omega of U2 with q(omega) = 0.

    On the Sym^2 block the Fujiki identity at q(omega) = 0 and c_X = 3 gives
    integral(alpha*beta*omega^2) = 2 q(alpha, omega) q(beta, omega); the
    q-dual summand contributes 25 q(omega) = 0.  Raises ValueError unless
    omega is admissible: q(omega) = 0 and q(omega, l), q(omega, m) >= 0.
    """
    if U2.q(omega) != 0:
        raise ValueError(f"boundary witness must satisfy q(omega) = 0, got {U2.q(omega)}")
    ql, qm = U2.pair(omega, (1, 0, 0, 0)), U2.pair(omega, (0, 1, 0, 0))
    if ql < 0 or qm < 0:
        raise ValueError("boundary witness must pair nonnegatively with l and m")
    return eta.l2 * 2 * ql * ql + eta.lm * 2 * ql * qm + eta.m2 * 2 * qm * qm


def _coefficients(p: RatPoly, n: int) -> list[Q]:
    """The n lowest coefficients of p, lowest degree first, as reported (Q(0) past the degree)."""
    return [p.coefficient(k) for k in range(n)]


def _w_denominator_bound(two_sq: RatPoly) -> int:
    """The largest d with d^2 | c, for c the w^2 coefficient of 2 eta^2 = c0 + c w^2.

    When c0 and 2 eta^2 are integers so is c w^2; with w = p/d in lowest
    terms, d^2 | c p^2 forces d^2 | c, so d divides isqrt(c / squarefree(c)).
    """
    c = int(two_sq.coefficient(2))
    return isqrt(c // squarefree_part(c))


def _linear_root(p: RatPoly) -> Q:
    """The root -c0/c1 of a degree-1 polynomial c0 + c1 w (a boundary value in w)."""
    if p.degree != 1:
        raise ValueError(f"expected a linear polynomial in w, got {p.pretty('w')}")
    return -p.coefficient(0) / p.coefficient(1)


# ---------------------------------------------------------------------------
# resultants over nested polynomial rings (used by the Lagrangian-plane check)


def resultant(p: Sequence, q: Sequence, zero) -> object:
    """Sylvester resultant of two polynomials given low-first over any exact ring."""
    p = list(p)
    q = list(q)
    while p and not p[-1]:
        p.pop()
    while q and not q[-1]:
        q.pop()
    m, n = len(p) - 1, len(q) - 1
    if m < 0 or n < 0:
        raise ValueError("resultant of the zero polynomial")
    size = m + n
    ph, qh = p[::-1], q[::-1]
    rows = []
    for i in range(n):
        rows.append([zero] * i + ph + [zero] * (size - m - 1 - i))
    for i in range(m):
        rows.append([zero] * i + qh + [zero] * (size - n - 1 - i))
    return det_cofactor(rows, zero)


def primitive_integer_form(p: RatPoly) -> tuple[RatPoly, int]:
    """Strip the x^k content and rational content; positive leading coefficient.

    Returns (primitive integer-coefficient polynomial, k).
    """
    if not p:
        raise ValueError("zero polynomial has no primitive form")
    coeffs = list(p.coeffs)
    k = 0
    while not coeffs[0]:
        coeffs.pop(0)
        k += 1
    den = lcm(*(Q(c).denominator for c in coeffs))
    ints = [int(Q(c) * den) for c in coeffs]
    g = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return RatPoly(tuple(Q(c // g) for c in ints)), k


def root_scan(c0: int, c1: int, c2: int) -> tuple[list[int], list[Q]]:
    """Integer and rational roots of c2 x^2 + c1 x + c0 (c0, c2 != 0), ascending.

    The rational root test in integers: a root p/q has p | c0 and q | c2, and
    p/q is a root iff c2 p^2 + c1 p q + c0 q^2 == 0.  The integer roots are
    the roots with q = 1, so the one scan finds both lists.
    """
    numerators = [r for d in divisors(c0) for r in (d, -d)]
    rational_roots = sorted(
        {
            Q(p, q)
            for p in numerators
            for q in divisors(c2)
            if c2 * p * p + c1 * p * q + c0 * q * q == 0
        }
    )
    integer_roots = sorted(int(r) for r in rational_roots if r.denominator == 1)
    return integer_roots, rational_roots


# ---------------------------------------------------------------------------
# certificate 1: no Lagrangian plane


def lagrangian_plane_certificate() -> dict:
    """Eliminate (t, u) from the three plane equations and certify no integer root.

    A Lagrangian plane with line class dual to A would give, with x = q(A),

        self-intersection:  3 t^2 x^2 + 50 t u x + 575 u^2 = 3
        second Chern class: (6/5) (25 t x + 575 u)        = -3
        A^2 restriction:    3 t x^2 + 25 u x              = x^2

    (the right-hand sides are integral(c2(Omega^1) over the plane) = 3 and
    c2(plane) + c2(normal) + c1*c1 = 3 + 3 - 9 = -3).  Solving the two linear
    equations for (t, u) by Cramer's rule and substituting into the quadratic
    yields a rational multiple of 92 x^2 + 20 x - 525; an independent chained
    resultant reproduces the same primitive quadratic.  One rational root
    test on its primitive integer coefficients (``root_scan``) finds the
    roots, 105/46 and -5/2, and certifies that no divisor of 525 is an
    integer root; each root is checked by back-substitution.
    """
    x = RatPoly((Q(0), Q(1)))
    zero_x = RatPoly()

    qAA = 3 * x * x  # integral(A^4) = c_X q(A)^2 with c_X = 3
    qQA = QDUAL_NS * x  # <q-dual, A^2> = 25 q(A)
    qQQ = RatPoly.constant(Q(QDUAL_SELF))

    # linear system in (t, u):  a11 t + a12 u = r1 ; a21 t + a22 u = r2
    a11, a12, r1 = C2_FACTOR * qQA, C2_FACTOR * qQQ, RatPoly.constant(Q(-3))
    a21, a22, r2 = qAA, qQA, x * x
    det = a11 * a22 - a12 * a21
    t_num = r1 * a22 - a12 * r2
    u_num = a11 * r2 - r1 * a21

    # quadratic equation cleared by det^2
    eliminated = (
        3 * (x * x) * (t_num * t_num)
        + 50 * x * (t_num * u_num)
        + QDUAL_SELF * (u_num * u_num)
        - 3 * (det * det)
    )
    quad, stripped = primitive_integer_form(eliminated)

    # independent cross-check: resultant chain in t then u, over Q[x][u]
    zero_ux = RatPoly()
    e1_t = [RatPoly((RatPoly.constant(Q(-3)), zero_x, qQQ)), RatPoly((zero_x, 2 * qQA)),
            RatPoly((qAA,))]
    e2_t = [RatPoly((RatPoly.constant(Q(3)), C2_FACTOR * qQQ)), RatPoly((C2_FACTOR * qQA,))]
    e3_t = [RatPoly((-(x * x), qQA)), RatPoly((qAA,))]
    r13 = resultant(e1_t, e3_t, zero_ux)  # in Q[x][u]
    r23 = resultant(e2_t, e3_t, zero_ux)
    chained = resultant(list(r13.coeffs), list(r23.coeffs), zero_x)  # in Q[x]
    quad_res, _ = primitive_integer_form(chained)

    disc = quad.coefficient(1) ** 2 - 4 * quad.coefficient(2) * quad.coefficient(0)
    integer_roots, rational_roots = root_scan(*(int(quad.coefficient(k)) for k in range(3)))

    # back-substitution: at each root the linear system determines (t, u) and
    # all three original equations must hold exactly
    back = []
    for x0 in rational_roots:
        d0 = det(x0)
        t0, u0 = t_num(x0) / d0, u_num(x0) / d0
        e1 = 3 * t0 * t0 * x0 * x0 + 50 * t0 * u0 * x0 + QDUAL_SELF * u0 * u0
        e2 = C2_FACTOR * (QDUAL_NS * t0 * x0 + QDUAL_SELF * u0)
        e3 = 3 * t0 * x0 * x0 + QDUAL_NS * u0 * x0
        back.append(
            {
                "x": x0,
                "t": t0,
                "u": u0,
                "consistent": e1 == 3 and e2 == -3 and e3 == x0 * x0,
            }
        )

    # both quadratics are primitive with a positive leading coefficient, so
    # the two methods agree exactly when the polynomials are equal
    ok = quad == quad_res and not integer_roots and all(b["consistent"] for b in back)
    return {
        "status": "UNSAT" if ok else "SAT",
        "deduction": (
            "Cramer elimination of (t, u) from the two linear equations, substituted "
            f"into the quadratic one, gives x^{stripped} * ({quad.pretty('x')}) up to "
            "a rational factor",
            f"independent resultant chain yields the same primitive quadratic: "
            f"{quad_res.pretty('x')}",
            f"rational roots {{{', '.join(str(r) for r in rational_roots)}}}; "
            f"integer-root scan over divisors of {abs(quad.coefficient(0))}: "
            f"{', '.join(str(r) for r in integer_roots) or 'none'}",
            "q(A) must be an integer, so no Lagrangian plane class exists",
        ),
        "quadratic": _coefficients(quad, 3),
        "quadratic_resultant": _coefficients(quad_res, 3),
        "roots": rational_roots,
        "integer_roots": integer_roots,
        "rational_roots": rational_roots,
        "back_substitution": back,
        "discriminant": disc,
    }


# ---------------------------------------------------------------------------
# certificate 2: no contracted surface


def contracted_surface_certificate() -> dict:
    """No surface can be contracted to a point: 25w = t with 5w integral fails.

    A contracted surface S would have intersection matrix t * ((1,-1),(-1,1))
    and class (t/2)(l^2 - lm + m^2) + w (q-dual - (25/2) lm) for some rational
    w, with [S'] = 2(l+m)(-l+m) - [S] also effective.  Exact evaluation gives
    2 [S]^2 = 3 t^2 + 525 w^2, so integrality of [S]^2 forces the denominator
    of w to divide 5 (the square part of 525 is 25), i.e. 5w integral.  The
    boundary witness gives integral(S * omega^2) = t - 25w >= 0 and
    integral(S' * omega^2) = 25w - t >= 0, hence 25w = t exactly, and
    5w = t/5 is not an integer for t in {1, 2, 3, 4}.  The probe value t = 5
    survives both constraints, so the certificate is not vacuous.
    """
    probe = 5
    s_plus_sp = ns_product((1, 1), (-1, 1)).scale(2)  # [S] + [S'] = 2(l+m)(-l+m)
    cases = []
    all_unsat = True
    for t in (1, 2, 3, 4, probe):
        S = H4Class(l2=Q(t, 2), lm=-Q(t, 2), m2=Q(t, 2)) + TWIST.scale(W)
        m_s = intersection_matrix(S)
        if any(entry.degree > 0 for row in m_s for entry in row):
            raise AssertionError("M_[S] must not depend on w")
        two_s_sq = 2 * h4_pair(S, S)
        bv_s = boundary_value(S)
        bv_sp = boundary_value(s_plus_sp - S)
        # witness forces t - 25w >= 0 and 25w - t >= 0, so w is the root of t - 25w
        forced_w = _linear_root(bv_s)
        five_w = _w_denominator_bound(two_s_sq) * forced_w
        survives = is_integer(five_w)
        case = {
            "t": t,
            "M_S": tuple(tuple(entry.coefficient(0) for entry in row) for row in m_s),
            "two_S_sq": _coefficients(two_s_sq, 3),
            "boundary_S": _coefficients(bv_s, 2),
            "boundary_S_prime": _coefficients(bv_sp, 2),
            "forced_w": forced_w,
            "five_w": five_w,
            "verdict": "SAT-candidate" if survives else "UNSAT",
            "probe": t == probe,
        }
        cases.append(case)
        if t != probe and survives:
            all_unsat = False
    probe_case = cases[-1]
    ok = all_unsat and probe_case["verdict"] == "SAT-candidate"
    return {
        "status": "UNSAT" if ok else "SAT",
        "deduction": (
            "2 [S]^2 = 3 t^2 + 525 w^2 must be twice an integer, so 525 w^2 is an "
            "integer and the denominator of w divides 5: 5w is an integer",
            "witness omega = l + m + e' - f': integral(S omega^2) = t - 25w >= 0 and "
            "integral(S' omega^2) = 25w - t >= 0 force 25w = t",
            "5w = t/5 is not an integer for t in {1, 2, 3, 4}: UNSAT in every case",
            f"probe t = {probe} gives w = {probe_case['forced_w']} with "
            f"5w = {probe_case['five_w']} "
            "surviving both constraints (non-vacuity)",
        ),
        "witnesses": ("omega = l + m + e' - f' (q = 0, q(.,l) = q(.,m) = 1)",),
        "cases": cases,
        "unsat_t": [c["t"] for c in cases if c["verdict"] == "UNSAT"],
        "probe_survives": any(c["probe"] and c["verdict"] == "SAT-candidate" for c in cases),
    }


# ---------------------------------------------------------------------------
# certificate 3: the class lm does not split


def sigma_split_certificate() -> dict:
    """The class lm cannot split as [Sigma_1] + [Sigma_2] with M = ((0,1),(1,0)).

    Such a splitting forces [Sigma_i] = (1/2) lm -+ w (q-dual - (25/2) lm)
    for a single rational w (signs opposite).  Exact pairing evaluation gives

        2 Sigma_1^2 = 2 Sigma_2^2 = 1 + 525 w^2,
        2 Sigma_1 Sigma_2         = 1 - 525 w^2,

    so integrality of both intersection numbers says 525 w^2 is an odd
    integer: w is nonzero (w = 0 leaves Sigma_i^2 = 1/2), its denominator
    divides 5, and after the harmless sign choice w >= 1/5.  The boundary
    witness then kills everything: integral(Sigma_2 omega^2) = 1 - 25w >= 0
    forces w <= 1/25 < 1/5.  Both kill paths are recorded, together with a
    finite scan of every candidate w with denominator in {1, 5}.
    """
    sigma1 = H4Class(lm=Q(1, 2)) + TWIST.scale(-W)
    sigma2 = H4Class(lm=Q(1, 2)) + TWIST.scale(W)
    s1_sq = h4_pair(sigma1, sigma1)
    s2_sq = h4_pair(sigma2, sigma2)
    cross = h4_pair(sigma1, sigma2)
    bv_s2 = boundary_value(sigma2)
    bv_s1 = boundary_value(sigma1)
    two_s1_sq = 2 * s1_sq
    two_cross = 2 * cross

    # candidate scan: w = 0 and every w = p/d with 0 < w <= 2, d the denominator bound (5)
    candidates = []
    odd_w = []  # the scanned w with 525 w^2 an odd integer
    d = _w_denominator_bound(two_s1_sq)
    scan = [Q(0)] + [Q(p, d) for p in range(1, 2 * d + 1)]
    for w in scan:
        kills = []
        odd = two_s1_sq.coefficient(2) * w * w
        if is_integer(odd) and int(odd) % 2 == 1:
            odd_w.append(w)
        else:
            kills.append(
                f"integrality: Sigma_1^2 = {s1_sq(w)} and Sigma_1.Sigma_2 = {cross(w)} "
                "are not both integers"
            )
        if bv_s2(w) < 0:
            kills.append(f"witness: integral(Sigma_2 omega^2) = {bv_s2(w)} < 0")
        candidates.append({"w": w, "kills": kills, "killed": bool(kills)})
    all_killed = all(c["killed"] for c in candidates)

    # forced by integrality (denominator | 5, 525 w^2 odd, w > 0)
    w_min = min(w for w in odd_w if w > 0)
    w_max = _linear_root(bv_s2)  # forced by the witness inequality 1 - 25w >= 0
    ok = all_killed and w_min > w_max
    return {
        "status": "UNSAT" if ok else "SAT",
        "deduction": (
            f"exact pairings: Sigma_1^2 = {s1_sq.pretty('w')}; "
            f"Sigma_1.Sigma_2 = {cross.pretty('w')}; equivalently "
            f"2 Sigma_1^2 = {two_s1_sq.pretty('w')} and 2 Sigma_1.Sigma_2 = {two_cross.pretty('w')}",
            "kill path 1 (integrality): both intersection numbers integral means "
            "525 w^2 is an odd integer, so w != 0 (w = 0 gives Sigma_1^2 = 1/2), the "
            f"denominator of w divides 5, and with the sign choice w > 0: w >= {w_min}",
            "kill path 2 (witness): Sigma_2 effective against omega = l + m + e' - f' "
            f"means integral(Sigma_2 omega^2) = {bv_s2.pretty('w')} >= 0: w <= {w_max}",
            f"{w_min} > {w_max}: the two constraints are jointly infeasible, UNSAT",
        ),
        "witnesses": ("omega = l + m + e' - f' (q = 0, q(.,l) = q(.,m) = 1)",),
        "sigma1_sq": _coefficients(s1_sq, 3),
        "sigma2_sq": _coefficients(s2_sq, 3),
        "sigma1_sigma2": _coefficients(cross, 3),
        "two_sigma1_sq": _coefficients(two_s1_sq, 3),
        "two_sigma1_sigma2": _coefficients(two_cross, 3),
        "boundary_sigma2": _coefficients(bv_s2, 2),
        "boundary_sigma1": _coefficients(bv_s1, 2),
        "w_min_integrality": w_min,
        "w_max_witness": w_max,
        "candidates": candidates,
    }
