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
the plane, w for the contracted surface and the splitting of lm.  The
refutations run on int coefficients: the classes affine in w are doubled
(clearing t/2, lm/2 and ``TWIST``'s -25/2) and the plane's c2 equation is
scaled by 5, so ``h4_pair`` and ``boundary_value`` return polynomials in w
over the ints; the reported rationals are made once, when the certificate's
dict is built.  ``M_[S]`` is checked to have degree 0 in w.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Sequence

from .fujiki import fujiki4_pairing
from .lattices import U, U2, QuadLattice
from .rationals import Q, RatPoly, det_cofactor, divisors, ratio_to_string, squarefree_part

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

    def scale(self, c) -> "H4Class":
        return H4Class(*(c * a for a in self.coords()))


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
    entries of M_[S] have degree 0 in w and reports SAT if one does not.
    """
    return H4.pair(x.coords(), y.coords())


def intersection_matrix(eta: H4Class) -> tuple[tuple, tuple]:
    """M_eta = ((eta.l^2, eta.lm), (eta.lm, eta.m^2)) as exact intersection numbers."""
    # the int basis vector comes first, so each term multiplies a coordinate of eta once
    a, b, c = (H4.pair(e, eta.coords()) for e in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
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
    return eta.l2 * (2 * ql * ql) + eta.lm * (2 * ql * qm) + eta.m2 * (2 * qm * qm)


def _doubled_twist() -> tuple[int, ...]:
    """The coordinates of 2 * TWIST as ints; one that is not an integer raises ValueError."""
    twist = [(2 * Q(c)).as_integer_ratio() for c in TWIST.coords()]
    if any(den != 1 for _, den in twist):
        raise ValueError("2 * TWIST must have integer coordinates")
    return tuple(num for num, _ in twist)


def _affine(base: Sequence[int], slope: Sequence[int]) -> H4Class:
    """The class base + w * slope, its coordinates int polynomials in w."""
    return H4Class(*(RatPoly((b, c)) for b, c in zip(base, slope)))


def _reported(p: RatPoly, n: int, den: int = 1) -> list[Q]:
    """The n lowest coefficients of p/den, lowest degree first, as reported (0 past the degree)."""
    return [Q(p.coefficient(k), den) for k in range(n)]


def _w_denominator_bound(c: Q) -> int:
    """The largest d with d^2 | c, for c the w^2 coefficient of 2 eta^2 = c0 + c w^2.

    When c0 and 2 eta^2 are integers so is c w^2; with w = p/d in lowest
    terms, d^2 | c p^2 forces d^2 | c, so d divides isqrt(c / squarefree(c)).
    """
    c = int(c)
    return isqrt(c // squarefree_part(c))


def _linear_root(p: RatPoly) -> Q:
    """The root -c0/c1 of a degree-1 polynomial c0 + c1 w (a boundary value in w)."""
    if p.degree != 1:
        raise ValueError(f"expected a linear polynomial in w, got {p.pretty('w')}")
    return Q(-p.coefficient(0), p.coefficient(1))


def _value_text(p: RatPoly, num: int, den: int, scale: int) -> tuple[int, str]:
    """(a number of the sign of, the str of) p(num/den)/scale, p over the ints, den, scale > 0."""
    n = max(p.degree, 0)
    total = sum(c * num**k * den ** (n - k) for k, c in enumerate(p.coeffs))
    return total, ratio_to_string(total, scale * den**n)


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
    """Strip the x^k factor and the content of an int polynomial; positive leading coefficient.

    Returns (the primitive polynomial, k), its coefficients the rationals a certificate reports.
    """
    if not p:
        raise ValueError("zero polynomial has no primitive form")
    coeffs = list(p.coeffs)
    k = 0
    while not coeffs[0]:
        coeffs.pop(0)
        k += 1
    g = gcd(*coeffs) if coeffs[-1] > 0 else -gcd(*coeffs)
    return RatPoly(tuple(Q(c // g) for c in coeffs)), k


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
    x = RatPoly((0, 1))
    zero_x = RatPoly()
    c2_num, c2_den = C2_FACTOR.as_integer_ratio()  # the c2 equation is scaled by c2_den = 5

    qAA = 3 * x * x  # integral(A^4) = c_X q(A)^2 with c_X = 3
    qQA = QDUAL_NS * x  # <q-dual, A^2> = 25 q(A)
    qQQ = RatPoly.constant(QDUAL_SELF)

    # linear system in (t, u), all over Z[x]:  a11 t + a12 u = r1 ; a21 t + a22 u = r2
    a11, a12, r1 = c2_num * qQA, c2_num * qQQ, RatPoly.constant(-3 * c2_den)
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

    # independent cross-check: resultant chain in t then u, over Z[x][u]
    zero_ux = RatPoly()
    e1_t = [RatPoly((RatPoly.constant(-3), zero_x, qQQ)), RatPoly((zero_x, 2 * qQA)),
            RatPoly((qAA,))]
    e2_t = [RatPoly((RatPoly.constant(3 * c2_den), c2_num * qQQ)), RatPoly((c2_num * qQA,))]
    e3_t = [RatPoly((-(x * x), qQA)), RatPoly((qAA,))]
    r13 = resultant(e1_t, e3_t, zero_ux)  # in Z[x][u]
    r23 = resultant(e2_t, e3_t, zero_ux)
    chained = resultant(list(r13.coeffs), list(r23.coeffs), zero_x)  # in Z[x]
    quad_res, _ = primitive_integer_form(chained)

    c0, c1, c2 = (int(quad.coefficient(k)) for k in range(3))
    disc = Q(c1 * c1 - 4 * c2 * c0)
    integer_roots, rational_roots = root_scan(c0, c1, c2)

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
        "quadratic": _reported(quad, 3),
        "quadratic_resultant": _reported(quad_res, 3),
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
    # the classes are doubled: 2[S] = t(l^2 - lm + m^2) + 2w TWIST, and 2([S] + [S']) = 4(l+m)(-l+m)
    both = [int(c) for c in ns_product((1, 1), (-1, 1)).scale(4).coords()]
    twist = _doubled_twist()
    minus = [-c for c in twist]
    cases = []
    all_unsat = True
    for t in (1, 2, 3, 4, probe):
        base = (t, -t, t, 0)
        S, S_prime = _affine(base, twist), _affine([s - b for s, b in zip(both, base)], minus)
        m_s = intersection_matrix(S)
        two_s_sq = _reported(h4_pair(S, S), 3, 2)
        bv_s = boundary_value(S)
        bv_sp = boundary_value(S_prime)
        # witness forces t - 25w >= 0 and 25w - t >= 0, so w is the root of t - 25w
        forced_w = _linear_root(bv_s)
        five_w = _w_denominator_bound(two_s_sq[2]) * forced_w
        # a class whose M_[S] depends on w is not the contracted surface: nothing refutes it
        survives = five_w.denominator == 1 or any(e.degree > 0 for row in m_s for e in row)
        case = {
            "t": t,
            "M_S": tuple(tuple(Q(entry.coefficient(0), 2) for entry in row) for row in m_s),
            "two_S_sq": two_s_sq,
            "boundary_S": _reported(bv_s, 2, 2),
            "boundary_S_prime": _reported(bv_sp, 2, 2),
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
    # the classes are doubled: 2 Sigma_1 = lm - 2w TWIST and 2 Sigma_2 = lm + 2w TWIST
    twist = _doubled_twist()
    sigma1, sigma2 = _affine((0, 1, 0, 0), [-c for c in twist]), _affine((0, 1, 0, 0), twist)
    sq1, cross4 = h4_pair(sigma1, sigma1), h4_pair(sigma1, sigma2)  # 4 Sigma_1^2, 4 Sigma_1.Sigma_2
    bv2 = boundary_value(sigma2)  # 2 integral(Sigma_2 omega^2)
    s1_sq, cross, bv_s2 = _reported(sq1, 3, 4), _reported(cross4, 3, 4), _reported(bv2, 2, 2)
    two_s1_sq, two_cross = _reported(sq1, 3, 2), _reported(cross4, 3, 2)

    # candidate scan: w = 0 and every w = p/d with 0 < w <= 2, d the denominator bound (5)
    candidates = []
    odd_w = []  # the scanned w with 525 w^2 an odd integer
    d = _w_denominator_bound(two_s1_sq[2])
    for p in range(2 * d + 1):
        w, kills = Q(p, d), []
        # 525 w^2 = (4 Sigma_1^2)_2 p^2 / (2 d^2)
        odd, rest = divmod(sq1.coefficient(2) * p * p, 2 * d * d)
        if not rest and odd % 2 == 1:
            odd_w.append(w)
        else:
            kills.append(
                f"integrality: Sigma_1^2 = {_value_text(sq1, p, d, 4)[1]} and "
                f"Sigma_1.Sigma_2 = {_value_text(cross4, p, d, 4)[1]} are not both integers"
            )
        value, text = _value_text(bv2, p, d, 2)
        if value < 0:
            kills.append(f"witness: integral(Sigma_2 omega^2) = {text} < 0")
        candidates.append({"w": w, "kills": kills, "killed": bool(kills)})
    all_killed = all(c["killed"] for c in candidates)

    # forced by integrality (denominator | 5, 525 w^2 odd, w > 0)
    w_min = min(w for w in odd_w if w > 0)
    w_max = _linear_root(bv2)  # forced by the witness inequality 1 - 25w >= 0
    ok = all_killed and w_min > w_max
    return {
        "status": "UNSAT" if ok else "SAT",
        "deduction": (
            f"exact pairings: Sigma_1^2 = {RatPoly(s1_sq).pretty('w')}; "
            f"Sigma_1.Sigma_2 = {RatPoly(cross).pretty('w')}; equivalently "
            f"2 Sigma_1^2 = {RatPoly(two_s1_sq).pretty('w')} and "
            f"2 Sigma_1.Sigma_2 = {RatPoly(two_cross).pretty('w')}",
            "kill path 1 (integrality): both intersection numbers integral means "
            "525 w^2 is an odd integer, so w != 0 (w = 0 gives Sigma_1^2 = 1/2), the "
            f"denominator of w divides 5, and with the sign choice w > 0: w >= {w_min}",
            "kill path 2 (witness): Sigma_2 effective against omega = l + m + e' - f' "
            f"means integral(Sigma_2 omega^2) = {RatPoly(bv_s2).pretty('w')} >= 0: w <= {w_max}",
            f"{w_min} > {w_max}: the two constraints are jointly infeasible, UNSAT",
        ),
        "witnesses": ("omega = l + m + e' - f' (q = 0, q(.,l) = q(.,m) = 1)",),
        "sigma1_sq": s1_sq,
        "sigma2_sq": _reported(h4_pair(sigma2, sigma2), 3, 4),
        "sigma1_sigma2": cross,
        "two_sigma1_sq": two_s1_sq,
        "two_sigma1_sigma2": two_cross,
        "boundary_sigma2": bv_s2,
        "boundary_sigma1": _reported(boundary_value(sigma1), 2, 2),
        "w_min_integrality": w_min,
        "w_max_witness": w_max,
        "candidates": candidates,
    }
