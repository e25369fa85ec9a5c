"""Integral quadratic lattices and the rank-2 hyperbolic geometry.

``QuadLattice`` is the engine's one bilinear-form implementation: the BBF
form on the isotropic pair (l, m) is the hyperbolic plane ``U``, the
boundary witness omega = l + m + e' - f' is a vector of ``U2 = U + U``, and
``h4`` pairs degree-4 classes through a ``QuadLattice`` over
(l^2, lm, m^2, q-dual).  On the span of l and m this module also provides the
normalization m -> +-m + r*l, the (-2)-reflection, the enumeration of prime
exceptional classes, and the four cones of divisor classes in the two
combinatorial cases t0 = 0, 1.
"""

from __future__ import annotations

from math import gcd
from typing import Callable, Sequence

from .rationals import Q

Vector = tuple[int, ...]


class QuadLattice:
    """Integral quadratic lattice given by a symmetric Gram matrix.

    ``pair`` sums over the non-zero entries (i, j, g), listed once here; its
    result has the coordinates' type (an int on integer vectors).
    """

    __slots__ = ("gram", "rank", "_nonzero")

    def __init__(self, gram: Sequence[Sequence]):
        g = tuple(tuple(Q(x) for x in row) for row in gram)
        if any(x.denominator != 1 for row in g for x in row):  # exact: 1/2 or 1.5 is not truncated
            raise ValueError("Gram entries must be integers")
        g = tuple(tuple(x.numerator for x in row) for row in g)
        n = len(g)
        if any(len(row) != n for row in g):
            raise ValueError("Gram matrix must be square")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(i)):
            raise ValueError("Gram matrix must be symmetric")
        self.gram, self.rank = g, n
        self._nonzero = tuple((i, j, x) for i, row in enumerate(g) for j, x in enumerate(row) if x)

    def pair(self, v: Sequence, w: Sequence):
        """The bilinear form q(v, w) = v^T G w, summed over the non-zero entries of G."""
        if len(v) != self.rank or len(w) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        total = 0  # a plain loop, not sum() over a generator: the same 0 + t1 + t2 ..., faster
        for i, j, g in self._nonzero:
            total += v[i] * g * w[j]
        return total

    def q(self, v: Sequence[int]) -> int:
        """The quadratic form q(v) = v^T G v."""
        return self.pair(v, v)

    @staticmethod
    def from_json(data: dict) -> "QuadLattice":
        lat = QuadLattice(data["gram"])
        if "rank" in data and int(data["rank"]) != lat.rank:
            raise ValueError("declared rank does not match Gram matrix")
        return lat


#: The hyperbolic plane: even, unimodular, rank 2.
U = QuadLattice(((0, 1), (1, 0)))

#: Two orthogonal hyperbolic planes, basis (l, m, e', f').
U2 = QuadLattice(
    (
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 1, 0),
    )
)


def hyperbolic_pair_normalize(q_l: int, q_m: int, q_lm: int) -> dict:
    """Normalize (q(l)=0, q(m), q(l,m)) by m -> +-m + r*l.

    Flipping m fixes q(m) and negates q(l,m); adding r*l moves q(m) by
    2*r*q(l,m).  The window -q(l,m) < q(m) <= q(l,m) pins r uniquely.
    Returns ``{gamma, sign_flip, shift, q_lm, q_m}``: after replacing m by
    (-m if sign_flip else m) + shift * l, the new pair has q(l, m) = q_lm > 0
    and q(m) = q_m, and gamma = q_m/q_lm lies in (-1, 1].
    """
    if q_l != 0:
        raise ValueError(f"q(l) = {q_l} != 0")
    if q_lm == 0:
        raise ValueError("q(l, m) = 0")
    flip = q_lm < 0
    p = abs(q_lm)
    # choose r with q_m + 2 r p in (-p, p]
    r = -((q_m + p - 1) // (2 * p))
    new_qm = q_m + 2 * r * p
    if not -p < new_qm <= p:
        raise AssertionError(f"normalized q(m) = {new_qm} outside the window (-{p}, {p}]")
    return {"gamma": Q(new_qm, p), "sign_flip": flip, "shift": r, "q_lm": p, "q_m": new_qm}


def reflection_about(e: Sequence[int]) -> Callable[[Sequence[int]], Vector]:
    """The integral involution v -> v + q(v, e) * e of U, for a class e with q(e) = -2."""
    e = tuple(int(x) for x in e)
    if U.q(e) != -2:
        raise ValueError("reflection requires a class of square -2")

    def reflect(v: Sequence[int]) -> Vector:
        c = U.pair(v, e)  # checks that v has rank 2
        return (v[0] + c * e[0], v[1] + c * e[1])

    return reflect


def prime_exceptional_scan() -> dict:
    """Window enumeration of the prime exceptional classes of U, plus the exact argument.

    For a class E = t*l + u*m on the hyperbolic plane with q(E) < 0, the dual
    linear form -2 q(E, .)/q(E) must be integral; evaluated on l and m it has
    values 1/t and 1/u, so |t| = |u| = 1 and (q < 0) forces t = -u.  The
    window scan over |t|, |u| <= 10 makes this a runnable check, finding
    {-l + m, l - m}; the divisibility argument is what proves the window is
    exhaustive.
    """
    window = 10
    found = []
    # the report keeps the first `sample` rejections, so only those get their message
    sample, rejected = 6, []
    basis = ((1, 0), (0, 1))
    for t in range(-window, window + 1):
        for u in range(-window, window + 1):
            v = (t, u)
            qe = U.q(v)
            if qe >= 0:
                continue
            if gcd(t, u) != 1:
                if len(rejected) < sample:
                    rejected.append((v, "not primitive"))
                continue
            # dual form values -2 q(E, b)/q(E) on the basis, integral iff q(E) | 2 q(E, b)
            ok = True
            for b in basis:
                twice = -2 * U.pair(v, b)
                if twice % qe:
                    if len(rejected) < sample:
                        rejected.append((v, f"dual form value {Q(twice, qe)} on basis not integral"))
                    ok = False
                    break
            if ok:
                found.append(v)
    return {
        "prime_exceptional": sorted(found),
        "window": window,
        "divisibility_argument": (
            "integrality of -2 q(E,.)/q(E) on {l, m} gives 1/t, 1/u in Z, "
            "hence |t| = |u| = 1, and q(E) < 0 forces t = -u"
        ),
        "rejected_sample": rejected,
    }


def cone_report(t0: int) -> dict:
    """The four cones of divisor classes over the basis (l, m), as pairs of rays.

    Two cases: all cones equal (t0=0, case C1), or a unique prime exceptional
    divisor -l+m supported outside the positive cone (t0=1, case C2).
    ``duality_products`` are the q-pairings of each movable ray against each
    pseudoeffective ray.
    """
    if t0 not in (0, 1):
        raise ValueError("t0 must be 0 or 1")
    l, m = (1, 0), (0, 1)
    mov = (l, (t0, 1))
    psef = (l, (-t0, 1))
    return {
        "positive": (l, m),
        "movable": mov,
        "nef": mov,
        "psef": psef,
        "exceptional": (-1, 1) if t0 == 1 else None,
        "case": "C1" if t0 == 0 else "C2",
        "duality_products": [U.pair(v, w) for v in mov for w in psef],
    }
