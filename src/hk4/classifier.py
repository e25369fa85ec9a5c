"""Bounded Diophantine classification of fourfolds by the polarization degree a.

Given a = (1/2) * integral(l^2 m^2) with q(l) = 0, the value polynomial
P(k) = P_RR(q(k*l + m)) expands as (a/2) k^2 + b k + c with

    b = (a/2) gamma + beta,      beta = 2 sqrt(2 a A_X),
    c = (a/8) gamma^2 + (gamma/2) beta + 3,   gamma = q(m)/q(l,m) in (-1, 1],

and P taking integer values on Z forces a/2 + b in Z, c in Z, and
4 A_X - b^2/(2a) = 3 - c in Z.  Together with the admissible A_X set
(288 A_X integral plus the two Betti branches) and the rationality of
sqrt(2 a A_X), this makes the classification for each a a finite exact
search.  The engine applies the constraints in a fixed order (sqrt gate,
then the b-window scan, then admissibility of q(l, m)) and records every
killed candidate in the trace; the later two stages take only an A_X that
passed the gate, and raise ValueError on any other.

Every decision runs on integers: the gate on a*N, the b-window on
numerators over one denominator, q-admissibility on P_RR scaled by a
common denominator.  The trace text is written from those integers too.
Fractions are built only for what a CaseReport stores: the states, the
admitted QOptions and their Riemann-Roch polynomials.

The trace is a `KillTrace`: the integers and strings the stages computed
(the gate's kills, each scanned A_X with its string, the strings of its
states' gamma and its q-kills once), not rows.  Rows are made only when the
trace is written or read: `KillTrace.chunks` writes them from one template per
stage, for the JSON and for the `classify` text alike, and iterating the
trace yields `TraceEntry` rows (stage, candidate, constraint, value).

Two facts about the search shape `classify`; both are proved here and
tested in tests/test_classifier.py.

Lemma 1 (a state always admits q = 1).  A state of `gamma_search` is an m
of the parity of a with 8aq | p - q m^2, where p/q = 32 a A_X = 16 r^2 in
lowest terms and r = sqrt(2 a A_X).  Then q | p with gcd(p, q) = 1, so
q = 1: R = 4r is a rational with an integer square, so an integer, and
8a | R^2 - m^2 gives R the parity of m, which is that of a.  At q(l, m) = 1
the even value model has P_RR(0) = 3, P_RR(2) - 3 = (R + a)/2 and
P_RR(4) - 3 = R + 2a, all integers, so `admissible_qlm` admits q = 1 and
every state becomes a solution.

Lemma 2 (the even-b kill is implied).  For even a every b = m/2 is an
integer, and each A_X's window holds a >= 2 consecutive values of b, so
an even one among them.  By Lemma 1 every state is a solution, so when
every solution has odd b, some even b was killed, and the note "forces
b odd" needs only the parity of a and of the solutions' b.
"""

from __future__ import annotations

import functools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
from math import gcd, isqrt
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .fujiki import (
    ADMISSIBLE_288AX,
    RRPolynomial,
    betti_profile,
    rr_from_cx_ax,
)
from .rationals import (
    Q,
    RatPoly,
    is_perfect_square,
    ratio_to_string,
    sqrt_rational,
    squarefree_part,
)

EVEN = "EVEN"
UNCONSTRAINED = "UNCONSTRAINED"


#: One killed candidate, made only for a caller that reads `CaseReport.trace`.
TraceEntry = namedtuple("TraceEntry", "stage candidate constraint value")

#: The constraint that each stage's kills fail, in stage order.
CONSTRAINTS = {
    "sqrt_gate": "288*a*A_X must be a perfect square (rationality of sqrt(2aA_X))",
    "restrict": "A_X pinned by scenario override",
    "gamma_search": "4*A_X - b^2/(2a) must be an integer",
    "admissible_qlm": "P_RR must be integer valued on the value model",
}


@dataclass(frozen=True)
class ClassifierState:
    """One surviving (A_X, gamma) branch of the b-window scan."""

    a: int
    A_X: Q
    beta: Q
    gamma: Q
    b: Q
    c: Q
    #: P(k) = (a/2) k^2 + b k + c; integer valued on Z by construction.
    value_poly: RatPoly


@dataclass(frozen=True)
class QOption:
    """An admitted pairing value q = q(l, m) with its forced data."""

    q_lm: int
    c_X: Q
    parity: str  # EVEN (only the even value model passes) or UNCONSTRAINED
    rr: RRPolynomial


@dataclass(frozen=True)
class Solution:
    state: ClassifierState
    q_options: tuple[QOption, ...]
    betti_options: tuple[tuple[int, int, int], ...]
    betti_builtin_only: tuple[tuple[int, int, int], ...]


class KillTrace:
    """The kills of one case as the stages computed them; rows are made when written or read.

    ``gate`` holds the N = 288 A_X that the sqrt gate killed.  ``restricted``
    holds the strings of the A_X that a scenario override skipped, and
    ``override`` the string of the A_X it pins.  ``blocks`` holds one
    ((first m, p, q) of its b-window from `gamma_search`, its string, the
    gamma strings of its states, its q-kills) per scanned A_X, in scan order.
    The b-window's kills are not stored: they are the m of the window that
    are not states, and `runs` walks the window again from its integers.
    """

    __slots__ = ("a", "gate", "restricted", "override", "blocks")

    def __init__(self, a: int, gate: tuple, restricted: tuple, override: str, blocks: tuple):
        self.a, self.gate, self.restricted, self.override, self.blocks = (
            a, gate, restricted, override, blocks)

    def runs(self, esc=str):
        """(stage, candidate head, [(candidate tail, value), ...]) per run of rows, in order.

        Rows of one run share their stage and the head of their candidate.
        ``esc`` is applied to the stored strings in tails and values; a head is
        returned as it is, for the caller to escape once.  Every other part of a
        tail or a value is built here from integers and text that JSON writes as
        it is.  Every m of a window has the parity of a, so b = m/2 is written
        as m/2 for odd a and as the integer m >> 1 for even a.
        """
        a = self.a
        yield "sqrt_gate", "A_X=", [(ratio_to_string(n, 288), f"{a * n} is not a perfect square")
                                    for n in self.gate]
        value = esc(f"override A_X={self.override}")
        yield "restrict", "A_X=", [(esc(ax_s), value) for ax_s in self.restricted]
        for (m0, p, q), ax_s, gammas, q_kills in self.blocks:
            ms, den = range(m0, m0 + 2 * a, 2), 8 * a * q
            # the defect num/den in lowest terms, for each m whose defect is not an integer
            yield "gamma_search", f"A_X={ax_s}, b=", [
                (f"{m}/2" if a & 1 else str(m >> 1),
                 str(num // g) if (g := gcd(num, den)) == den else f"{num // g}/{den // g}")
                for m in ms if (num := p - q * m * m) % den]
            rows = [(f"{q_lm}, parity={esc(parity)}", esc(reason))
                    for q_lm, parity, reason in q_kills]
            for gamma in gammas:
                yield "admissible_qlm", f"A_X={ax_s}, gamma={gamma}, q=", rows

    def chunks(self, row, esc, sep: str) -> list[str]:
        """Every row's text, ``sep`` between rows, in chunks of one run each.

        One template per stage, filled once per row: ``row(stage, constraint)``
        gives the text before a row's candidate, between it and the value, and
        after the value.  ``esc`` is applied once per run to the candidate's
        head and to the stored strings of tails and values (see `runs`).  The
        chunks alternate with ``sep``, so their concatenation is the whole text
        and no copy of it is made here.
        """
        templates = {stage: row(stage, constraint) for stage, constraint in CONSTRAINTS.items()}
        out: list[str] = []
        for stage, head, rows in self.runs(esc):
            if rows:
                before, between, after = templates[stage]
                before += esc(head)
                out += (sep, sep.join([f"{before}{tail}{between}{value}{after}"
                                       for tail, value in rows]))
        return out[1:]

    def __iter__(self):
        for stage, head, rows in self.runs():
            constraint = CONSTRAINTS[stage]
            for tail, value in rows:
                yield TraceEntry(stage, head + tail, constraint, value)

    def __len__(self) -> int:
        return sum(len(rows) for _, _, rows in self.runs())

    def __getitem__(self, index):
        return tuple(self)[index]


@dataclass(frozen=True)
class CaseReport:
    a: int
    verdict: str  # EMPTY or SOLUTIONS
    solutions: tuple[Solution, ...]
    trace: KillTrace  # iterating it yields TraceEntry rows
    notes: tuple[str, ...]


def sqrt_gate(a: int, killed: Optional[list] = None) -> list[Q]:
    """Admissible A_X with sqrt(2 a A_X) rational.

    Writing 288 A_X = N, rationality of sqrt(2 a A_X) = sqrt(a N)/12 is
    equivalent to a*N being a perfect square; N ranges over the admissible
    set {225} union [240, 262].  Rejected N go to `killed` as (N, a*N).
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    out = []
    for n288 in ADMISSIBLE_288AX:
        if is_perfect_square(a * n288):
            out.append(Q(n288, 288))
        elif killed is not None:
            killed.append((n288, a * n288))
    return out


def gamma_search(a: int, A_X: Q, window: Optional[list] = None) -> list[ClassifierState]:
    """Scan the finite b-window (beta - a/2, beta + a/2] forced by gamma in (-1, 1].

    Candidates step by 1 from the residue forced by a/2 + b in Z, so b = k - a/2
    with k one of the a integers floor(beta) + 1, ..., floor(beta) + a, which are
    exactly the integers in (beta, beta + a].  Each candidate is kept iff
    4 A_X - b^2/(2a) is an integer, which makes c = 3 - that value integral.
    With m = 2k - a (so b = m/2) and p/q = 32 a A_X in lowest terms,
    4 A_X - b^2/(2a) = (p - q m^2) / (8 a q), so the test runs on integers and
    Fractions are built only for the surviving states.  The killed candidates
    are not listed here: the window's (first m, p, q) go to `window`, from
    which `KillTrace.runs` walks it again when the trace is written or read.
    """
    A_X = A_X if type(A_X) is Q else Q(A_X)
    beta = sqrt_rational(Q(8 * a * A_X.numerator, A_X.denominator))
    if beta is None:
        raise ValueError("gamma_search requires sqrt(2aA_X) rational; run sqrt_gate first")
    p, q = Q(32 * a * A_X.numerator, A_X.denominator).as_integer_ratio()
    m0 = 2 * math.floor(beta) + 2 - a
    if window is not None:
        window += (m0, p, q)
    den = 8 * a * q
    states = []
    for m in range(m0, m0 + 2 * a, 2):
        num = p - q * m * m
        if num % den == 0:
            b, c = Q(m, 2), Q(3 - num // den)
            states.append(ClassifierState(a=a, A_X=A_X, beta=beta, gamma=2 * (b - beta) / a, b=b,
                                          c=c, value_poly=RatPoly((c, b, Q(a, 2)))))
    return states


def admissible_qlm(a: int, A_X: Q, killed: Optional[list] = None) -> dict[int, QOption]:
    """Decide which pairing values q = q(l, m) the value model admits.

    The answer depends on (a, A_X) only, not on the b-window state, so
    `classify` calls this once per A_X that has states.  Like `gamma_search`,
    it raises ValueError unless A_X passed `sqrt_gate`.  When A_X has states,
    q = 1 is always admitted (Lemma 1 of the module docstring).

    For each q, c_X = 3a/q^2 and the Riemann-Roch polynomial must take
    integer values on the set of values of the quadratic form; the engine
    models that set as all even integers (even form) or all integers (odd
    form), the two a rank-2-hyperbolic-plus-hyperbolic sublattice realizes.
    A candidate q is admitted with the parities whose model passes the exact
    integer-valuedness test; parity EVEN means only the even model survives.
    Candidates range over 1 <= q <= floor(sqrt(3a)): any admitted q forces
    c_X = 3a/q^2 >= 3 through the leading-coefficient integrality, so the
    window is generous.  Kills go to `killed` as (q, parity, reason text).

    The test runs on integers.  With r = sqrt(2 a A_X) = rn/rd, computed once,
    P_RR(T) = 3 + (r/q) T + (a/(8 q^2)) T^2, and D = 8 q^2 rd clears every
    denominator.  A quadratic is integer valued on a progression iff its
    values at the first three points are integers (the finite-difference
    criterion of `rationals.integrality_witness`), so the odd model tests
    T = 0, 1, 2 and the even model T = 0, 2, 4, each as D * P_RR(T) % D.
    Fractions (c_X and `rr_from_cx_ax`) are built only for admitted q.
    """
    A_X = A_X if type(A_X) is Q else Q(A_X)
    r = sqrt_rational(Q(2 * a * A_X.numerator, A_X.denominator))
    if r is None:
        raise ValueError("admissible_qlm requires sqrt(2aA_X) rational; run sqrt_gate first")
    rn, rd = r.numerator, r.denominator
    out: dict[int, QOption] = {}
    for q in range(1, isqrt(3 * a) + 1):
        # D * P_RR(T) = 3 D + lin * T + quad * T^2
        den, lin, quad = 8 * q * q * rd, 8 * q * rn, a * rd
        odd_w = _first_non_integral((0, 1, 2), lin, quad, den)
        even_w = None if odd_w is None else _first_non_integral((0, 2, 4), lin, quad, den)
        if even_w is not None:
            if killed is not None:
                killed.append((q, "EVEN", f"P_RR({even_w}) not an integer"))
            continue
        parity = UNCONSTRAINED if odd_w is None else EVEN
        if odd_w is not None and killed is not None:
            # every even value is integral, so the first non-integral value is at an odd T
            killed.append((q, "ODD", f"P_RR({odd_w}) not an integer"))
        c_X = Q(3 * a, q * q)
        out[q] = QOption(q_lm=q, c_X=c_X, parity=parity, rr=rr_from_cx_ax(c_X, A_X))
    return out


def _first_non_integral(points, lin: int, quad: int, den: int) -> Optional[int]:
    """The first T in `points` with (lin*T + quad*T^2)/den not an integer, or None."""
    for t in points:
        if (lin + quad * t) * t % den:
            return t
    return None


def load_betti_table(path: Optional[str] = None) -> list[dict]:
    """Betti data file: JSON array of {"b2": int, "b3": int, "source": str}.

    ``b2`` and ``b3`` must be JSON integers: ``23.9``, ``"8"`` and ``true``
    raise ValueError instead of being read as 23, 8 and 1.  The built-in file
    is read and checked once per process and each call gets fresh copies of
    its entries; a file given by ``path`` is read and checked on every call.
    """
    if path is None:
        return [dict(entry) for entry in _builtin_betti_table()]
    with open(path, "r", encoding="utf-8") as fh:
        return _checked_betti(fh.read())


@functools.cache
def _builtin_betti_table() -> tuple[dict, ...]:
    return tuple(_checked_betti(resources.files("hk4.data").joinpath("betti.json").read_text()))


def _checked_betti(text: str) -> list[dict]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("Betti data file must be a JSON array")
    for entry in data:
        b2, b3 = entry["b2"], entry["b3"]
        if type(b2) is not int or type(b3) is not int:
            raise ValueError(f"b2 and b3 must be integers, got {b2!r} and {b3!r}")
        betti_profile(b2, b3)  # validate eagerly
    return data


@functools.cache
def _betti_grid() -> Mapping[Q, tuple[tuple[int, int, int], ...]]:
    """Violation-free (b2, b3, b4) of the built-in grid, grouped by A_X.

    Scans b2 in 3..8 and then b2 = 23, with b3 even and c4 >= 0, once per
    process; each A_X keeps its triples in scan order.  The cached map is
    read-only and holds tuples, so no caller can change it.
    """
    grid: dict[Q, list[tuple[int, int, int]]] = {}
    for b2 in list(range(3, 9)) + [23]:
        for b3 in range(0, 4 * b2 + 17, 2):
            # b4 = 10*b2 + 46 - b3 >= 6*b2 + 30 > 0, so betti_profile does not raise here
            prof = betti_profile(b2, b3)
            if not prof["violations"]:
                grid.setdefault(prof["A_X"], []).append((b2, b3, prof["b4"]))
    return MappingProxyType({ax: tuple(triples) for ax, triples in grid.items()})


def betti_options_for(A_X: Q, table: Sequence[dict]) -> tuple[list, list]:
    """Split the built-in candidate triples into (listed in data file, builtin only).

    A candidate is a violation-free profile of the grid in `_betti_grid`
    whose A_X matches; the grid is scanned once, and this is a lookup.
    Depends on A_X and the table only; `classify` calls it once per A_X
    that has states.  The table holds integer b2 and b3, as
    `load_betti_table` checks.
    """
    listed_pairs = {(e["b2"], e["b3"]) for e in table}
    in_table, builtin_only = [], []
    for triple in _betti_grid().get(Q(A_X), ()):
        (in_table if (triple[0], triple[1]) in listed_pairs else builtin_only).append(triple)
    return in_table, builtin_only


def classify(
    a: int,
    betti_table: Optional[Sequence[dict]] = None,
    restrict_ax: Optional[Q] = None,
) -> CaseReport:
    """Full case analysis for one value of a: sqrt gate, b-window, q admissibility.

    Returns EMPTY with the complete kill trace, or the surviving solutions
    with their admitted pairings, forced Fujiki constants, value polynomials,
    and Betti options from the data table.

    q-admissibility and the Betti options depend on (a, A_X) only, so each is
    computed once per A_X; the trace still lists the q-kills once per state,
    each row carrying that state's gamma.  The trace is a `KillTrace` of what
    the stages computed, with the strings of A_X and gamma formatted once per
    A_X and per state; its rows are made only when it is written or read.
    Every state admits q = 1 (Lemma 1 of the module docstring), so every state
    is a solution.  `sqrt_gate` rejects a < 1.
    """
    if betti_table is None:
        betti_table = load_betti_table()
    notes: list[str] = []

    gate_kills: list = []
    ax_values = sqrt_gate(a, killed=gate_kills)
    restricted, override = (), ""
    if restrict_ax is not None:
        restrict_ax = Q(restrict_ax)
        restricted = tuple(str(ax) for ax in ax_values if ax != restrict_ax)
        override = str(restrict_ax)
        ax_values = [ax for ax in ax_values if ax == restrict_ax]

    solutions: list[Solution] = []
    blocks = []
    for ax in ax_values:
        window: list = []
        states = gamma_search(a, ax, window)
        q_kills: list = []
        if states:
            q_options = admissible_qlm(a, ax, killed=q_kills)
            admitted = tuple(q_options[q] for q in sorted(q_options))
            in_table, builtin_only = map(tuple, betti_options_for(ax, betti_table))
            solutions += [Solution(state, admitted, in_table, builtin_only) for state in states]
        gammas = tuple(str(state.gamma) for state in states)
        blocks.append((tuple(window), str(ax), gammas, tuple(q_kills)))

    if solutions:
        # for even a every b is an integer, and an even b was killed (Lemma 2)
        if a % 2 == 0 and all(s.state.b % 2 == 1 for s in solutions):
            notes.append("integrality of 4*A_X - b^2/(2a) forces b odd")
        for s in solutions:
            if s.betti_builtin_only:
                extra = ", ".join(str(t) for t in s.betti_builtin_only)
                note = (
                    f"Betti triples admitted by built-in constraints but absent from "
                    f"the data table for A_X={s.state.A_X}: {extra}"
                )
                if note not in notes:
                    notes.append(note)
    return CaseReport(
        a=a,
        verdict="SOLUTIONS" if solutions else "EMPTY",
        solutions=tuple(solutions),
        trace=KillTrace(a, tuple(n for n, _ in gate_kills), restricted, override, tuple(blocks)),
        notes=tuple(notes),
    )


def squarefree_a_filter() -> frozenset[int]:
    """Square-free a for which some admissible N = 288*A_X makes a*N a square.

    For square-free a, a*N being a square is the same as a equaling the
    square-free part of N, so the filter is the set of square-free parts of
    the admissible values.  Every element is at most 262.
    """
    return frozenset(squarefree_part(n) for n in ADMISSIBLE_288AX)


def fujiki_degree_bound(n: int, a: int) -> Q:
    """Bound a*3^n*(2n)!/(2^n n!) on integral((l+m)^(2n)) after normalization.

    With -q(l,m) < q(m) <= q(l,m) one has q(l+m) <= 3 q(l,m), and the Fujiki
    relation turns that into the stated bound.  (2n)!/(2^n n!) = (2n - 1)!! is
    an integer, so the bound is one, computed on ints.
    """
    if n < 1 or a < 1:
        raise ValueError("fujiki_degree_bound requires n >= 1 and a >= 1")
    return Q(a * 3**n * math.factorial(2 * n) // (2**n * math.factorial(n)))
