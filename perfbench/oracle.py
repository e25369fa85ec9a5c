"""Integer-only oracle for the classifier's sqrt gate and b-window scan.

It shares no code with hk4: the admissible set and both constraints are
restated here and evaluated with ``math.isqrt`` and integer residues only,
so a wrong ``Fraction`` step in the engine cannot hide behind the same step
in the check.

With 288 A_X = N, sqrt(2 a A_X) is rational iff a N is a perfect square r^2,
and then beta = 2 sqrt(2 a A_X) = r / 6.  The scan keeps b = k - a/2 for the
integers k with beta < k <= beta + a (that is r < 6k <= r + 6a) such that
4 A_X - b^2/(2a) = N/72 - (2k - a)^2/(8a) is an integer, i.e.
576 a divides 8 a N - 72 (2k - a)^2.
"""

from __future__ import annotations

from math import gcd, isqrt

ADMISSIBLE_N = (225,) + tuple(range(240, 263))


def _fraction_str(num: int, den: int) -> str:
    """Lowest-terms "p/q" (or "p"), the spelling str() gives a Fraction."""
    g = gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def passes_sqrt_gate(a: int) -> bool:
    return any(isqrt(a * n) ** 2 == a * n for n in ADMISSIBLE_N)


def expected_case(a: int) -> tuple[set[str], set[tuple[str, str]], int]:
    """(A_X killed by the sqrt gate, surviving (A_X, b) pairs, b candidates scanned)."""
    killed, survivors, scanned = set(), set(), 0
    for n in ADMISSIBLE_N:
        r = isqrt(a * n)
        if r * r != a * n:
            killed.add(_fraction_str(n, 288))
            continue
        for k in range(r // 6 + 1, (r + 6 * a) // 6 + 1):
            scanned += 1
            if (8 * a * n - 72 * (2 * k - a) ** 2) % (576 * a) == 0:
                survivors.add((_fraction_str(n, 288), _fraction_str(2 * k - a, 2)))
    return killed, survivors, scanned


def mismatches(a: int, report) -> list[str]:
    """Every disagreement between a ``CaseReport`` for ``a`` and the oracle."""
    killed, survivors, scanned = expected_case(a)
    out = []
    verdict = "SOLUTIONS" if survivors else "EMPTY"
    if report.a != a:
        out.append(f"a={a}: report is for a={report.a}")
    if report.verdict != verdict:
        out.append(f"a={a}: verdict {report.verdict}, oracle {verdict}")
    found = {(str(s.state.A_X), str(s.state.b)) for s in report.solutions}
    if found != survivors:
        out.append(f"a={a}: (A_X, b) set differs: extra {found - survivors}, "
                   f"missing {survivors - found}")
    gate = {t.candidate for t in report.trace if t.stage == "sqrt_gate"}
    if gate != {f"A_X={ax}" for ax in killed}:
        out.append(f"a={a}: sqrt-gate kills differ")
    scan_kills = sum(1 for t in report.trace if t.stage == "gamma_search")
    if scan_kills != scanned - len(survivors):
        out.append(f"a={a}: {scan_kills} b-window kills, oracle {scanned - len(survivors)}")
    return out
