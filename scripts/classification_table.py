#!/usr/bin/env python3
"""Print the classification summary for every polarization degree a = 1..8.

One row per a: verdict, surviving (A_X, gamma, q, c_X) data, Betti options.
Exits 0, or 141 when stdout is closed early (``... | head -3``).
"""

import sys

from hk4.classifier import classify
from hk4.cli import guard_stdout


def main() -> int:
    for a in range(1, 9):
        rep = classify(a)
        if rep.verdict == "EMPTY":
            reasons = {stage for stage, _, rows in rep.trace.runs() if rows}
            print(f"a = {a}: EMPTY  (killed in: {', '.join(sorted(reasons))})")
            continue
        for sol in rep.solutions:
            st = sol.state
            qs = ", ".join(
                f"q={o.q_lm} (c_X={o.c_X}, {o.parity})" for o in sol.q_options
            )
            betti = " ".join(str(t) for t in sol.betti_options)
            print(
                f"a = {a}: A_X={st.A_X} gamma={st.gamma} b={st.b} c={st.c} | {qs} | "
                f"Betti: {betti}"
            )
        for note in rep.notes:
            print(f"        note: {note}")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
