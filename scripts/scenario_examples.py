#!/usr/bin/env python3
"""Build and run the three canonical scenarios against the engine.

Writes scenario JSON files for the three standard Fujiki constants on a
hyperbolic degree-2 pair (c_X = 3 and 9 in dimension 4, c_X = 945 in
dimension 10) and prints each resulting report summary.

Usage: ``scenario_examples.py [OUTDIR]``, where OUTDIR (default
``scenarios``) is created if it does not exist.  Exits 0, 2 on a usage
error or an OUTDIR that cannot be made a directory or written into (with
one ``error:`` line, before anything is printed), or 141 when stdout is
closed early.
"""

import argparse
import json
import pathlib
import sys

from hk4.cli import guard_stdout, run_scenario

SCENARIOS = {
    "hyperbolic_cx3": {
        "n": 2,
        "rank": 2,
        "gram": [[0, 1], [1, 0]],
        "l": [1, 0],
        "m": [0, 1],
        "overrides": {"c_X": "3"},
    },
    "hyperbolic_cx9": {
        "n": 2,
        "rank": 2,
        "gram": [[0, 1], [1, 0]],
        "l": [1, 0],
        "m": [0, 1],
        "overrides": {"c_X": "9"},
    },
    "dim10_cx945": {
        "n": 5,
        "rank": 2,
        "gram": [[0, 1], [1, 0]],
        "l": [1, 0],
        "m": [0, 1],
        "overrides": {"c_X": "945"},
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Write the three canonical scenarios and print each report summary.")
    parser.add_argument("outdir", nargs="?", default="scenarios",
                        help="directory for the scenario files (default: scenarios)")
    outdir = pathlib.Path(parser.parse_args().outdir)
    paths = {name: outdir / f"{name}.json" for name in SCENARIOS}
    try:  # every file is written before any scenario runs or prints
        outdir.mkdir(exist_ok=True)
        for name, doc in SCENARIOS.items():
            paths[name].write_text(json.dumps(doc, indent=2) + "\n")
    except OSError as exc:  # a file in the way, a missing parent, a directory named like a file
        print(f"error: cannot write the scenarios into OUTDIR {str(outdir)!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    for name, doc in SCENARIOS.items():
        out = run_scenario(doc)
        if "classification" in out:
            verdict = out["classification"]["verdict"]
            extra = f"classification: {verdict}"
        else:
            rr = out["principal_case"]["rr"]["pretty"] if out["principal_case"] else "-"
            extra = f"principal case, P_RR(T) = {rr}"
        print(f"{paths[name]}: n={out['n']} a={out['a']} -> {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(guard_stdout(main))
