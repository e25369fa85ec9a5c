#!/usr/bin/env python3
"""Run the full certification suite and write the machine-readable report.

Usage: python scripts/run_certification.py [out.json]

Runs `hk4 report --json out.json` in process: the canonical JSON report goes
to stdout and to out.json (default certification_report.json), then one line
on stderr names the file and the exit code.  Per-certificate verdicts are in
the report's "certificates" block; `hk4 verify all` prints them one per line.
The exit code is `hk4 report`'s, 141 included when stdout is closed early.
"""

import sys

from hk4.cli import main

out = sys.argv[1] if len(sys.argv) > 1 else "certification_report.json"
code = main(["report", "--json", out])
print(f"\nreport written to {out}; exit code {code}", file=sys.stderr)
sys.exit(code)
