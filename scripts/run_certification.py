#!/usr/bin/env python3
"""Run the full certification suite and write the machine-readable report.

Usage: python scripts/run_certification.py [out.json]

Equivalent to `hk4 report --json out.json` plus a human summary of
which certificates reproduced their expected values.
"""

import sys

from hk4.cli import main

out = sys.argv[1] if len(sys.argv) > 1 else "certification_report.json"
code = main(["report", "--json", out])
print(f"\nreport written to {out}; exit code {code}", file=sys.stderr)
sys.exit(code)
