"""Smoke test of the benchmark: tiny runs print every metric with its unit.

    python3 -m pytest perfbench/test_smoke.py -q

Run from the repository root.  Each tiny run takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    human = "\n".join(lines[:-1])
    for m in named:
        line = rf"^{workload} {re.escape(m['name'])} = \S+ {re.escape(m['unit'])}$"
        assert re.search(line, human, re.M), m
    if not trace:  # the times as measured, and failed_share, on the side channel
        for name in ("ops_per_s", "op_ms.p50", "op_ms.tail", "failed_share"):
            assert re.search(rf"^{workload} {re.escape(name)} = \S+ \S+$", human, re.M), name
        assert f"{workload} op_ms.tail is p" in human
    assert '"git_commit"' in lines[0] and '"betti_sha256"' in lines[0]


def test_scenario_failed_share_is_the_malformed_share():
    proc = _run(ROOT, "--workload", "scenario_warm", "--seed", "3", "--seconds", "1", "--tiny")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # tiny cycle: 8 valid + 12 principal + 6 precondition + 2 schema + 16 malformed
    assert result["failed"] * 44 == result["attempted"] * 16


def test_oracle_rejects_a_wrong_case_report():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import oracle
    from hk4 import classifier

    case = classifier.classify(28)
    assert oracle.mismatches(28, case) == []
    assert oracle.mismatches(28, dataclasses.replace(case, verdict="EMPTY"))
    assert oracle.mismatches(28, dataclasses.replace(case, solutions=case.solutions[1:] or ()))
    assert oracle.mismatches(28, dataclasses.replace(case, trace=case.trace[1:]))


def test_refuses_to_run_without_the_hk4_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
