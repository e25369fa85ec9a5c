#!/usr/bin/env python3
"""hk4 benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload classify_dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; hk4 is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and its overhead.  ``--workload all`` runs each
workload in its own process.  Human-readable lines and the provenance go to
stdout first; the last line is one JSON object.  The workloads, metrics and
layer table are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
#: Set-ups per untraced run (one in this process, the rest in fresh children).
SETUP_REPEATS = 9
#: Interpreter-start and import probes per traced run.
STARTUP_REPEATS = 9
#: The reference probe's duration that ``norm.*`` times are scaled to; the
#: probe takes 1.4-2.5 ms on a 2-vCPU shared virtual machine with Python 3.11.
REF_NOMINAL_NS = 2_000_000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload's inputs (smoke test only)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "hk4" / "cli.py").is_file():
        print(f"error: no hk4 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        return run_all(args)

    tmp = RUN_DIR / f"tmp-{os.getpid()}"
    try:
        start = time.perf_counter()
        tmp.mkdir(parents=True)
        wl = WORKLOADS[args.workload](ROOT, tmp, args.seed, args.tiny, in_process=bool(args.trace))
        wl.setup()
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        print("provenance " + json.dumps(provenance(args)))
        if args.trace:
            result = traced_run(wl, args)
        else:
            setups = [setup_s] + [child_setup(args) for _ in range(SETUP_REPEATS - 1)]
            result = untraced_run(wl, args, setups)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the closed loop


def reference_ns() -> int:
    """Duration of a fixed pure-Python Fraction loop: a probe of the host's speed.

    The collector is off while it runs, so hk4's heap does not leak into it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter_ns()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    dt = time.perf_counter_ns() - t0
    if gc_was_enabled:
        gc.enable()
    return dt


class Loop:
    """Latencies, failures and wrong outputs of one measured phase."""

    def __init__(self):
        self.lat_ns: list[int] = []
        self.norm_ns: list[float] = []  # lat_ns at the nominal host speed
        self.ref_ns: list[int] = []
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.wrong: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.lat_ns)

    def ops_per_s(self, lat_ns=None) -> float:
        """Operations that completed correctly, per second spent in operations."""
        return (self.attempted - self.failed) / (sum(lat_ns or self.lat_ns) / 1e9)


def run_cycle(wl, loop: Loop, tracer=None) -> None:
    """One cycle of the workload's inputs into ``loop``; checks run untimed.

    A reference probe runs between operations, and each operation is scaled
    by the mean of the probes on either side of it.
    """
    before = reference_ns()
    for spec in wl.cycle():
        if tracer is not None:
            tracer.op = loop.attempted
        t0 = time.perf_counter_ns()
        try:
            out, exc = wl.op(spec), None
        except Exception as err:  # an escaped exception is a failed operation
            out, exc = None, err
        lat = time.perf_counter_ns() - t0
        after = reference_ns()
        loop.lat_ns.append(lat)
        loop.norm_ns.append(lat * 2 * REF_NOMINAL_NS / (before + after))
        loop.ref_ns.append(after)
        before = after
        if exc is not None:
            loop.failed += 1
            name = type(exc).__name__
            loop.errors[name] = loop.errors.get(name, 0) + 1
            continue
        try:
            wrong = wl.check(spec, out)
        except Exception as err:  # output too malformed to inspect
            wrong = f"check raised {err!r}"
        if wrong:
            loop.failed += 1
            loop.wrong.append(wrong)


def measure(wl, seconds: float) -> Loop:
    """Run whole cycles until ``seconds`` have passed."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        run_cycle(wl, loop)
        if time.perf_counter() - start >= seconds:
            return loop


def tail(lat_ns: list, pct: float) -> tuple[float, int]:
    """(latency in ms at the nearest-rank percentile ``pct``, samples above it)."""
    ordered = sorted(lat_ns)
    idx = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    return ordered[idx] / 1e6, len(ordered) - 1 - idx


def result_line(loop: Loop, metrics: dict) -> dict:
    return {"correct": not loop.wrong, "attempted": loop.attempted, "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def report_loop(loop: Loop) -> None:
    print(f"attempted {loop.attempted}, failed {loop.failed} "
          f"(failed_share {loop.failed / loop.attempted} share)")
    for name, count in sorted(loop.errors.items()):
        print(f"  escaped exception {name}: {count}")
    for msg in loop.wrong[:5]:
        print(f"  wrong output: {msg}")


def untraced_run(wl, args, setups: list[float]) -> dict:
    loop = measure(wl, args.seconds)
    n = loop.attempted
    raw_tail, above = tail(loop.lat_ns, wl.tail_pct)
    norm_tail, _ = tail(loop.norm_ns, wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "norm.ops_per_s": (loop.ops_per_s(loop.norm_ns), "1/s"),
        "norm.op_ms.p50": (statistics.median(loop.norm_ns) / 1e6, "ms"),
        "norm.op_ms.tail": (norm_tail, "ms"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }
    raw = {
        "ops_per_s": (loop.ops_per_s(), "1/s"),
        "op_ms.p50": (statistics.median(loop.lat_ns) / 1e6, "ms"),
        "op_ms.tail": (raw_tail, "ms"),
        "failed_share": (loop.failed / n, "share"),
    }
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} op_ms.tail is p{wl.tail_pct} of {n} samples ({above} above it)")
    print(f"{args.workload} host speed: reference probe median "
          f"{statistics.median(loop.ref_ns) / 1e6:.4f} ms, nominal {REF_NOMINAL_NS / 1e6} ms")
    print(f"{args.workload} setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    report_loop(loop)
    return result_line(loop, metrics)


def child_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# the traced run


def startup_ms() -> tuple[float, float]:
    """Median wall time of ``python -c pass`` and of ``import hk4.cli`` minus it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        return (time.perf_counter() - t0) * 1000

    interp, imported = [], []
    for _ in range(STARTUP_REPEATS):
        interp.append(wall("pass"))
        imported.append(wall("import hk4.cli"))
    return statistics.median(interp), statistics.median(imported) - statistics.median(interp)


def traced_run(wl, args) -> dict:
    """Untraced and traced cycles in turn, both in process; per-op layer figures.

    Alternating puts drift in the host's speed on both sides of the overhead
    figure alike.
    """
    from tracing import Tracer

    interp_ms, import_ms = startup_ms()
    plain, loop, tracer = Loop(), Loop(), Tracer()
    start = time.perf_counter()
    while not loop.attempted or time.perf_counter() - start < args.seconds:
        run_cycle(wl, plain)
        tracer.install()
        try:
            run_cycle(wl, loop, tracer)
        finally:
            tracer.uninstall()
    spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)

    ops = loop.attempted
    metrics = {"startup.interp_ms": (interp_ms, "ms"), "startup.import_ms": (import_ms, "ms")}
    for spec in per_layer_spec():
        name = spec["name"]
        if name.startswith("startup."):
            continue
        metrics[name] = (layer_value(name, tracer, ops, plain, loop), spec["unit"])
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} traced {ops} ops; {len(tracer.spans)} spans kept in {spans_path}")
    report_loop(loop)
    plain.wrong.extend(loop.wrong)
    plain.failed += loop.failed
    plain.lat_ns.extend(loop.lat_ns)
    return result_line(plain, metrics)


def per_layer_spec() -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]


def layer_value(name: str, tracer, ops: int, plain, loop) -> float:
    """One per-layer metric, per operation of the traced phase."""
    if name == "trace.untraced_ops_per_s":
        return plain.ops_per_s()
    if name == "trace.traced_ops_per_s":
        return loop.ops_per_s()
    if name == "trace.overhead_pct":
        return 100 * (plain.ops_per_s() / loop.ops_per_s() - 1)
    if name == "trace.ref_probe_ms":
        return statistics.median(plain.ref_ns + loop.ref_ns) / 1e6
    counts = tracer.counts
    if name == "classifier.states_per_candidate":
        scanned = counts["classifier.states"] + counts["classifier.killed.gamma_search"]
        return counts["classifier.states"] / scanned if scanned else 0.0
    if name in counts:
        return counts[name] / ops
    span, _, stat = name.rpartition(".")
    calls, total_ns, self_ns = tracer.totals[span]
    return {"calls": calls, "total_ms": total_ns / 1e6, "self_ms": self_ns / 1e6}[stat] / ops


# ---------------------------------------------------------------------------
# side channel


def provenance(args) -> dict:
    data = ROOT / "src" / "hk4" / "data"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hk4_version": hk4_version(),
        "expectations_sha256": hashlib.sha256((data / "expectations.json").read_bytes()).hexdigest(),
        "betti_sha256": hashlib.sha256((data / "betti.json").read_bytes()).hexdigest(),
        "git_commit": git_commit(),
    }


def hk4_version() -> str:
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["version"]


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_all(args) -> int:
    """Each workload in its own process; prints their lines and one combined JSON line."""
    combined = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        combined[name] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
