"""The three workloads: inputs made from the seed, one operation, and its check.

Each workload runs its inputs in cycles.  A cycle holds every input of the
workload once, in a fresh seeded order, and a run always ends on a cycle
boundary, so every run measures the same multiset of inputs whatever the
seed; the seed only changes the order and the incidental shape of the inputs.

``op`` is the timed operation.  ``check`` returns a message when the output
is wrong and None when it is right; it runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

#: sha256 of ``hk4 report --json`` output; any change to it is a wrong output.
REPORT_SHA256 = "78bfa3fe40bb3986df12535a9f5c625a221692ed825d73a1a32361d3fa534db4"

EXIT_OK, EXIT_USAGE, EXIT_PRECONDITION = 0, 2, 3


class Workload:
    name = ""
    #: The tail percentile: the highest of p90, p97.5 and p99 with at least ten
    #: samples above it in a run at the commit that defined the benchmark.  It
    #: is fixed, so that it means the same when the sample count changes; and
    #: since runs hold whole cycles, it picks the same input rank in every run.
    tail_pct = 90.0

    def __init__(self, root: Path, tmp: Path, seed: int, tiny: bool, in_process: bool):
        self.root, self.tmp, self.tiny, self.in_process = root, tmp, tiny, in_process
        self.rng = random.Random(f"{self.name}-{seed}")

    def setup(self) -> None:
        """Make the inputs, import hk4, load the Betti table, run one warm-up op."""
        from hk4 import classifier, cli, report  # imported here so that set-up times it

        self.classifier, self.cli, self.report = classifier, cli, report
        self.betti_table = classifier.load_betti_table()
        self.make_inputs()
        warm = self.warmup_spec()
        wrong = self.check(warm, self.op(warm))
        if wrong:
            raise RuntimeError(f"warm-up operation failed its check: {wrong}")

    def make_inputs(self) -> None:
        pass

    def warmup_spec(self):
        return self.cycle()[0]

    def cycle(self) -> list:
        raise NotImplementedError

    def op(self, spec):
        raise NotImplementedError

    def check(self, spec, out):
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _captured(cli, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) with stdout and stderr captured; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# ---------------------------------------------------------------------------


class CertifyCold(Workload):
    """One fresh-process ``python -m hk4 report --json <tmp>`` per operation.

    Under tracing the same command runs in process as ``cli.main``, since
    spans cannot be collected from a child; interpreter start and import are
    then measured separately (``startup.*``).
    """

    name = "certify_cold"

    def make_inputs(self) -> None:
        self.json_path = self.tmp / "report.json"
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        self.err_path = self.tmp / "report.stderr"
        self.child_rss_kb = 0

    def cycle(self) -> list:
        return [None]

    def op(self, spec):
        self.json_path.unlink(missing_ok=True)
        argv = ["report", "--json", str(self.json_path)]
        if self.in_process:
            return _captured(self.cli, argv)[0]
        with open(self.err_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "hk4", *argv], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def check(self, spec, code):
        if code != EXIT_OK:
            return f"report exited {code}"
        digest = hashlib.sha256(self.json_path.read_bytes()).hexdigest()
        if digest != REPORT_SHA256:
            return f"report --json sha256 {digest}"
        return None

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024


# ---------------------------------------------------------------------------


class ClassifyDense(Workload):
    """classify(a) then its canonical JSON, over every gate-passing a <= 1024."""

    name = "classify_dense"
    tail_pct = 97.5

    def make_inputs(self) -> None:
        top = 128 if self.tiny else 1024
        self.population = [a for a in range(1, top + 1) if oracle.passes_sqrt_gate(a)]

    def warmup_spec(self):
        return self.population[0]

    def cycle(self) -> list:
        order = list(self.population)
        self.rng.shuffle(order)
        return order

    def op(self, a):
        case = self.classifier.classify(a, self.betti_table)
        return case, self.report.dumps_canonical(self.cli.case_report_json(case))

    def check(self, a, out):
        case, text = out
        wrong = oracle.mismatches(a, case)
        if f'"verdict": "{case.verdict}"' not in text or f'\n  "a": {a},\n' not in text:
            wrong.append(f"a={a}: canonical JSON does not carry a and the verdict")
        return "; ".join(wrong) or None


# ---------------------------------------------------------------------------


@dataclass
class ScenarioDoc:
    kind: str  # valid, principal, precondition, schema, malformed:<class>
    doc: dict
    expect_code: int
    expect: dict = field(default_factory=dict)
    path: str = ""


#: ROADMAP item 4 classes: today each escapes ``main`` with a traceback, so they
#: count as failed operations until the exit-code contract (2) holds for them.
MALFORMED = ("betti_entry_without_b3", "missing_betti_data_path", "c_X_not_a_number",
             "A_X_zero_denominator")

U_GRAM = [[0, 1], [1, 0]]
U2_GRAM = [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]


class ScenarioWarm(Workload):
    """``cli.main(["scenario", path])`` in one warm process over a seeded batch.

    Per cycle of 100 documents: 64 valid n = 2 documents (one per a = 1..64),
    12 principal-case n >= 3 documents, 6 precondition violations, 2 schema
    errors and 16 malformed documents, 4 of each ROADMAP item 4 class.  The
    malformed share is therefore exactly 0.16.
    """

    name = "scenario_warm"
    tail_pct = 99.0

    def make_inputs(self) -> None:
        rng = self.rng
        betti_ok = self.tmp / "betti_copy.json"
        entries = list(self.betti_table)
        rng.shuffle(entries)
        betti_ok.write_text(json.dumps(entries))
        betti_no_b3 = self.tmp / "betti_no_b3.json"
        broken = [dict(e) for e in entries]
        del broken[rng.randrange(len(broken))]["b3"]
        betti_no_b3.write_text(json.dumps(broken))

        top_a = 8 if self.tiny else 64
        docs = [self._valid(a, str(betti_ok)) for a in range(1, top_a + 1)]
        for i in range(12):
            n, d = 3 + i % 4, 1 + (i // 4) % 2
            # a = c_X (2 q(l,m))^n n!/(2n)! = c_X / (2n-1)!! on the hyperbolic plane
            over = {"a": str(d)} if i % 3 == 0 else {"c_X": str(d * math.prod(range(1, 2 * n, 2)))}
            docs.append(ScenarioDoc("principal", self._pair_doc(n, U_GRAM, [1, 0], [0, 1], over),
                                    EXIT_OK, {"n": n, "principal": d == 1}))
        for i in range(6):
            if i % 3 == 0:  # q(l) = 2
                doc = self._pair_doc(2, U_GRAM, [1, 1], [0, 1], {"a": "4"})
            elif i % 3 == 1:  # q(l, m) = 0
                doc = self._pair_doc(2, U_GRAM, [1, 0], [2, 0], {"a": "4"})
            else:  # a = c_X q(l,m)^2 / 3 = 1/3
                doc = self._pair_doc(2, U_GRAM, [1, 0], [0, 1], {"c_X": "1"})
            docs.append(ScenarioDoc("precondition", doc, EXIT_PRECONDITION))
        no_n = self._pair_doc(2, U_GRAM, [1, 0], [0, 1], {"a": "4"})
        del no_n["n"]
        docs.append(ScenarioDoc("schema", no_n, EXIT_USAGE))
        docs.append(ScenarioDoc("schema", self._pair_doc(2, U_GRAM, [1, 0], [0, 1],
                                                         {"a": "4", "weight": "1"}), EXIT_USAGE))
        for cls in MALFORMED:
            for _ in range(4):
                over = {"a": str(rng.randint(1, top_a))}
                if cls == "betti_entry_without_b3":
                    over["betti_data_path"] = str(betti_no_b3)
                elif cls == "missing_betti_data_path":
                    over["betti_data_path"] = str(self.tmp / "no_such_betti.json")
                elif cls == "c_X_not_a_number":
                    over = {"c_X": "abc"}
                else:
                    over["A_X"] = "1/0"
                docs.append(ScenarioDoc(f"malformed:{cls}",
                                        self._pair_doc(2, U_GRAM, [1, 0], [0, 1], over),
                                        EXIT_USAGE))
        for i, sd in enumerate(docs):
            sd.path = str(self.tmp / f"scenario_{i:03d}.json")
            Path(sd.path).write_text(json.dumps(sd.doc))
        self.docs = docs

    def _valid(self, a: int, betti_path: str) -> ScenarioDoc:
        """A valid n = 2 document for a, on a seeded lattice and parametrization."""
        rng = self.rng
        shape = rng.randrange(3)
        if shape == 0:
            gram, l, m = U_GRAM, [1, 0], rng.choice([[0, 1], [0, -1]])
        elif shape == 1:
            q, k = rng.randint(1, 3), rng.randint(-3, 3)
            gram, l, m = [[0, q], [q, 2 * k]], [1, 0], [0, 1]
        else:
            gram, l, m = U2_GRAM, [1, 0, 0, 0], [0, 1, rng.randint(-2, 2), rng.randint(-2, 2)]
        q_lm = abs(sum(l[i] * gram[i][j] * m[j] for i in range(len(l)) for j in range(len(l))))
        # a = c_X q(l,m)^2 / 3 in dimension 4
        over = {"a": str(a)} if rng.random() < 0.5 else {"c_X": str(Fraction(3 * a, q_lm ** 2))}
        if rng.random() < 0.25:
            over["betti_data_path"] = betti_path
        return ScenarioDoc("valid", self._pair_doc(2, gram, l, m, over), EXIT_OK,
                           {"a": a, "certificates": 15 if a == 1 else 6})

    @staticmethod
    def _pair_doc(n, gram, l, m, overrides) -> dict:
        return {"n": n, "rank": len(gram), "gram": gram, "l": l, "m": m, "overrides": overrides}

    def warmup_spec(self):
        return self.docs[0]  # the valid a = 1 document, which runs all 15 certificates

    def cycle(self) -> list:
        order = list(self.docs)
        self.rng.shuffle(order)
        return order

    def op(self, sd: ScenarioDoc):
        return _captured(self.cli, ["scenario", sd.path])

    def check(self, sd: ScenarioDoc, out):
        code, text = out
        if code != sd.expect_code:
            return f"{sd.kind} {sd.path}: exit {code}, expected {sd.expect_code}"
        if code != EXIT_OK:
            return None
        doc = json.loads(text)
        if sd.kind == "principal":
            if doc["n"] != sd.expect["n"] or (doc["principal_case"] is not None) != sd.expect["principal"]:
                return f"principal {sd.path}: unexpected n or principal_case"
            return None
        certs = doc["certificates"]
        if (doc["a"] != sd.expect["a"] or doc["classification"]["a"] != sd.expect["a"]
                or not certs["all_expected_verdicts_reproduced"]
                or len(certs["certificates"]) != sd.expect["certificates"]):
            return f"valid {sd.path}: wrong a, certificate count or verdicts"
        return None


WORKLOADS = {w.name: w for w in (CertifyCold, ClassifyDense, ScenarioWarm)}
