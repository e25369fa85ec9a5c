"""Spans and counters wrapped around hk4 from outside, at the bindings callers use.

A module that does ``from .rationals import sqrt_rational`` holds its own
reference, so wrapping ``hk4.rationals.sqrt_rational`` alone would miss the
calls made from ``hk4.classifier``.  ``Tracer.install`` therefore replaces
every global of every loaded ``hk4`` module that is the wrapped function.

Spans are aggregated as they close (calls, total and self time per name) and
the first ``span_cap`` of them are also kept in memory with their parent
span, to be written out when the run ends.  Self time is a span's duration
minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import json
import sys
from functools import partial
from time import perf_counter_ns

#: Functions that get a span, by hk4 module.
SPANS = {
    "cli": ("main", "run_suite", "run_certificate", "load_expectations"),
    "classifier": ("classify", "sqrt_gate", "gamma_search", "admissible_qlm",
                   "betti_options_for", "load_betti_table"),
    "rationals": ("integer_valued_on", "integrality_witness", "sqrt_rational"),
    "fujiki": ("rr_from_cx_ax", "betti_profile", "guan_gate"),
    "h4": ("lagrangian_plane_certificate", "contracted_surface_certificate",
           "sigma_split_certificate", "resultant"),
    "ledger": ("chi_table", "koszul_counts", "segre_certificate", "mukai_solve", "bott_p2"),
    "lattices": ("prime_exceptional_scan", "cone_report", "reflection_about",
                 "hyperbolic_pair_normalize"),
    "report": ("dumps_canonical",),
}

#: Counts read from each CaseReport that classify returns.
CASE_COUNTS = ("killed.sqrt_gate", "killed.gamma_search", "killed.admissible_qlm",
               "states", "q_admitted")


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.op = 0
        self.totals: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.spans: list[tuple] = []  # (op, id, parent id, name, start_ns, end_ns)
        self.span_cap = span_cap
        self._stack: list[list[int]] = []  # [span id, ns covered by child spans]
        self._next_id = 0
        self._undo: list[tuple] = []  # (setter, name, original value)

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_result=None):
        totals = self.totals.setdefault(name, [0, 0, 0])
        stack = self._stack

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[1]
                if len(self.spans) < self.span_cap:
                    self.spans.append((self.op, span_id, parent, name, start, end))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counter(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the functions hk4 exposes; hk4 must already be imported."""
        mods = {name.removeprefix("hk4."): mod for name, mod in list(sys.modules.items())
                if (name == "hk4" or name.startswith("hk4.")) and mod is not None}
        for short, names in SPANS.items():
            for fname in names:
                orig = getattr(mods[short], fname)
                hook = self._tally_case if (short, fname) == ("classifier", "classify") else None
                if (short, fname) == ("report", "dumps_canonical"):
                    hook = self._tally_bytes
                self._rebind(mods, orig, self.span(f"{short}.{fname}", orig, hook))

        # to_jsonable recurses through its module global: time the outermost call
        # only, and let the recursion run unwrapped.
        report = mods["report"]
        orig = report.to_jsonable
        traced = self.span("report.to_jsonable", orig)
        depth = 0

        def outermost(obj):
            nonlocal depth
            if depth:
                return orig(obj)
            depth += 1
            report.to_jsonable = orig
            try:
                return traced(obj)
            finally:
                depth -= 1
                report.to_jsonable = outermost

        self._rebind(mods, orig, outermost)

        certs = mods["cli"].CERTIFICATES
        for cert_id, fn in list(certs.items()):
            self._undo.append((certs.__setitem__, cert_id, fn))
            certs[cert_id] = self.span(f"cli.cert.{cert_id}", fn)

        ratpoly = mods["rationals"].RatPoly
        self._replace(ratpoly, "__call__",
                      self.counter("rationals.RatPoly.__call__.calls", ratpoly.__call__))
        lattice = mods["lattices"].QuadLattice
        self._replace(lattice, "from_json", staticmethod(
            self.counter("lattices.QuadLattice.from_json.calls", lattice.__dict__["from_json"].__func__)))
        for name in CASE_COUNTS:
            self.counts.setdefault(f"classifier.{name}", 0)
        self.counts.setdefault("report.dumps_canonical.bytes", 0)

    def uninstall(self) -> None:
        """Put back everything ``install`` replaced."""
        while self._undo:
            restore, attr, old = self._undo.pop()
            restore(attr, old)

    def _replace(self, target, attr: str, value) -> None:
        self._undo.append((partial(setattr, target), attr, vars(target)[attr]))
        setattr(target, attr, value)

    def _rebind(self, mods: dict, orig, new) -> None:
        """Replace ``orig`` wherever an hk4 module binds it."""
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, attr, new)

    def _tally_case(self, report) -> None:
        counts = self.counts
        q_kills = none = 0
        for entry in report.trace:
            if entry.stage == "sqrt_gate":
                counts["classifier.killed.sqrt_gate"] += 1
            elif entry.stage == "gamma_search":
                counts["classifier.killed.gamma_search"] += 1
            elif entry.stage == "admissible_qlm":
                q_kills += 1
                none += entry.value == "none"
        counts["classifier.killed.admissible_qlm"] += q_kills
        counts["classifier.states"] += len(report.solutions) + none
        counts["classifier.q_admitted"] += sum(len(s.q_options) for s in report.solutions)

    def _tally_bytes(self, text: str) -> None:
        # json.dumps escapes to ASCII by default, so characters are bytes.
        self.counts["report.dumps_canonical.bytes"] += len(text)

    # -- output ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")

