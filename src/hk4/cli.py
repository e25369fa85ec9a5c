"""Command-line driver: classify, verify, scenario, ledger, report.

Exit-code contract: 0 = run completed and every expected verdict reproduced;
1 = a certificate diverged from its expected value; 2 = usage error or
malformed input; 3 = scenario precondition violation (q(l) != 0, q(l, m) = 0,
or a not a positive integer); 141 = stdout was closed before the output was
written (``hk4 classify --a 1000 | head -1``), see ``main``.  Every
outside input (arguments, scenario file, overrides, Betti data, the --json
path) is parsed at one boundary that raises ``InputError``, and ``main`` alone
turns it into one ``error:`` line and the exit code.  These inputs are read
on every call.  What no call changes is built once per process: the argument
parser, data/expectations.json, the built-in Betti table, the reflection
sample and the guan-gate scan points.  The engine calls run on every suite,
on integers where they can, with Fractions built only for what they report.
Each command converts its payload to plain JSON once, where it builds it, and
serializes it at most once, in ``_emit``.

The 15 certificates form one table, ``CERTIFICATES``, of zero-argument
functions that return the values a certificate reports.  The three h4
refutations are the engine calls themselves: the engine decides their UNSAT
or SAT status.  Every other entry is built by ``_certificate`` from the
engine computation and the claim its result must satisfy; its status is
PASS when the claim holds and FAIL when it does not, and an entry whose only
check is its pinned expected values has no claim.  The engine returns the
dict a certificate reports; an entry names ``fields`` only where it reports
a subset, an alias or a reshape of that result.  The expected values live in
data/expectations.json, separate from the code, so a diff between computed
and expected values is a first-class artifact.  A row whose engine raises an
``Exception`` is reported as FAIL with one diff naming it, and the suite goes
on.  Certificates run serially: pure-Python exact arithmetic gains nothing
from threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from math import gcd
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Optional

from . import classifier, fujiki, h4, lattices, ledger
from .rationals import Q, is_integer, rational_from_string
from .report import approx_decimal, dumps_canonical, to_jsonable

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
#: What shells report for a program killed by SIGPIPE (128 + 13).
EXIT_CLOSED_STDOUT = 141


# ---------------------------------------------------------------------------
# certificate table


def _certificate(compute: Callable[[], Any], claim: Optional[Callable[[Any], bool]] = None,
                 fields: Callable[[Any], dict] = dict) -> Callable[[], dict]:
    """One row of the certificate table: a zero-argument function returning the reported values.

    The values are ``fields(result)`` of the engine's result, with a
    ``status`` that is PASS when the claim holds (or there is none) and FAIL
    otherwise.  ``compute`` looks its engine functions up through their
    modules each time it runs (``ledger.koszul_counts()``, never a reference
    taken at import), so a function rebound on its module, by a tracer or a
    test, is the one that runs, and no result is cached.  ``fields`` is a view
    of the result only where a row reports a subset, an alias or a reshape of it.
    """

    def run() -> dict:
        result = compute()
        return {**fields(result), "status": "PASS" if claim is None or claim(result) else "FAIL"}

    return run


def _keys(*names: str) -> Callable[[dict], dict]:
    """The subset of a result dict that a row reports."""
    return lambda result: {name: result[name] for name in names}


@functools.cache
def _guan_scan_points() -> tuple[Q, ...]:
    """The 60 reduced t = num/den in [0, 1/3) with den <= 24, in (den, num) order."""
    return tuple(Q(num, den) for den in range(1, 25) for num in range(den)
                 if gcd(num, den) == 1 and 3 * num < den)


def _guan_gate_scan() -> dict:
    # the hits keep the (den, num) order of the points, and expectations.json pins the list
    hits = []
    for t in _guan_scan_points():
        admitted = fujiki.guan_gate(t)
        if admitted:
            hits.append({"t": t, "A_X": sorted(admitted)})
    return {
        "scan": "t = p/q in [0, 1/3) with q <= 24",
        "hits": hits,
        "gate_at_1_8": sorted(fujiki.guan_gate(Q(1, 8))),
        "gate_at_0": sorted(fujiki.guan_gate(0)),
        "gate_at_1_4": sorted(fujiki.guan_gate(Q(1, 4))),
    }


def _star_cases() -> dict:
    cases = {"case_a1": (1, Q(25, 32)), "case_a3": (3, Q(27, 32)), "case_a4": (4, Q(25, 32))}
    out = {}
    for key, (a, ax) in cases.items():
        opts = classifier.admissible_qlm(a, ax)
        out[key] = {
            "q_set": sorted(opts),
            "options": {
                str(q): {"c_X": opt.c_X, "parity": opt.parity, "rr": opt.rr.pretty()}
                for q, opt in opts.items()
            },
        }
    return out


def _cone_scan() -> dict:
    return {**lattices.prime_exceptional_scan(),
            **{f"t0_{t0}": lattices.cone_report(t0) for t0 in (0, 1)}}


@functools.cache
def _reflection_sample() -> tuple[tuple[int, int], ...]:
    """The fixed-seed sample of 100 classes that the reflection certificate checks."""
    import random

    rng = random.Random(20260810)
    return tuple((rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(100))


def _reflection_checks() -> dict:
    """The reflection in (-1, 1) on its generators and on each sampled class, reflected once."""
    sample = _reflection_sample()
    refl, q = lattices.reflection_about((-1, 1)), lattices.U.q
    images = list(map(refl, sample))
    return {
        "swaps_l_m": refl((1, 0)) == (0, 1) and refl((0, 1)) == (1, 0),
        "negates_e": refl((-1, 1)) == (1, -1),
        "involution_on_sample": list(map(refl, images)) == list(sample),
        "preserves_q_on_sample": list(map(q, images)) == list(map(q, sample)),
        "sample_size": len(sample),
    }


def _bott_table() -> dict:
    grid = {(q, d): ledger.bott_p2(q, d) for q in (0, 1, 2) for d in range(-4, 5)}
    serre_ok = all(grid[q, d] == grid[2 - q, -d][::-1] for q, d in grid)  # h^p = h^(2-p) dual
    table = {f"q={q},d={d}": list(grid[q, d]) for q, d in grid if abs(d) <= 2}
    nonnegative = all(min(h) >= 0 for h in grid.values())
    return {"table": table, "serre_duality_ok": serre_ok, "nonnegative": nonnegative}


def _chi_table_fields(t: dict) -> dict:
    entries = {f"chi({e['p']},{e['q']})": e for e in t["entries"]}
    return {
        "values": {k: e["chi"] for k, e in entries.items()},
        "h0_sources": {k: e["h0_source"] for k, e in entries.items()},
        **_keys("k_L", "W6", "W10", "W36")(t),
    }


def _degree_bounds() -> dict:
    sf = sorted(classifier.squarefree_a_filter())
    return {
        "bound_2_1": classifier.fujiki_degree_bound(2, 1),
        "bound_2_3": classifier.fujiki_degree_bound(2, 3),
        "bound_1_1": classifier.fujiki_degree_bound(1, 1),
        "squarefree": sf,
        "squarefree_max": max(sf),
    }


CERTIFICATES: dict[str, Callable[[], dict]] = {
    "guan-gate": _certificate(_guan_gate_scan),
    "star": _certificate(_star_cases),
    # the h4 refutations report the UNSAT or SAT their engine decides
    "nefcone-plane": lambda: h4.lagrangian_plane_certificate(),
    "contract-surface": lambda: h4.contracted_surface_certificate(),
    "sigma-split": lambda: h4.sigma_split_certificate(),
    # the cofactor and the fraction-free determinant are independent methods that must agree
    "segre": _certificate(
        lambda: ledger.segre_certificate(),
        claim=lambda s: s["rank"] == 4 and s["det_cofactor"] == s["det_fraction_free"],
    ),
    "koszul": _certificate(
        lambda: ledger.koszul_counts(),
        fields=_keys("ideal_LM", "ideal_L2M2", "h1_ideal_L2M2", "restricted_L2M2",
                     "restriction_rank_LM"),
    ),
    "castelnuovo": _certificate(
        lambda: ledger.koszul_counts(),
        claim=lambda rep: rep["contradiction"],
        fields=_keys("quadric_lower_bound", "castelnuovo_max", "contradiction"),
    ),
    # the Mukai vector v is spherical: <v, v> = -2
    "mukai": _certificate(lambda: ledger.mukai_solve(), claim=lambda rep: rep["self_pairing"] == -2),
    "k3-checks": _certificate(
        lambda: ledger.k3_exceptional_checks(),
        claim=lambda rep: rep["is_degree2_k3"],
        fields=lambda rep: {**rep, "H_sigma_squared": rep["h_squared"]},
    ),
    "cones": _certificate(
        _cone_scan,
        claim=lambda v: all(x >= 0 for t0 in (0, 1) for x in v[f"t0_{t0}"]["duality_products"]),
    ),
    "reflection": _certificate(
        _reflection_checks,
        claim=lambda v: all(v[k] for k in ("swaps_l_m", "negates_e", "involution_on_sample",
                                           "preserves_q_on_sample")),
    ),
    "bott": _certificate(_bott_table, claim=lambda v: v["serre_duality_ok"] and v["nonnegative"],
                         fields=_keys("table", "serre_duality_ok")),
    "chi-table": _certificate(
        lambda: ledger.chi_table(),
        claim=lambda t: all(2 * e["chi"] == (pq + 3) * (pq + 2)
                            for e in t["entries"] for pq in [e["p"] * e["q"]]),
        fields=_chi_table_fields,
    ),
    "bounds": _certificate(_degree_bounds),
}

@functools.cache
def _expectations_text() -> str:
    return resources.files("hk4.data").joinpath("expectations.json").read_text()


def load_expectations() -> dict:
    return json.loads(_expectations_text())


def _subset_diff(expected, computed, path="") -> list[str]:
    """Expected must be a (recursive) subset of computed; returns mismatches."""
    diffs = []
    if type(expected) is dict and expected != computed:  # an equal object has no diff
        if type(computed) is not dict:
            return [f"{path}: expected object, computed {computed!r}"]
        for k, v in expected.items():
            if k not in computed:
                diffs.append(f"{path}.{k}: missing in computed values")
            else:
                diffs.extend(_subset_diff(v, computed[k], f"{path}.{k}"))
        return diffs
    if expected != computed:
        diffs.append(f"{path}: expected {expected!r}, computed {computed!r}")
    return diffs


def run_certificate(name: str, expectations: dict) -> dict:
    """Run one certificate: it passes when its claim holds and no expected value differs.

    ``expectations`` is the parsed expectations file (``load_expectations()``).
    A row that raises an ``Exception`` fails with one diff naming it and no values.
    """
    try:
        computed = to_jsonable(CERTIFICATES[name]())
    except Exception as exc:
        return {"name": name, "result": "FAIL", "diffs": [f"{name}: raised {exc!r}"], "values": {}}
    expected = expectations.get(name, {})
    diffs = _subset_diff(expected, computed, name)
    if diffs or computed["status"] not in ("PASS", "UNSAT"):
        result = "FAIL"
    elif computed["status"] == "UNSAT":
        result = "UNSAT-as-expected"
    else:
        result = "PASS"
    return {"name": name, "result": result, "diffs": diffs, "values": computed}


def run_suite(names: list[str]) -> dict:
    expectations = load_expectations()  # read once per suite
    certificates = {n: run_certificate(n, expectations) for n in sorted(names)}
    ok = all(r["result"] in ("PASS", "UNSAT-as-expected") for r in certificates.values())
    return {"certificates": certificates, "all_expected_verdicts_reproduced": ok}


# ---------------------------------------------------------------------------
# classify / scenario plumbing


def case_report_json(report: classifier.CaseReport) -> dict:
    return to_jsonable(report)


def _print_case_report(report: classifier.CaseReport, decimal: bool) -> None:
    print(f"a = {report.a}: {report.verdict}")
    for sol in report.solutions:
        st = sol.state
        ax = f"A_X = {st.A_X}"
        if decimal:
            ax += f" ({approx_decimal(st.A_X)})"
        print(f"  solution: {ax}, gamma = {st.gamma}, b = {st.b}, c = {st.c}")
        print(f"    value polynomial P(k) = {st.value_poly.pretty('k')}")
        for opt in sol.q_options:
            print(
                f"    q(l,m) = {opt.q_lm}: c_X = {opt.c_X}, form {opt.parity}, "
                f"P_RR(T) = {opt.rr.pretty()}"
            )
        if sol.betti_options:
            print(f"    Betti options (b2, b3, b4): {list(sol.betti_options)}")
        if sol.betti_builtin_only:
            print(f"    admitted by built-in constraints, excluded by data file: "
                  f"{list(sol.betti_builtin_only)}")
    for note in report.notes:
        print(f"  note: {note}")
    # one line per row, "[stage] candidate | constraint | value", by the writer the JSON uses
    chunks = report.trace.chunks(
        lambda stage, constraint: (f"    [{stage}] ", f" | {constraint} | ", ""), str, "\n")
    if chunks:
        print("  trace:")
        sys.stdout.writelines(chunks)
        print()


# ---------------------------------------------------------------------------
# input boundary: every outside input is parsed here and fails as InputError


class InputError(Exception):
    """Malformed input (exit 2) or a violated precondition (exit 3); only `main` catches it."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _load(what: str, read: Callable[[Optional[str]], Any], path: Optional[str]):
    """Read one input file; failing to open, decode or validate it is malformed input."""
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:  # deep JSON too
        raise InputError(f"cannot load {what} {path!r}: {exc!r}")


def _ints(value, what: str) -> tuple:
    if isinstance(value, list) and all(type(x) is int for x in value):
        return tuple(value)
    raise InputError(f"scenario schema violation: {what} must be a list of integers")


def _rational(value, what: str) -> Q:
    try:
        return Q(value) if type(value) is int else rational_from_string(value)
    except (TypeError, ValueError):
        raise InputError(f'{what} must be an integer or a "p/q" string, got {value!r}')


def _parse_scenario(doc) -> tuple:
    """(n, lattice, l, m, overrides, Betti path), every override parsed whatever n is."""
    if not isinstance(doc, dict) or not {"n", "gram", "l", "m"} <= set(doc):
        raise InputError("scenario schema violation: need an object with n, gram, l and m")
    n, l, m, gram = doc["n"], _ints(doc["l"], "l"), _ints(doc["m"], "m"), doc["gram"]
    if type(n) is not int or type(doc.get("rank", 0)) is not int or not isinstance(gram, list):
        raise InputError("scenario schema violation: n and rank must be integers, gram a list")
    for row in gram:
        _ints(row, "gram row")
    try:
        lat = lattices.QuadLattice.from_json(doc)
    except ValueError as exc:
        raise InputError(f"scenario schema violation: {exc}")
    if n < 1 or len(l) != lat.rank or len(m) != lat.rank:
        raise InputError("scenario schema violation: bad n or vector length")
    overrides, keys = doc.get("overrides", {}), {"c_X", "A_X", "a", "betti_data_path"}
    if not isinstance(overrides, dict) or not set(overrides) <= keys:
        raise InputError("scenario schema violation: unknown override keys")
    path = overrides.get("betti_data_path")
    if "betti_data_path" in overrides and not isinstance(path, str):
        raise InputError(f"overrides.betti_data_path must be a string, got {path!r}")
    over = {k: _rational(v, f"overrides.{k}")
            for k, v in overrides.items() if k != "betti_data_path"}
    if "c_X" not in over and "a" not in over:
        raise InputError("scenario needs overrides.c_X or overrides.a")
    return n, lat, l, m, over, path


def run_scenario(doc: dict, betti_path: Optional[str] = None) -> dict:
    """Normalize the pair, derive a, classify, and run the relevant certificates.

    Returns plain JSON values: each block is converted once, where it is built.
    """
    n, lat, l, m, over, over_betti_path = _parse_scenario(doc)
    try:  # the normalization needs q(l) = 0 and q(l, m) != 0
        norm = lattices.hyperbolic_pair_normalize(lat.q(l), lat.q(m), lat.pair(l, m))
    except ValueError as exc:
        raise InputError(f"scenario precondition violated: {exc}", EXIT_PRECONDITION)

    c_X = over.get("c_X")
    a_val = over["a"] if "a" in over else fujiki.a_from_fujiki(n, c_X, norm["q_lm"])
    if not is_integer(a_val) or a_val <= 0:
        raise InputError(f"scenario precondition violated: a = {a_val} is not a positive integer",
                         EXIT_PRECONDITION)
    a = int(a_val)

    out = to_jsonable({
        "n": n,
        "normalization": norm,
        "a": a,
        "c_X": c_X,
        "degree_bound": classifier.fujiki_degree_bound(n, a),
    })
    if n == 2:
        table = _load("Betti data", classifier.load_betti_table, betti_path or over_betti_path)
        report = classifier.classify(a, betti_table=table, restrict_ax=over.get("A_X"))
        out["classification"] = case_report_json(report)
        ids = ["guan-gate", "star", "bounds", "cones", "reflection", "bott"]
        if any(
            opt.c_X == 3 and opt.q_lm == 1 and sol.state.A_X == Q(25, 32)
            for sol in report.solutions
            for opt in sol.q_options
        ):
            ids = sorted(CERTIFICATES)
        out["certificates"] = run_suite(ids)
    else:
        principal = None
        if a == 1:
            rr = fujiki.rr_lagrangian_form(n)
            principal = {
                "q_lm": 1,
                "q_m": 0,
                "form": "EVEN",
                "c_X_forced": rr.c_X,
                "rr": rr,
                "hyperbolic_plane": True,
            }
            if c_X is not None and rr.c_X != c_X:
                principal["c_X_override_consistent"] = False
        out["principal_case"] = to_jsonable(principal)
    return out


# ---------------------------------------------------------------------------
# commands and the one output path


def _emit(args, payload, echo: bool = True, before: str = "") -> None:
    """Serialize ``payload`` at most once: the same string goes to --json and, if echo, stdout.

    ``payload`` holds plain JSON values only; each command converts its own.
    The --json file is written before anything is printed, so an unwritable
    path prints nothing; ``before`` is text that stdout gets ahead of the JSON.
    """
    data = dumps_canonical(payload) if echo or args.json_path else ""
    if args.json_path:
        try:
            Path(args.json_path).write_text(data, encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write --json {args.json_path!r}: {exc!r}")
    if echo:
        print(before + data, end="")


def _run(args) -> int:
    """Run the parsed command; it reports bad input by raising InputError."""
    if args.command == "classify":
        if args.a < 1:
            raise InputError("--a must be a positive integer")
        table = _load("Betti data", classifier.load_betti_table, args.betti_data)
        report = classifier.classify(args.a, betti_table=table)
        if args.json_path:
            _emit(args, case_report_json(report), echo=False)
        _print_case_report(report, decimal=args.decimal)
        return EXIT_OK

    if args.command == "verify":
        start = time.monotonic()
        suite = run_suite(sorted(CERTIFICATES) if args.name == "all" else [args.name])
        elapsed = time.monotonic() - start
        _emit(args, suite, echo=False)
        for name, res in suite["certificates"].items():
            print(f"{name}: {res['result']}")
            for d in res["diffs"]:
                print(f"  diff: {d}")
        print(f"runtime: {elapsed:.3f}s")
        return EXIT_OK if suite["all_expected_verdicts_reproduced"] else EXIT_DIVERGED

    if args.command == "scenario":
        doc = _load("scenario", lambda p: json.loads(Path(p).read_text("utf-8")), args.path)
        out = run_scenario(doc, betti_path=args.betti_data)
        _emit(args, out)
        certs = out.get("certificates")
        if certs and not certs["all_expected_verdicts_reproduced"]:
            return EXIT_DIVERGED
        return EXIT_OK

    if args.command == "ledger":
        t = ledger.chi_table()
        _emit(args, to_jsonable(t), before=ledger.to_markdown(t) + "\n\n")
        return EXIT_OK

    table = _load("Betti data", classifier.load_betti_table, args.betti_data)  # report
    suite = run_suite(sorted(CERTIFICATES))
    classifications = {
        str(a): case_report_json(classifier.classify(a, betti_table=table)) for a in range(1, 9)
    }
    _emit(args, {
        "certificates": suite["certificates"],
        "all_expected_verdicts_reproduced": suite["all_expected_verdicts_reproduced"],
        "classifications": classifications,
        "ledger": to_jsonable(ledger.chi_table()),
    })
    return EXIT_OK if suite["all_expected_verdicts_reproduced"] else EXIT_DIVERGED


@functools.cache
def _parser() -> _Parser:
    parser = _Parser(prog="hk4", description="Exact-arithmetic certification suite for "
                     "hyper-Kahler fourfold lattice and Riemann-Roch arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)
    out.add_argument("--json", dest="json_path", help="also write the JSON payload here")

    p_classify = sub.add_parser("classify", parents=[out], help="case analysis for one value of a")
    p_classify.add_argument("--a", type=int, required=True)
    p_classify.add_argument("--betti-data", dest="betti_data")
    p_classify.add_argument("--decimal", action="store_true")

    p_verify = sub.add_parser("verify", parents=[out], help="run one certificate or all of them")
    p_verify.add_argument("name", choices=[*sorted(CERTIFICATES), "all"],
                          help='certificate id or "all"')

    p_scenario = sub.add_parser("scenario", parents=[out], help="ingest a scenario file and report")
    p_scenario.add_argument("path")
    p_scenario.add_argument("--betti-data", dest="betti_data")

    sub.add_parser("ledger", parents=[out], help="dump the chi ledger as markdown and JSON")

    p_report = sub.add_parser("report", parents=[out],
                              help="full suite: classifications plus all certificates")
    p_report.add_argument("--betti-data", dest="betti_data")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        code = _run(_parser().parse_args(argv))
        sys.stdout.flush()
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # A reader closed stdout early; Python ignores SIGPIPE, so the write raised.  Exit 141
        # without a traceback, with stdout pointed at os.devnull so that the flush at
        # interpreter exit does not fail again.  The process-wide SIGPIPE handling is left
        # alone, since main also runs in process.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return code


if __name__ == "__main__":
    sys.exit(main())
