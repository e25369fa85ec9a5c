"""Command-line driver: classify, verify, scenario, ledger, report.

Exit-code contract: 0 = run completed and every expected verdict reproduced;
1 = a certificate diverged from its expected value; 2 = usage error;
3 = scenario precondition violation (q(l) != 0 or q(l, m) = 0).

The expected values live in a version-controlled expectations file
(data/expectations.json), separate from the code, so a diff between computed
and expected values is a first-class artifact, not a hidden assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from typing import Callable, Optional

from . import classifier, fujiki, h4, lattices, ledger
from .rationals import Q, is_integer
from .report import approx_decimal, dumps_canonical, to_jsonable

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


# ---------------------------------------------------------------------------
# certificate registry


def _cert_guan_gate() -> dict:
    hits = []
    for den in range(1, 25):
        for num in range(0, den):
            t = Q(num, den)
            if t.denominator != den or t >= Q(1, 3):
                continue
            admitted = sorted(fujiki.guan_gate(t))
            if admitted:
                hits.append({"t": t, "A_X": admitted})
    return {
        "status": "PASS",
        "scan": "t = p/q in [0, 1/3) with q <= 24",
        "hits": hits,
        "gate_at_1_8": sorted(fujiki.guan_gate(Q(1, 8))),
        "gate_at_0": sorted(fujiki.guan_gate(0)),
        "gate_at_1_4": sorted(fujiki.guan_gate(Q(1, 4))),
    }


def _cert_star() -> dict:
    cases = {
        "case_a1": (1, Q(25, 32)),
        "case_a3": (3, Q(27, 32)),
        "case_a4": (4, Q(25, 32)),
    }
    out = {"status": "PASS"}
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


def _cert_nefcone_plane() -> dict:
    res = h4.lagrangian_plane_certificate()
    out = {"status": res.status, "deduction": res.deduction}
    out.update(res.values)
    return out


def _cert_contract_surface() -> dict:
    res = h4.contracted_surface_certificate()
    out = {"status": res.status, "deduction": res.deduction, "witnesses": res.witnesses}
    out.update(res.values)
    out["unsat_t"] = [c["t"] for c in res.values["cases"] if c["verdict"] == "UNSAT"]
    out["probe_survives"] = any(
        c["probe"] and c["verdict"] == "SAT-candidate" for c in res.values["cases"]
    )
    return out


def _cert_sigma_split() -> dict:
    res = h4.sigma_split_certificate()
    out = {"status": res.status, "deduction": res.deduction, "witnesses": res.witnesses}
    out.update(res.values)
    return out


def _cert_segre() -> dict:
    sys_ = ledger.segre_certificate()
    return {
        "status": "PASS" if sys_.rank == 4 else "FAIL",
        "matrix": [list(r) for r in sys_.matrix],
        "determinant": sys_.determinant,
        "det_cofactor": sys_.det_cofactor,
        "det_fraction_free": sys_.det_fraction_free,
        "rank": sys_.rank,
    }


def _cert_koszul() -> dict:
    rep = ledger.koszul_counts()
    return {
        "status": "PASS",
        "ideal_LM": rep.ideal_LM,
        "ideal_L2M2": rep.ideal_L2M2,
        "h1_ideal_L2M2": rep.h1_ideal_L2M2,
        "restricted_L2M2": rep.restricted_L2M2,
        "restriction_rank_LM": rep.restriction_rank_LM,
    }


def _cert_castelnuovo() -> dict:
    rep = ledger.koszul_counts()
    return {
        "status": "PASS" if rep.contradiction else "FAIL",
        "quadric_lower_bound": rep.quadric_lower_bound,
        "castelnuovo_max": rep.castelnuovo_max,
        "contradiction": rep.contradiction,
    }


def _cert_mukai() -> dict:
    rep = ledger.mukai_solve()
    return {
        "status": "PASS" if rep.vector.is_spherical else "FAIL",
        "vector": {"rank": rep.vector.rank, "c1_coeff": rep.vector.c1_coeff, "s": rep.vector.s},
        "self_pairing": rep.self_pairing,
        "chi_untwisted": rep.chi_untwisted,
        "chi_twisted_down": rep.chi_twisted_down,
        "stability_input": rep.stability_input,
    }


def _cert_k3_checks() -> dict:
    rep = ledger.k3_exceptional_checks()
    return {
        "status": "PASS" if rep.is_degree2_k3 else "FAIL",
        "chi_O_minus_E": rep.chi_O_minus_E,
        "chi_O_E": rep.chi_O_E,
        "h_squared": rep.h_squared,
        "H_sigma_squared": rep.h_squared,
        "is_degree2_k3": rep.is_degree2_k3,
    }


def _cert_cones() -> dict:
    scan = lattices.prime_exceptional_scan()
    reports = {}
    for t0 in (0, 1):
        rep = lattices.cone_report(t0)
        reports[f"t0_{t0}"] = {
            "positive": [list(v) for v in rep.positive_rays],
            "movable": [list(v) for v in rep.movable_rays],
            "nef": [list(v) for v in rep.nef_rays],
            "psef": [list(v) for v in rep.psef_rays],
            "exceptional": list(rep.exceptional_class) if rep.exceptional_class else None,
            "case": rep.case_tag,
            "duality_products": list(rep.duality_products()),
        }
    dual_ok = all(
        x >= 0 for t0 in (0, 1) for x in lattices.cone_report(t0).duality_products()
    )
    return {
        "status": "PASS" if dual_ok else "FAIL",
        "prime_exceptional": sorted(scan.classes),
        "window": scan.window,
        "divisibility_argument": scan.divisibility_argument,
        "rejected_sample": [[list(v), why] for v, why in scan.rejected],
        **reports,
    }


def _reflection_sample(count: int = 100) -> list[tuple[int, int]]:
    """Deterministic pseudo-random sample of lattice vectors (fixed seed)."""
    import random

    rng = random.Random(20260810)
    out = []
    while len(out) < count:
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        out.append(v)
    return out


def _cert_reflection() -> dict:
    refl = lattices.reflection_about((-1, 1))
    sample = _reflection_sample()
    preserved = all(lattices.U.q(refl(v)) == lattices.U.q(v) for v in sample)
    involutive = all(refl(refl(v)) == tuple(v) for v in sample)
    swaps = refl((1, 0)) == (0, 1) and refl((0, 1)) == (1, 0)
    negates = refl((-1, 1)) == (1, -1)
    ok = preserved and involutive and swaps and negates
    return {
        "status": "PASS" if ok else "FAIL",
        "swaps_l_m": swaps,
        "negates_e": negates,
        "involution_on_sample": involutive,
        "preserves_q_on_sample": preserved,
        "sample_size": len(sample),
    }


def _cert_bott() -> dict:
    table = {}
    for q in (0, 1, 2):
        for d in (-2, -1, 0, 1, 2):
            table[f"q={q},d={d}"] = list(ledger.bott_p2(q, d))
    serre_ok = all(
        ledger.bott_p2(q, d)[p] == ledger.bott_p2(2 - q, -d)[2 - p]
        for q in (0, 1, 2)
        for d in range(-4, 5)
        for p in (0, 1, 2)
    )
    return {"status": "PASS" if serre_ok else "FAIL", "table": table, "serre_duality_ok": serre_ok}


def _cert_chi_table() -> dict:
    t = ledger.chi_table()
    values = {f"chi({e.p},{e.q})": e.chi for e in t.entries}
    sources = {f"chi({e.p},{e.q})": e.h0_source for e in t.entries}
    return {
        "status": "PASS",
        "values": values,
        "h0_sources": sources,
        "k_L": t.k_L,
        "W6": t.W6,
        "W10": t.W10,
        "W36": t.W36,
    }


def _cert_bounds() -> dict:
    sf = sorted(classifier.squarefree_a_filter())
    return {
        "status": "PASS",
        "bound_2_1": classifier.fujiki_degree_bound(2, 1),
        "bound_2_3": classifier.fujiki_degree_bound(2, 3),
        "bound_1_1": classifier.fujiki_degree_bound(1, 1),
        "squarefree": sf,
        "squarefree_max": max(sf),
    }


CERTIFICATES: dict[str, Callable[[], dict]] = {
    "guan-gate": _cert_guan_gate,
    "star": _cert_star,
    "nefcone-plane": _cert_nefcone_plane,
    "contract-surface": _cert_contract_surface,
    "sigma-split": _cert_sigma_split,
    "segre": _cert_segre,
    "koszul": _cert_koszul,
    "castelnuovo": _cert_castelnuovo,
    "mukai": _cert_mukai,
    "k3-checks": _cert_k3_checks,
    "cones": _cert_cones,
    "reflection": _cert_reflection,
    "bott": _cert_bott,
    "chi-table": _cert_chi_table,
    "bounds": _cert_bounds,
}


def load_expectations() -> dict:
    text = resources.files("hk4.data").joinpath("expectations.json").read_text()
    return json.loads(text)


def _subset_diff(expected, computed, path="") -> list[str]:
    """Expected must be a (recursive) subset of computed; returns mismatches."""
    diffs = []
    if isinstance(expected, dict):
        if not isinstance(computed, dict):
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


def run_certificate(name: str) -> dict:
    computed = to_jsonable(CERTIFICATES[name]())
    expected = load_expectations().get(name, {})
    diffs = _subset_diff(expected, computed, name)
    if diffs:
        status = "FAIL"
    elif computed.get("status") == "UNSAT":
        status = "UNSAT-as-expected"
    else:
        status = "PASS"
    return {"name": name, "result": status, "diffs": diffs, "values": computed}


def run_suite(names: list[str], jobs: int = 1) -> dict:
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_certificate, names))
    else:
        results = [run_certificate(n) for n in names]
    by_name = {r["name"]: r for r in results}
    ordered = {n: by_name[n] for n in sorted(by_name)}
    ok = all(r["result"] in ("PASS", "UNSAT-as-expected") for r in results)
    return {"certificates": ordered, "all_expected_verdicts_reproduced": ok}


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
    if report.trace:
        print("  trace:")
        for t in report.trace:
            print(f"    [{t.stage}] {t.candidate} | {t.constraint} | {t.value}")


def _write_json(path: Optional[str], payload) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dumps_canonical(payload))


class ScenarioError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _scenario_schema(doc) -> tuple[int, lattices.QuadLattice, tuple, tuple, dict]:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object", EXIT_USAGE)
    try:
        n = int(doc["n"])
        lat = lattices.QuadLattice.from_json(doc)
        l = tuple(int(x) for x in doc["l"])
        m = tuple(int(x) for x in doc["m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"scenario schema violation: {exc}", EXIT_USAGE)
    if n < 1 or len(l) != lat.rank or len(m) != lat.rank:
        raise ScenarioError("scenario schema violation: bad n or vector length", EXIT_USAGE)
    overrides = doc.get("overrides", {})
    if not isinstance(overrides, dict) or not set(overrides) <= {
        "c_X",
        "A_X",
        "a",
        "betti_data_path",
    }:
        raise ScenarioError("scenario schema violation: unknown override keys", EXIT_USAGE)
    return n, lat, l, m, overrides


def run_scenario(doc: dict, betti_path: Optional[str] = None) -> dict:
    """Normalize the pair, derive a, classify, and run the relevant certificates."""
    n, lat, l, m, overrides = _scenario_schema(doc)
    q_l, q_m, q_lm = lat.q(l), lat.q(m), lat.pair(l, m)
    if q_l != 0:
        raise ScenarioError(f"scenario precondition violated: q(l) = {q_l} != 0", EXIT_PRECONDITION)
    if q_lm == 0:
        raise ScenarioError("scenario precondition violated: q(l, m) = 0", EXIT_PRECONDITION)
    norm = lattices.hyperbolic_pair_normalize(q_l, q_m, q_lm)

    c_X = Q(overrides["c_X"]) if "c_X" in overrides else None
    if "a" in overrides:
        a_val = Q(overrides["a"])
    elif c_X is not None:
        a_val = fujiki.a_from_fujiki(n, c_X, norm.q_lm)
    else:
        raise ScenarioError("scenario needs overrides.c_X or overrides.a", EXIT_USAGE)
    if not is_integer(a_val) or a_val <= 0:
        raise ScenarioError(
            f"scenario precondition violated: a = {a_val} is not a positive integer",
            EXIT_PRECONDITION,
        )
    a = int(a_val)

    out: dict = {
        "n": n,
        "normalization": to_jsonable(norm),
        "a": a,
        "c_X": c_X,
        "degree_bound": classifier.fujiki_degree_bound(n, a),
    }
    if n == 2:
        table = classifier.load_betti_table(betti_path or overrides.get("betti_data_path"))
        restrict = Q(overrides["A_X"]) if "A_X" in overrides else None
        report = classifier.classify(a, betti_table=table, restrict_ax=restrict)
        out["classification"] = case_report_json(report)
        ids = ["guan-gate", "star", "bounds", "cones", "reflection", "bott"]
        if any(
            opt.c_X == 3 and opt.q_lm == 1 and sol.state.A_X == Q(25, 32)
            for sol in report.solutions
            for opt in sol.q_options
        ):
            ids = sorted(CERTIFICATES)
        suite = run_suite(ids)
        out["certificates"] = suite
    else:
        if a == 1:
            rr = fujiki.rr_lagrangian_form(n, 1, 1, 0)
            out["principal_case"] = {
                "q_lm": 1,
                "q_m": 0,
                "form": "EVEN",
                "c_X_forced": rr.c_X,
                "rr": rr,
                "hyperbolic_plane": True,
            }
            if c_X is not None and rr.c_X != c_X:
                out["principal_case"]["c_X_override_consistent"] = False
        out.setdefault("principal_case", None)
    return out


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hk4",
        description="Exact-arithmetic certification suite for hyper-Kahler fourfold "
        "lattice and Riemann-Roch arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="case analysis for one value of a")
    p_classify.add_argument("--a", type=int, required=True)
    p_classify.add_argument("--json", dest="json_path")
    p_classify.add_argument("--betti-data", dest="betti_data")
    p_classify.add_argument("--decimal", action="store_true")

    p_verify = sub.add_parser("verify", help="run one certificate or all of them")
    p_verify.add_argument("name", help='certificate id or "all"')
    p_verify.add_argument("--json", dest="json_path")
    p_verify.add_argument("--jobs", type=int, default=1)

    p_scenario = sub.add_parser("scenario", help="ingest a scenario file and report")
    p_scenario.add_argument("path")
    p_scenario.add_argument("--json", dest="json_path")
    p_scenario.add_argument("--betti-data", dest="betti_data")

    p_ledger = sub.add_parser("ledger", help="dump the chi ledger as markdown and JSON")
    p_ledger.add_argument("--json", dest="json_path")

    p_report = sub.add_parser("report", help="full suite: classifications plus all certificates")
    p_report.add_argument("--json", dest="json_path")
    p_report.add_argument("--jobs", type=int, default=1)
    p_report.add_argument("--betti-data", dest="betti_data")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "classify":
        if args.a < 1:
            print("error: --a must be a positive integer", file=sys.stderr)
            return EXIT_USAGE
        table = classifier.load_betti_table(args.betti_data)
        report = classifier.classify(args.a, betti_table=table)
        _print_case_report(report, decimal=args.decimal)
        _write_json(args.json_path, case_report_json(report))
        return EXIT_OK

    if args.command == "verify":
        if args.name != "all" and args.name not in CERTIFICATES:
            print(f"error: unknown certificate id {args.name!r}", file=sys.stderr)
            print(f"known ids: {', '.join(sorted(CERTIFICATES))}, all", file=sys.stderr)
            return EXIT_USAGE
        names = sorted(CERTIFICATES) if args.name == "all" else [args.name]
        import time

        start = time.monotonic()
        suite = run_suite(names, jobs=max(1, args.jobs))
        elapsed = time.monotonic() - start
        for name, res in suite["certificates"].items():
            print(f"{name}: {res['result']}")
            for d in res["diffs"]:
                print(f"  diff: {d}")
        print(f"runtime: {elapsed:.3f}s")
        _write_json(args.json_path, suite)
        return EXIT_OK if suite["all_expected_verdicts_reproduced"] else EXIT_DIVERGED

    if args.command == "scenario":
        try:
            with open(args.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read scenario: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            out = run_scenario(doc, betti_path=args.betti_data)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
        print(dumps_canonical(out), end="")
        _write_json(args.json_path, out)
        certs = out.get("certificates")
        if certs and not certs["all_expected_verdicts_reproduced"]:
            return EXIT_DIVERGED
        return EXIT_OK

    if args.command == "ledger":
        t = ledger.chi_table()
        print(t.to_markdown())
        print()
        print(dumps_canonical(t), end="")
        _write_json(args.json_path, to_jsonable(t))
        return EXIT_OK

    if args.command == "report":
        table = classifier.load_betti_table(args.betti_data)
        suite = run_suite(sorted(CERTIFICATES), jobs=max(1, args.jobs))
        classifications = {
            str(a): case_report_json(classifier.classify(a, betti_table=table))
            for a in range(1, 9)
        }
        payload = {
            "certificates": suite["certificates"],
            "all_expected_verdicts_reproduced": suite["all_expected_verdicts_reproduced"],
            "classifications": classifications,
            "ledger": to_jsonable(ledger.chi_table()),
        }
        print(dumps_canonical(payload), end="")
        _write_json(args.json_path, payload)
        return EXIT_OK if suite["all_expected_verdicts_reproduced"] else EXIT_DIVERGED

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
