"""CLI behavior: exit codes, JSON determinism, order independence, the certificate table."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hk4 import ledger
from hk4.cli import CERTIFICATES, main, run_certificate, run_scenario, run_suite
from hk4.rationals import Q
from hk4.report import dumps_canonical, to_jsonable


def run_cli(*args, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "hk4", *args], capture_output=True, text=True,
        timeout=60,
    )


#: sha256 of the file written by ``hk4 report --json PATH`` (the same bytes go to stdout).
REPORT_SHA256 = "78bfa3fe40bb3986df12535a9f5c625a221692ed825d73a1a32361d3fa534db4"

K3SQ = {
    "n": 2,
    "rank": 2,
    "gram": [[0, 1], [1, 0]],
    "l": [1, 0],
    "m": [0, 1],
    "overrides": {"c_X": "3"},
}

#: sha256 of the file written by ``hk4 scenario PATH --json OUT`` (the same bytes go to
#: stdout): the three ``scripts/scenario_examples.py`` documents, an n = 2 document
#: with ``overrides.a = 1``, which runs all 15 certificates, one with ``overrides.a = 64``,
#: the slowest of the documents that run six, and the principal case at n = 200.
SCENARIO_SHA256 = {
    "hyperbolic_cx3": "20f84abc382802689eabd91f9249257729a8c06fff513c051e9c8972c2f2fd7e",
    "hyperbolic_cx9": "0faa1178aea551ccf215cad8bf6980cc6833d35c1522c08ad28f4a42cd764ce8",
    "dim10_cx945": "1a9ff398847f6e387bab1789f93abccda33fac98d23799a95dd1e4b03752b05e",
    "a1": "788e6c6bcc35b0242e40a1311ff5e6e1d8c472b699ab635e79eac0d74e0a25fe",
    "a64": "eb37e242a3ed34722c0acdeae2a0d99923915ccd6921b14d771d0561f6683457",
    "principal_n200": "386b6cf384096a70a0ed78d81d12a953f3c7b381af57adc2e4595f5109fd80da",
}
SCENARIO_DOCS = {
    "hyperbolic_cx3": K3SQ,
    "hyperbolic_cx9": dict(K3SQ, overrides={"c_X": "9"}),
    "dim10_cx945": dict(K3SQ, n=5, overrides={"c_X": "945"}),
    "a1": dict(K3SQ, overrides={"a": 1}),
    "a64": dict(K3SQ, overrides={"a": 64}),
    "principal_n200": dict(K3SQ, n=200, overrides={"a": "1"}),
}

#: sha256 of the file written by ``hk4 classify --a 1000 --json PATH``, the bytes that
#: tests/test_classifier.py pins for a = 1000.
CLASSIFY_1000_SHA256 = "b1f31cea9c026c60215dd3c9776d7f5724592bc2e8b476e6cb4782037358ef68"

#: sha256 of the file written by ``hk4 ledger --json PATH``.
LEDGER_SHA256 = "a3ee0e7ac088eabcadc6c10445bba2d21b24a94c54a54b10f17800bb4418a78b"

#: sha256 of the whole stdout of ``hk4 ledger``: the markdown table, a blank line, the JSON.
LEDGER_STDOUT_SHA256 = "0da88001ade2a54a2f383369f30a1e7e1481e0ce24ddc7bae19d865453b3e9e6"


class TestClassifyCommand:
    def test_a1_exit_zero(self):
        res = run_cli("classify", "--a", "1")
        assert res.returncode == 0
        assert "SOLUTIONS" in res.stdout
        assert "A_X = 25/32" in res.stdout

    def test_empty_is_still_exit_zero(self):
        res = run_cli("classify", "--a", "2")
        assert res.returncode == 0
        assert "EMPTY" in res.stdout

    def test_a0_is_usage_error(self):
        res = run_cli("classify", "--a", "0")
        assert res.returncode == 2

    def test_json_output(self, tmp_path):
        out = tmp_path / "a1.json"
        res = run_cli("classify", "--a", "1", "--json", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "SOLUTIONS"
        assert doc["solutions"][0]["state"]["A_X"] == "25/32"

    def test_decimal_flag_marks_approximation(self):
        res = run_cli("classify", "--a", "1", "--decimal")
        assert "non-authoritative" in res.stdout
        # exact value still present
        assert "25/32" in res.stdout

    def test_report_is_converted_only_for_json(self, monkeypatch, capsys, tmp_path):
        import hk4.cli as cli

        calls = []

        def counted(report):
            calls.append(report.a)
            return to_jsonable(report)

        monkeypatch.setattr(cli, "case_report_json", counted)
        assert main(["classify", "--a", "36"]) == 0
        plain = capsys.readouterr().out
        assert calls == []
        out = tmp_path / "a36.json"
        assert main(["classify", "--a", "36", "--json", str(out)]) == 0
        assert capsys.readouterr().out == plain
        assert calls == [36]
        assert json.loads(out.read_text())["a"] == 36

    @pytest.mark.parametrize("argv, digest", [
        (("--a", "36"), "5bdb3b8f20c433b37170fe2d164c1af240ba8fb4719c14536ceaf33b42e9d5da"),
        (("--a", "36", "--decimal"),
         "f04006346778f835e63a48e361c5159c5ade0c33c88446589036f687f22ad8e0"),
        # a = 1000 is EMPTY: no A_X is printed, so --decimal changes nothing
        (("--a", "1000"), "e3d0ecfce33f9ccdf31515bd5cac4c5f2ac7adf53ad488ec235550e1d97ff709"),
        (("--a", "1000", "--decimal"),
         "e3d0ecfce33f9ccdf31515bd5cac4c5f2ac7adf53ad488ec235550e1d97ff709"),
    ])
    def test_text_output_is_pinned(self, capsys, argv, digest):
        # solutions, q options, notes and every trace row, as printed
        assert main(["classify", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestVerifyCommand:
    def test_unknown_id(self):
        res = run_cli("verify", "no-such-cert")
        assert res.returncode == 2

    def test_single_certificate(self):
        res = run_cli("verify", "segre")
        assert res.returncode == 0
        assert "segre: PASS" in res.stdout

    def test_all(self, tmp_path):
        out = tmp_path / "suite.json"
        res = run_cli("verify", "all", "--json", str(out))
        assert res.returncode == 0
        assert "runtime" in res.stdout
        doc = json.loads(out.read_text())
        assert doc["all_expected_verdicts_reproduced"] is True
        assert set(doc["certificates"]) == set(CERTIFICATES)

    def test_unsat_reported_as_expected(self):
        res = run_cli("verify", "sigma-split")
        assert res.returncode == 0
        assert "sigma-split: UNSAT-as-expected" in res.stdout

    def test_order_independent(self):
        names = sorted(CERTIFICATES)
        forward = dumps_canonical(run_suite(names))
        reversed_ = dumps_canonical(run_suite(list(reversed(names))))
        assert forward == reversed_


class TestScenarioCommand:
    def test_k3_square(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(K3SQ))
        res = run_cli("scenario", str(path))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["a"] == 1
        assert doc["classification"]["verdict"] == "SOLUTIONS"
        assert len(doc["certificates"]["certificates"]) == len(CERTIFICATES)

    def test_kummer_numbers(self, tmp_path):
        path = tmp_path / "s.json"
        doc = dict(K3SQ, overrides={"c_X": "9"})
        path.write_text(json.dumps(doc))
        res = run_cli("scenario", str(path))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["a"] == 3
        sol = out["classification"]["solutions"][0]
        assert sol["q_options"][0]["c_X"] == "9"

    def test_og10_numbers(self, tmp_path):
        path = tmp_path / "s.json"
        doc = dict(K3SQ, n=5, overrides={"c_X": "945"})
        path.write_text(json.dumps(doc))
        res = run_cli("scenario", str(path))
        assert res.returncode == 0
        out = json.loads(res.stdout)
        assert out["a"] == 1
        assert out["principal_case"]["c_X_forced"] == "945"
        # binom(T/2 + 6, 5) has leading coefficient 945/10!
        assert out["principal_case"]["rr"]["coeffs"][-1] == "1/3840"

    def test_schema_violation_exit_2(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"n": 2, "gram": [[0, 1], [1, 0]]}))
        assert run_cli("scenario", str(path)).returncode == 2

    def test_nonisotropic_l_exit_3(self, tmp_path):
        path = tmp_path / "s.json"
        doc = dict(K3SQ, gram=[[2, 1], [1, 0]])
        path.write_text(json.dumps(doc))
        res = run_cli("scenario", str(path))
        assert res.returncode == 3
        assert "q(l)" in res.stderr

    def test_degenerate_pair_exit_3(self, tmp_path):
        path = tmp_path / "s.json"
        doc = dict(K3SQ, gram=[[0, 0], [0, 0]])
        path.write_text(json.dumps(doc))
        assert run_cli("scenario", str(path)).returncode == 3

    @pytest.mark.parametrize("name", sorted(SCENARIO_SHA256))
    def test_scenario_digest_pinned(self, tmp_path, name):
        path, out = tmp_path / "s.json", tmp_path / "out.json"
        path.write_text(json.dumps(SCENARIO_DOCS[name]))
        res = run_cli("scenario", str(path), "--json", str(out))
        assert res.returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SCENARIO_SHA256[name]
        assert res.stdout == out.read_text()

    @pytest.mark.parametrize("name", ["hyperbolic_cx9", "a64"])
    def test_a_warm_process_prints_the_pinned_bytes_twice(self, tmp_path, name):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(SCENARIO_DOCS[name]))
        first, second = run_main("scenario", str(path)), run_main("scenario", str(path))
        assert first[0] == second[0] == 0, first[2]
        assert first[1] == second[1]
        assert hashlib.sha256(first[1].encode()).hexdigest() == SCENARIO_SHA256[name]

    def test_normalization_invariance(self):
        # m -> -m and m -> m + r*l produce the identical classification block
        def classification(gram, l, m):
            doc = {"n": 2, "gram": gram, "l": l, "m": m, "overrides": {"c_X": "3"}}
            return dumps_canonical(run_scenario(doc)["classification"])

        base = classification([[0, 1], [1, 0]], [1, 0], [0, 1])
        flipped = classification([[0, 1], [1, 0]], [1, 0], [0, -1])
        assert base == flipped
        for r in range(-5, 6):
            shifted = classification([[0, 1], [1, 0]], [1, 0], [r, 1])
            assert base == shifted


class TestLedgerCommand:
    def test_markdown_and_json(self):
        res = run_cli("ledger")
        assert res.returncode == 0
        assert "| 1 | 1 | 2 | 6 |" in res.stdout
        assert '"k_L": 1' in res.stdout  # JSON dump follows the table

    def test_json(self, tmp_path):
        out = tmp_path / "ledger.json"
        run_cli("ledger", "--json", str(out))
        doc = json.loads(out.read_text())
        assert doc["k_L"] == 1

    def test_ledger_digest_pinned(self, tmp_path):
        out = tmp_path / "ledger.json"
        res = run_cli("ledger", "--json", str(out))
        assert res.returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LEDGER_SHA256
        assert res.stdout.endswith(out.read_text())

    def test_ledger_stdout_digest_pinned(self):
        res = run_cli("ledger")
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == LEDGER_STDOUT_SHA256


class TestReportCommand:
    def test_full_report(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("report", "--json", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["all_expected_verdicts_reproduced"] is True
        assert doc["classifications"]["1"]["verdict"] == "SOLUTIONS"
        assert doc["classifications"]["2"]["verdict"] == "EMPTY"

    def test_json_round_trip_byte_identical(self, tmp_path):
        out = tmp_path / "report.json"
        run_cli("report", "--json", str(out))
        text = out.read_text()
        assert dumps_canonical(json.loads(text)) == text

    def test_report_digest_pinned(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("report", "--json", str(out))
        assert res.returncode == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REPORT_SHA256
        assert res.stdout == out.read_text()

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("report", "--json", str(a))
        run_cli("report", "--json", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("env, flags", [
        ({"PYTHONHASHSEED": "0"}, []),
        ({"PYTHONHASHSEED": "1"}, []),
        ({}, ["-X", "dev", "-W", "error"]),
        ({}, ["-OO"]),
    ], ids=["hashseed0", "hashseed1", "dev-W-error", "OO"])
    def test_pinned_bytes_under_other_interpreter_settings(self, tmp_path, env, flags):
        # no output may depend on hash order, dev mode turns every warning into an error,
        # and -OO strips docstrings
        out = tmp_path / "out.json"
        for argv, digest in ((["classify", "--a", "1000"], CLASSIFY_1000_SHA256),
                             (["report"], REPORT_SHA256)):
            res = subprocess.run([sys.executable, *flags, "-m", "hk4", *argv, "--json", str(out)],
                                 env=dict(os.environ, **env), capture_output=True, text=True,
                                 timeout=60)
            assert res.returncode == 0 and res.stderr == "", res.stderr
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, argv

    def test_same_bytes_and_verdicts_under_python_O(self, tmp_path):
        # `python -O` strips assert statements, so no verdict may depend on one
        res = run_cli("report", "--json", str(tmp_path / "report.json"), python_flags=["-O"])
        assert res.returncode == 0, res.stderr
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == REPORT_SHA256
        res = run_cli("verify", "all", python_flags=["-O"])
        assert res.returncode == 0, res.stderr


class TestMainInProcess:
    def test_main_returns_exit_code(self, capsys):
        assert main(["verify", "bounds"]) == 0
        assert main(["verify", "bogus"]) == 2

    def test_divergence_is_reported_and_fails(self, monkeypatch, capsys):
        # a tampered expectation must produce a FAIL with a printed diff and exit 1
        import hk4.cli as cli

        fake = {"segre": {"determinant": 1}}
        monkeypatch.setattr(cli, "load_expectations", lambda: fake)
        assert main(["verify", "segre"]) == 1
        out = capsys.readouterr().out
        assert "segre: FAIL" in out
        assert "expected 1, computed 70785" in out


class TestCertificateTable:
    @pytest.mark.parametrize("name", sorted(CERTIFICATES))
    def test_entry_is_zero_argument_callable_with_status(self, name):
        cert = CERTIFICATES[name]
        assert callable(cert)
        assert not inspect.signature(cert).parameters
        values = cert()
        assert isinstance(values, dict)
        assert "status" in values

    def test_status_derived_from_claim(self, monkeypatch, capsys):
        # with no pinned expectations left, only the claim can fail the certificate
        import hk4.cli as cli

        real = ledger.koszul_counts()
        monkeypatch.setattr(ledger, "koszul_counts", lambda: {**real, "contradiction": False})
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        res = run_certificate("castelnuovo", {})
        assert res["values"]["status"] == "FAIL"
        assert res["result"] == "FAIL"
        assert main(["verify", "castelnuovo"]) == 1
        assert "castelnuovo: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("name, engine, wrong", [
        ("segre", "segre_certificate", {"rank": 3}),
        ("mukai", "mukai_solve", {"self_pairing": 0}),
        ("k3-checks", "k3_exceptional_checks", {"is_degree2_k3": False}),
    ])
    def test_ledger_claims_fail_on_a_wrong_result(self, monkeypatch, name, engine, wrong):
        import hk4.cli as cli

        real = getattr(ledger, engine)()
        monkeypatch.setattr(ledger, engine, lambda: {**real, **wrong})
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        assert run_certificate(name, {})["values"]["status"] == "FAIL"
        assert main(["verify", name]) == 1

    def test_engine_status_is_kept(self, monkeypatch, capsys):
        # an h4 refutation that finds its search space non-empty reports SAT, and that fails
        import hk4.cli as cli
        from hk4 import h4

        real = h4.sigma_split_certificate()
        monkeypatch.setattr(h4, "sigma_split_certificate", lambda: {**real, "status": "SAT"})
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        res = run_certificate("sigma-split", {})
        assert res["values"]["status"] == "SAT"
        assert res["result"] == "FAIL"
        assert main(["verify", "sigma-split"]) == 1
        assert "sigma-split: FAIL" in capsys.readouterr().out

    def test_chi_table_claim_fails_on_a_wrong_chi(self, monkeypatch):
        import hk4.cli as cli

        real = ledger.chi_table()
        first, *rest = real["entries"]
        bad = {**real, "entries": [{**first, "chi": first["chi"] + 1}, *rest]}
        monkeypatch.setattr(ledger, "chi_table", lambda: bad)
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        assert run_certificate("chi-table", {})["result"] == "FAIL"
        assert main(["verify", "chi-table"]) == 1


BETTI_TEXT = resources.files("hk4.data").joinpath("betti.json").read_text()
BETTI = json.loads(BETTI_TEXT)

#: A valid n = 2 scenario with a small a (EMPTY classification, six certificates).
SMALL = dict(K3SQ, overrides={"a": "2"})


def run_main(*argv):
    """main(argv) in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


#: JSON values that are neither integers nor lists of integers, nor a valid overrides object.
NOT_INT = (st.none() | st.booleans() | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=4) | st.just([None]) | st.just({"weight": 1}))

#: Strings that are neither "p" nor "p/q" with q != 0 ("1e9999999" would be a huge integer).
BAD_RATIONAL_TEXT = st.sampled_from(["abc", "1/0", "-4/00", "1.5", "1e9999999", " 3", "", "nan"]) | (
    st.text(max_size=6).filter(lambda t: not re.fullmatch(r"[+-]?[0-9]+(/[0-9]*[1-9][0-9]*)?", t)))

#: Betti data that is not a JSON array of {"b2": int, "b3": int} objects.
BAD_BETTI_VALUE = st.none() | st.lists(st.integers(), max_size=2) | st.sampled_from(["", "abc", "8.5"])
BAD_BETTI_ENTRY = (
    st.integers() | st.text(max_size=3) | st.none() | st.lists(st.integers(), max_size=2)
    | st.just({"b2": 8}) | st.just({"b3": 12})
    | st.fixed_dictionaries({"b2": BAD_BETTI_VALUE, "b3": st.just(12)})
    | st.fixed_dictionaries({"b2": st.just(8), "b3": BAD_BETTI_VALUE})
)
BAD_BETTI_TEXT = (
    st.sampled_from(["", "{", "[1,", "not json"])
    | st.builds(json.dumps, st.none() | st.integers() | st.text(max_size=3) | st.just({"b2": 8}))
    | st.builds(lambda pos, bad: json.dumps(BETTI[:pos] + [bad] + BETTI[pos:]),
                st.integers(0, 3), BAD_BETTI_ENTRY)
)


@st.composite
def malformed_inputs(draw):
    """(scenario: a document, or raw text or bytes; Betti file text or None), one part malformed."""
    doc = json.loads(json.dumps(SMALL))
    kind = draw(st.sampled_from(["type", "missing", "override", "override_keys", "betti",
                                 "betti_path", "raw"]))
    if kind == "type":
        doc[draw(st.sampled_from(["n", "rank", "gram", "l", "m", "overrides"]))] = draw(NOT_INT)
    elif kind == "missing":
        del doc[draw(st.sampled_from(["n", "gram", "l", "m"]))]
    elif kind == "override":
        key = draw(st.sampled_from(["c_X", "a", "A_X"]))
        doc["overrides"][key] = draw(BAD_RATIONAL_TEXT | NOT_INT.filter(lambda v: not isinstance(v, str)))
    elif kind == "override_keys":
        doc["overrides"] = draw(st.sampled_from([{}, {"A_X": "25/32"}, {"a": "2", "weight": "1"}]))
    elif kind == "betti":
        return doc, draw(BAD_BETTI_TEXT)
    elif kind == "betti_path":
        doc["overrides"]["betti_data_path"] = draw(
            st.just("/nonexistent/betti.json") | NOT_INT.filter(lambda v: not isinstance(v, str)))
    else:
        return draw(st.sampled_from(["", "{", "[]", "2", '"scenario"', '{"n": 2,', b"\xff\xfe"])), None
    return doc, None


class TestInputBoundary:
    """Malformed input exits 2 with one error line and no traceback."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(malformed_inputs())
    def test_malformed_scenario_and_betti_documents_exit_2(self, tmp_path, case):
        doc, betti_text = case
        path, betti = tmp_path / "scenario.json", tmp_path / "betti.json"
        if betti_text is not None:
            betti.write_text(betti_text)
            doc["overrides"]["betti_data_path"] = str(betti)
        if isinstance(doc, dict):
            doc = json.dumps(doc)
        path.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        code, out, err = run_main("scenario", str(path))
        assert code == 2, (doc, betti_text, err)
        assert out == ""
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_scenario_file(self, tmp_path):
        code, _, err = run_main("scenario", str(tmp_path / "missing.json"))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1

    def test_integer_betti_data_path_is_not_a_file_descriptor(self, tmp_path):
        # open() would take an int as a descriptor: read the caller's file, then close it
        betti = tmp_path / "betti.json"
        betti.write_text(BETTI_TEXT)
        fd = os.open(betti, os.O_RDONLY)
        try:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(dict(SMALL, overrides={"a": "2", "betti_data_path": fd})))
            code, _, err = run_main("scenario", str(path))
            assert code == 2, err
            os.fstat(fd)  # still open
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)

    @pytest.mark.parametrize("argv", [
        ["classify", "--a", "1", "--betti-data", "/nonexistent"],
        ["report", "--betti-data", "/nonexistent"],
        ["classify", "--a", "1", "--json", "/nonexistent/x.json"],
    ])
    def test_unreadable_files_on_the_command_line_exit_2(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("route", ["scenario", "betti_data_path", "--betti-data"])
    def test_json_nested_past_the_recursion_limit_exits_2(self, tmp_path, route):
        deep, path = tmp_path / "deep.json", tmp_path / "scenario.json"
        deep.write_text("[" * 100000 + "]" * 100000)
        path.write_text(json.dumps(dict(SMALL, overrides={"a": "2", "betti_data_path": str(deep)})))
        argv = {"scenario": ["scenario", str(deep)],
                "betti_data_path": ["scenario", str(path)],
                "--betti-data": ["classify", "--a", "1", "--betti-data", str(deep)]}[route]
        res = run_cli(*argv)
        assert res.returncode == 2, res.stderr
        assert res.stdout == "" and "Traceback" not in res.stderr
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr

    def test_usage_errors_are_one_line(self):
        for argv in ([], ["verify", "bogus"], ["classify"], ["classify", "--a", "x"],
                     ["report", "--jobs", "4"], ["verify", "all", "--jobs", "4"]):
            code, _, err = run_main(*argv)
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)


class TestOutputPath:
    @pytest.mark.parametrize("argv, echo", [
        (["report"], True),
        (["ledger"], True),
        (["scenario", "SCENARIO"], True),
        (["verify", "bounds"], False),
        (["classify", "--a", "4"], False),
    ])
    def test_payload_serialized_once_and_the_same_string_goes_to_json(
            self, tmp_path, monkeypatch, argv, echo):
        import hk4.cli as cli

        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(SMALL))
        calls = []
        real = cli.dumps_canonical
        monkeypatch.setattr(cli, "dumps_canonical", lambda obj: calls.append(1) or real(obj))
        target = tmp_path / "out.json"
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        code, out, _ = run_main(*argv, "--json", str(target))
        assert code == 0
        assert len(calls) == 1
        assert out.endswith(target.read_text()) == echo

    @pytest.mark.parametrize("argv", [
        ["classify", "--a", "1"],
        ["verify", "bounds"],
        ["scenario", "SCENARIO"],
        ["ledger"],
        ["report"],
    ])
    def test_an_unwritable_json_path_prints_nothing_and_exits_2(self, tmp_path, argv):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(SMALL))
        argv = [str(scenario) if a == "SCENARIO" else a for a in argv]
        code, out, err = run_main(*argv, "--json", str(tmp_path))  # a directory
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write --json") and err.count("\n") == 1, err


class TestNoTraceRows:
    def test_no_command_builds_a_trace_row(self, tmp_path, monkeypatch, capsys):
        import hk4.classifier as classifier

        made, real = [], classifier.TraceEntry
        monkeypatch.setattr(classifier, "TraceEntry",
                            lambda *cells: made.append(cells) or real(*cells))
        rows = list(classifier.classify(4).trace)  # reading the trace makes its rows
        assert rows and len(made) == len(rows)
        made.clear()
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps(dict(K3SQ, overrides={"a": 36, "A_X": "25/32"})))
        assert main(["classify", "--a", "1000", "--json", str(tmp_path / "c.json")]) == 0
        assert main(["report"]) == 0
        assert main(["scenario", str(scenario)]) == 0
        assert "restrict" in capsys.readouterr().out
        assert made == []


class TestBettiIntegers:
    """b2 and b3 are JSON integers: no float, string or boolean is read as one."""

    @pytest.mark.parametrize("field, bad", [
        ("b2", 23.9), ("b3", "8"), ("b2", True), ("b3", False), ("b3", 0.0),
    ])
    def test_classify_betti_data(self, tmp_path, field, bad):
        betti = tmp_path / "betti.json"
        betti.write_text(json.dumps([dict(BETTI[0], **{field: bad}), *BETTI[1:]]))
        code, out, err = run_main("classify", "--a", "3", "--betti-data", str(betti))
        assert code == 2, err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, bad", [("b2", 23.9), ("b3", "8"), ("b3", True), ("b3", False)])
    def test_scenario_betti_data_path(self, tmp_path, field, bad):
        betti, path = tmp_path / "betti.json", tmp_path / "scenario.json"
        betti.write_text(json.dumps([*BETTI[:-1], dict(BETTI[-1], **{field: bad})]))
        path.write_text(json.dumps(dict(K3SQ, overrides={"a": "3", "betti_data_path": str(betti)})))
        code, out, err = run_main("scenario", str(path))
        assert code == 2, err
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("valid", [True, False])
    def test_scenario_betti_data_flag_overrides_the_doc_path(self, tmp_path, valid):
        betti, path = tmp_path / "flag_betti.json", tmp_path / "scenario.json"
        betti.write_text(BETTI_TEXT if valid
                         else json.dumps([*BETTI[:-1], dict(BETTI[-1], b3="8")]))
        missing = str(tmp_path / "missing_betti.json")
        path.write_text(json.dumps(dict(K3SQ, overrides={"a": "3", "betti_data_path": missing})))
        code, out, err = run_main("scenario", str(path), "--betti-data", str(betti))
        if valid:
            assert (code, err) == (0, "")
            assert json.loads(out)["classification"]["a"] == 3
        else:
            assert code == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and "flag_betti.json" in err, err


class TestExpectationsReadOncePerSuite:
    def test_suite_reads_once_and_a_lone_certificate_reads_once(self, monkeypatch):
        import hk4.cli as cli

        calls = []
        real = cli.load_expectations
        monkeypatch.setattr(cli, "load_expectations", lambda: calls.append(1) or real())
        suite = run_suite(sorted(CERTIFICATES))
        assert suite["all_expected_verdicts_reproduced"]
        assert len(calls) == 1
        assert main(["verify", "segre"]) == 0
        assert len(calls) == 2
        # run_certificate takes the parsed expectations and reads nothing itself
        assert run_certificate("segre", real())["result"] == "PASS"
        assert len(calls) == 2


class TestOneParserPerProcess:
    def test_one_parser_and_nothing_carries_over_between_calls(self, monkeypatch, tmp_path):
        import hk4.cli as cli

        built = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        cli._parser.cache_clear()  # so that this test sees the one build
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SMALL))
        assert run_main("verify", "nope")[0] == 2
        tree = len(built)  # the root parser, the --json parent and the five commands
        with pytest.raises(SystemExit) as exit_info, contextlib.redirect_stdout(io.StringIO()):
            main(["--help"])
        assert exit_info.value.code == 0
        first, second = run_main("scenario", str(path)), run_main("scenario", str(path))
        assert first[0] == second[0] == 0, first[2]
        assert first[1].encode() == second[1].encode() != b""
        assert built.count("hk4") == 1 and len(built) == tree


class TestPackageDataReadOnce:
    """The package data is read once per process; no caller sees another's edits."""

    def test_edits_to_what_the_loaders_return_do_not_reach_the_next_caller(self):
        import hk4.cli as cli
        from hk4 import classifier

        text = resources.files("hk4.data").joinpath("expectations.json").read_text()
        expectations = cli.load_expectations()
        expectations.pop("segre")
        expectations["bounds"]["squarefree_max"] = 0
        expectations["appended"] = {}
        assert cli.load_expectations() == json.loads(text)
        table = classifier.load_betti_table()
        table.append({"b2": 3, "b3": 0, "source": "appended"})
        table[0]["b2"] = 99
        table.pop(1)
        assert classifier.load_betti_table() == BETTI
        assert main(["verify", "bounds"]) == 0

    def test_a_betti_file_given_by_path_is_read_on_every_call(self, tmp_path):
        betti = tmp_path / "betti.json"
        betti.write_text(BETTI_TEXT)
        code, before, _ = run_main("classify", "--a", "3", "--betti-data", str(betti))
        assert code == 0 and "excluded by data file: [(8, 12, 114)]" in before
        betti.write_text(json.dumps([*BETTI, {"b2": 8, "b3": 12, "source": "added"}]))
        code, after, _ = run_main("classify", "--a", "3", "--betti-data", str(betti))
        assert code == 0 and "excluded by data file" not in after
        assert "(7, 8, 108), (8, 12, 114)]" in after
        betti.write_text(json.dumps([dict(BETTI[0], b3="8")]))
        code, out, err = run_main("classify", "--a", "3", "--betti-data", str(betti))
        assert (code, out) == (2, "") and err.startswith("error: ")


class TestFixedInputsBuiltOnce:
    """The reflection sample and the guan-gate points are built once; no result is cached."""

    SUITE = ["cones", "guan-gate", "reflection"]

    def test_a_rebound_engine_function_fails_its_certificate_after_the_caches_fill(
            self, monkeypatch):
        from hk4 import fujiki, lattices

        assert run_suite(self.SUITE)["all_expected_verdicts_reproduced"]
        scan = lattices.prime_exceptional_scan
        monkeypatch.setattr(fujiki, "guan_gate", lambda t: frozenset())
        monkeypatch.setattr(lattices, "reflection_about", lambda e: lambda v: (v[0] + 1, v[1]))
        monkeypatch.setattr(lattices, "prime_exceptional_scan",
                            lambda: {**scan(), "prime_exceptional": [(-1, 1)]})
        certs = run_suite(self.SUITE)["certificates"]
        # each diff names a value that only the rebound function computes
        for name, key in [("cones", "prime_exceptional"), ("guan-gate", "hits"),
                          ("reflection", "involution_on_sample")]:
            assert certs[name]["result"] == "FAIL", name
            assert any(d.startswith(f"{name}.{key}:") for d in certs[name]["diffs"]), certs[name]
        monkeypatch.undo()
        certs = run_suite(self.SUITE)["certificates"]
        assert [certs[name]["result"] for name in self.SUITE] == ["PASS"] * 3

    def test_the_reflection_sample_is_the_fixed_seed_draw_built_once(self):
        import random

        import hk4.cli as cli

        rng = random.Random(20260810)
        drawn = tuple((rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(100))
        assert cli._reflection_sample() == drawn
        hits = cli._reflection_sample.cache_info().hits
        assert cli._reflection_sample() is cli._reflection_sample()
        assert cli._reflection_sample.cache_info().hits == hits + 2
        first, second = cli._reflection_checks(), cli._reflection_checks()
        assert first == second and first["sample_size"] == 100

    def test_the_guan_gate_points_are_the_reduced_t_below_one_third(self):
        import hk4.cli as cli

        points = cli._guan_scan_points()
        assert len(points) == 60
        assert points == tuple(sorted(points, key=lambda t: (t.denominator, t.numerator)))
        assert set(points) == {Q(num, den) for den in range(1, 25) for num in range(den)
                               if 3 * num < den}
        assert cli._guan_scan_points() is points


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


class TestClosedStdout:
    """A reader that closes stdout early gets exit 141 and no traceback, from every entry point."""

    @pytest.mark.parametrize("argv", [
        ["-m", "hk4", "classify", "--a", "1000"],
        ["-m", "hk4", "report"],
        [os.path.join(SCRIPTS, "classification_table.py")],
        [os.path.join(SCRIPTS, "scenario_examples.py"), "SCENARIOS"],
    ])
    def test_exit_141_without_traceback(self, tmp_path, argv):
        import hk4

        argv = [str(tmp_path / "scenarios") if a == "SCENARIOS" else a for a in argv]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hk4.__file__)))
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the child writes anything
        try:
            res = subprocess.run([sys.executable, *argv], stdout=write_end, stderr=subprocess.PIPE,
                                 text=True, env=env, cwd=tmp_path, timeout=120)
        finally:
            os.close(write_end)
        assert res.returncode == 141, res.stderr
        assert "Traceback" not in res.stderr and "BrokenPipe" not in res.stderr, res.stderr


class TestScenarioExamplesArguments:
    """scripts/scenario_examples.py takes one optional OUTDIR and parses its options first."""

    @staticmethod
    def run_script(tmp_path, *args):
        import hk4

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(hk4.__file__)))
        return subprocess.run([sys.executable, os.path.join(SCRIPTS, "scenario_examples.py"), *args],
                              capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)

    def test_help_prints_usage_and_writes_nothing(self, tmp_path):
        res = self.run_script(tmp_path, "--help")
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("usage: ") and "outdir" in res.stdout
        assert list(tmp_path.iterdir()) == []

    def test_unknown_option_is_a_usage_error_and_writes_nothing(self, tmp_path):
        res = self.run_script(tmp_path, "--bogus")
        assert res.returncode == 2
        assert res.stdout == "" and "usage: " in res.stderr and "Traceback" not in res.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args, outdir", [((), "scenarios"), (("out",), "out")])
    def test_writes_the_three_scenarios_into_outdir(self, tmp_path, args, outdir):
        res = self.run_script(tmp_path, *args)
        assert res.returncode == 0, res.stderr
        assert [p.name for p in tmp_path.iterdir()] == [outdir]
        assert sorted(p.name for p in (tmp_path / outdir).iterdir()) == [
            "dim10_cx945.json", "hyperbolic_cx3.json", "hyperbolic_cx9.json"]
        assert res.stdout.count("\n") == 3

    def test_a_directory_named_like_a_scenario_file_is_one_error_line(self, tmp_path):
        (tmp_path / "out" / "hyperbolic_cx3.json").mkdir(parents=True)
        res = self.run_script(tmp_path, "out")
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["hyperbolic_cx3.json"]

    @pytest.mark.parametrize("outdir", ["afile/sub", "afile", "missing/sub"])
    def test_unusable_outdir_is_one_error_line_and_writes_nothing(self, tmp_path, outdir):
        # under a regular file, a regular file itself, and under a missing parent
        (tmp_path / "afile").write_text("x")
        res = self.run_script(tmp_path, outdir)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "x"
