"""CLI behavior: exit codes, JSON determinism, order independence, the certificate table."""

import dataclasses
import hashlib
import inspect
import json
import subprocess
import sys

import pytest

from hk4 import ledger
from hk4.cli import CERTIFICATES, main, run_certificate, run_scenario, run_suite
from hk4.report import dumps_canonical, to_jsonable


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hk4", *args], capture_output=True, text=True, timeout=60
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


class TestReportCommand:
    def test_full_report(self, tmp_path):
        out = tmp_path / "report.json"
        res = run_cli("report", "--json", str(out), "--jobs", "4")
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
        run_cli("report", "--json", str(b), "--jobs", "3")
        assert a.read_bytes() == b.read_bytes()


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
        monkeypatch.setattr(
            ledger, "koszul_counts", lambda: dataclasses.replace(real, contradiction=False)
        )
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        res = run_certificate("castelnuovo")
        assert res["values"]["status"] == "FAIL"
        assert res["result"] == "FAIL"
        assert main(["verify", "castelnuovo"]) == 1
        assert "castelnuovo: FAIL" in capsys.readouterr().out

    def test_chi_table_claim_fails_on_a_wrong_chi(self, monkeypatch):
        import hk4.cli as cli

        real = ledger.chi_table()
        first, *rest = real.entries
        bad = dataclasses.replace(real, entries=(dataclasses.replace(first, chi=first.chi + 1), *rest))
        monkeypatch.setattr(ledger, "chi_table", lambda: bad)
        monkeypatch.setattr(cli, "load_expectations", lambda: {})
        assert run_certificate("chi-table")["result"] == "FAIL"
        assert main(["verify", "chi-table"]) == 1
