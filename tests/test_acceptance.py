"""Acceptance gate: every criterion runs at literal-equality tolerance.

Each test drives the same surface the CLI exposes (the classifier entry
point and the named verify certificates) and asserts the exact expected
numbers; no tolerance anywhere means any deviation is a failure.
"""

import itertools
import json
import random

from hk4.classifier import classify
from hk4.cli import load_expectations, main, run_certificate, run_scenario
from hk4.fujiki import fujiki4_pairing
from hk4.h4 import h4_pair, ns_product
from hk4.rationals import Q, RatPoly, integer_valued_on, is_integer
from hk4.report import dumps_canonical


def classify_json(tmp_path, a):
    out = tmp_path / f"classify_{a}.json"
    assert main(["classify", "--a", str(a), "--json", str(out)]) == 0
    return json.loads(out.read_text())


def verify_values(name):
    res = run_certificate(name, load_expectations())
    assert res["result"] in ("PASS", "UNSAT-as-expected"), res["diffs"]
    return res["values"]


def test_criterion_01_classify_a1(tmp_path):
    doc = classify_json(tmp_path, 1)
    assert doc["verdict"] == "SOLUTIONS" and len(doc["solutions"]) == 1
    sol = doc["solutions"][0]
    assert sol["state"]["A_X"] == "25/32"
    assert sol["state"]["gamma"] == "0"
    opts = sol["q_options"]
    assert len(opts) == 1 and opts[0]["q_lm"] == 1
    assert opts[0]["parity"] == "EVEN"
    assert opts[0]["c_X"] == "3"
    # P_RR(T) = binom(T/2 + 3, 2) = T^2/8 + 5T/4 + 3
    assert opts[0]["rr"]["coeffs"] == ["3", "5/4", "1/8"]
    spurious = [
        t
        for t in doc["trace"]
        if "A_X=8/9" in t["candidate"] and "4*A_X - b^2/(2a)" in t["constraint"]
    ]
    assert spurious and spurious[0]["value"] == "31/72"


def test_criterion_02_classify_small_a(tmp_path):
    for k in (2, 5, 6, 7, 8):
        assert classify_json(tmp_path, k)["verdict"] == "EMPTY"

    doc3 = classify_json(tmp_path, 3)
    assert doc3["verdict"] == "SOLUTIONS" and len(doc3["solutions"]) == 1
    sol = doc3["solutions"][0]
    assert sol["q_options"][0]["q_lm"] == 1
    assert sol["q_options"][0]["c_X"] == "9"
    # P_RR = 3 * binom(T/2 + 2, 2) = 3T^2/8 + 9T/4 + 3
    assert sol["q_options"][0]["rr"]["coeffs"] == ["3", "9/4", "3/8"]
    assert sorted(sol["betti_options"]) == [[5, 0, 96], [6, 4, 102], [7, 8, 108]]

    doc4 = classify_json(tmp_path, 4)
    assert doc4["verdict"] == "SOLUTIONS"
    gammas = [s["state"]["gamma"] for s in doc4["solutions"]]
    assert gammas == ["0", "1"]
    for sol in doc4["solutions"]:
        pairs = {(o["q_lm"], o["c_X"]) for o in sol["q_options"]}
        assert pairs == {(2, "3"), (1, "12")}
    assert "integrality of 4*A_X - b^2/(2a) forces b odd" in doc4["notes"]
    evens_killed = {
        t["candidate"].split("b=")[1]
        for t in doc4["trace"]
        if t["stage"] == "gamma_search" and "A_X=25/32" in t["candidate"]
    }
    assert evens_killed == {"4", "6"}


def test_criterion_03_nefcone_plane():
    v = verify_values("nefcone-plane")
    assert v["status"] == "UNSAT"
    assert v["quadratic"] == ["-525", "20", "92"]
    assert v["quadratic_resultant"] == ["-525", "20", "92"]  # resultant cross-check
    assert sorted(v["roots"]) == sorted(["105/46", "-5/2"])
    assert v["integer_roots"] == []


def test_criterion_04_contract_surface():
    v = verify_values("contract-surface")
    assert v["status"] == "UNSAT"
    cases = {c["t"]: c for c in v["cases"]}
    for t in (1, 2, 3, 4):
        assert cases[t]["verdict"] == "UNSAT"
        assert Q(cases[t]["forced_w"]) == Q(t, 25)  # deduction 25w = t
        assert not is_integer(Q(cases[t]["five_w"]))  # 5w not integral
    assert cases[5]["probe"] and cases[5]["verdict"] == "SAT-candidate"


def test_criterion_05_sigma_split():
    v = verify_values("sigma-split")
    assert v["status"] == "UNSAT"
    # kill path 1: integrality of (1 +- 525 w^2)/2
    assert v["sigma1_sq"] == ["1/2", "0", "525/2"]
    assert v["two_sigma1_sq"] == ["1", "0", "525"]
    assert v["two_sigma1_sigma2"] == ["1", "0", "-525"]
    assert v["w_min_integrality"] == "1/5"
    # kill path 2: witness inequality 1 - 25w >= 0
    assert v["boundary_sigma2"] == ["1", "-25"]
    assert v["w_max_witness"] == "1/25"
    # both paths fire somewhere in the candidate scan
    kills = [k for c in v["candidates"] for k in c["kills"]]
    assert any("integrality" in k for k in kills)
    assert any("witness" in k for k in kills)
    assert all(c["killed"] for c in v["candidates"])


def test_criterion_06_segre():
    v = verify_values("segre")
    assert v["matrix"] == [
        [45, -120, 210, -252],
        [-55, 165, -330, 462],
        [66, -220, 495, -792],
        [-78, 286, -715, 1287],
    ]
    assert v["determinant"] != 0
    assert v["rank"] == 4


def test_criterion_07_chi_ledger():
    v = verify_values("chi-table")["values"]
    assert (v["chi(1,1)"], v["chi(2,1)"], v["chi(3,2)"]) == ("6", "10", "36")
    assert (v["chi(2,2)"], v["chi(3,1)"]) == ("21", "15")
    assert v["chi(1,-1)"] == "1"  # P_RR(-2)
    assert v["chi(2,-1)"] == "0"  # P_RR(-4)
    assert v["chi(0,-1)"] == "3"  # chi(M^-1)
    k = verify_values("koszul")
    assert (k["ideal_L2M2"], k["restricted_L2M2"], k["restriction_rank_LM"]) == (14, 7, 5)
    c = verify_values("castelnuovo")
    assert (c["quadric_lower_bound"], c["castelnuovo_max"]) == (8, 3)
    assert c["contradiction"] is True


def test_criterion_08_mukai_and_k3():
    m = verify_values("mukai")
    assert m["vector"] == {"rank": 2, "c1_coeff": 1, "s": 1}
    assert m["self_pairing"] == -2
    k = verify_values("k3-checks")
    assert k["chi_O_E"] == "2"
    assert k["h_squared"] == "2"
    assert k["H_sigma_squared"] == "2"


def test_criterion_09_cones_and_reflection():
    c = verify_values("cones")
    assert c["prime_exceptional"] == [[-1, 1], [1, -1]]
    r = verify_values("reflection")
    assert r["swaps_l_m"] is True
    assert r["preserves_q_on_sample"] is True
    assert r["sample_size"] == 100


def test_criterion_10_guan_gate():
    v = verify_values("guan-gate")
    assert v["hits"] == [{"t": "1/8", "A_X": ["25/32"]}]


def test_criterion_11_bounds():
    v = verify_values("bounds")
    assert v["bound_2_1"] == "27"
    sf = set(v["squarefree"])
    assert {1, 2, 3, 5, 7, 10} <= sf
    assert 6 not in sf
    assert max(sf) <= 262


def test_criterion_12_property_suites():
    # Fujiki four-class symmetry: 24 permutations on 50 random quadruples
    rng = random.Random(12)
    for _ in range(50):
        classes = [(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4)]
        base = fujiki4_pairing(*classes)
        for perm in itertools.permutations(classes):
            assert fujiki4_pairing(*perm) == base

    # h4_pair against the four-class identity on the Sym^2 block
    for _ in range(50):
        a, b, c, d = ((rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4))
        assert h4_pair(ns_product(a, b), ns_product(c, d)) == fujiki4_pairing(a, b, c, d)

    # finite-difference integer-valuedness against brute force on [-50, 50]
    for _ in range(40):
        coeffs = [Q(rng.randint(-30, 30), rng.randint(1, 64)) for _ in range(rng.randint(1, 4))]
        p = RatPoly(tuple(coeffs))
        stride = rng.randint(1, 3)
        offset = rng.randint(-5, 5)
        brute = all(is_integer(p(Q(offset + stride * j))) for j in range(-50, 51))
        assert integer_valued_on(p, stride, offset) == brute

    # classification invariant under m -> -m and m -> m + r*l
    def classification(m):
        doc = {
            "n": 2,
            "gram": [[0, 1], [1, 0]],
            "l": [1, 0],
            "m": list(m),
            "overrides": {"c_X": "3"},
        }
        return dumps_canonical(run_scenario(doc)["classification"])

    base = classification((0, 1))
    assert classification((0, -1)) == base
    for r in range(-5, 6):
        assert classification((r, 1)) == base
