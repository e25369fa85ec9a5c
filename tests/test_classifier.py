"""Bounded case analysis: gates, window scans, full classification per a."""

import hashlib
import json
import math
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hk4 import classifier
from hk4.classifier import (
    EVEN,
    UNCONSTRAINED,
    KillTrace,
    TraceEntry,
    _betti_grid,
    admissible_qlm,
    betti_options_for,
    classify,
    fujiki_degree_bound,
    gamma_search,
    load_betti_table,
    sqrt_gate,
    squarefree_a_filter,
)
from hk4.cli import case_report_json
from hk4.fujiki import ADMISSIBLE_288AX, ADMISSIBLE_AX, betti_profile, rr_from_cx_ax
from hk4.rationals import (
    Q,
    integrality_witness,
    is_integer,
    sqrt_rational,
    squarefree_part,
)
from hk4.report import dumps_canonical

#: a <= 3000 that pass the sqrt gate, the only ones with a b-window to scan.
GATED_A = [a for a in range(1, 3001) if sqrt_gate(a)]


def reference_gamma_search(a, A_X):
    """Independent cross-check: the b-window scan in Fraction arithmetic.

    Returns ([(b, c, gamma)], [(b, defect)]) for survivors and kills, from
    defect = 4*A_X - b*b/(2*a) evaluated per candidate.
    """
    beta = sqrt_rational(8 * a * A_X)
    states, killed = [], []
    k0 = math.floor(beta) + 1
    for k in range(k0, k0 + a):
        if not (beta < k <= beta + a):
            continue
        b = k - Q(a, 2)
        defect = 4 * A_X - b * b / (2 * a)
        if is_integer(defect):
            states.append((b, 3 - defect, 2 * (b - beta) / a))
        else:
            killed.append((b, defect))
    return states, killed


def window_rows(trace):
    """The trace's b-window rows as (candidate, value) strings, in order."""
    return [(row.candidate, row.value) for row in trace if row.stage == "gamma_search"]


def reference_window_rows(a, scanned):
    """The rows of `reference_gamma_search`'s kills for each A_X of ``scanned``, in order."""
    return [(f"A_X={ax}, b={b}", str(defect))
            for ax in scanned for b, defect in reference_gamma_search(a, ax)[1]]


def reference_admissible_qlm(a, A_X):
    """Independent cross-check: q-admissibility in Fraction arithmetic.

    For a gate-passing (a, A_X), builds P_RR with `rr_from_cx_ax` and finds
    the first non-integral value of each model with `integrality_witness`.
    Returns ({q: (c_X, parity, rr)}, [(q, parity, reason)]).
    """
    out, killed = {}, []
    for q in range(1, isqrt(3 * a) + 1):
        c_X = Q(3 * a, q * q)
        rr = rr_from_cx_ax(c_X, A_X)
        odd_w = integrality_witness(rr.base, 1, 0)
        even_w = None if odd_w is None else integrality_witness(rr.base, 2, 0)
        if even_w is not None:
            killed.append((q, "EVEN", f"P_RR({even_w}) not an integer"))
            continue
        if odd_w is not None:
            killed.append((q, "ODD", f"P_RR({odd_w}) not an integer"))
        out[q] = (c_X, UNCONSTRAINED if odd_w is None else EVEN, rr)
    return out, killed


def reference_betti_candidates(A_X):
    """Independent cross-check: scan the whole Betti grid for one A_X."""
    found = []
    for b2 in list(range(3, 9)) + [23]:
        for b3 in range(0, 4 * b2 + 17, 2):
            try:
                prof = betti_profile(b2, b3)
            except ValueError:
                continue
            if prof["violations"] or prof["A_X"] != A_X:
                continue
            found.append((prof["b2"], prof["b3"], prof["b4"]))
    return found


class TestSqrtGate:
    def test_a1(self):
        assert sqrt_gate(1) == [Q(25, 32), Q(8, 9)]

    def test_a3(self):
        assert sqrt_gate(3) == [Q(27, 32)]

    def test_a6_empty(self):
        assert sqrt_gate(6) == []

    def test_kill_list(self):
        killed = []
        sqrt_gate(3, killed=killed)
        assert (225, 675) in killed  # 3 * 225 is not a perfect square
        assert len(killed) == 23

    def test_every_gate_value_is_admissible(self):
        for a in range(1, 12):
            for ax in sqrt_gate(a):
                assert is_integer(288 * ax)


class TestGammaSearch:
    def test_a1_golden(self):
        states = gamma_search(1, Q(25, 32))
        assert len(states) == 1
        st = states[0]
        assert (st.gamma, st.b, st.c, st.beta) == (0, Q(5, 2), 3, Q(5, 2))

    def test_a1_spurious_ax_killed(self):
        assert gamma_search(1, Q(8, 9)) == []
        # A_X = 25/32 scans first; its one candidate is a state
        assert window_rows(classify(1).trace) == reference_window_rows(1, [Q(8, 9)]) == [
            ("A_X=8/9, b=5/2", "31/72")]

    def test_a4_two_states(self):
        states = gamma_search(4, Q(25, 32))
        assert [(s.gamma, s.b, s.c) for s in states] == [(0, 5, 3), (1, 7, 6)]

    def test_b_window_is_half_open(self):
        # gamma in (-1, 1]: with beta = 5/2, a = 1, the window (2, 3] holds b = 5/2 only
        states = gamma_search(1, Q(25, 32))
        assert all(-1 < s.gamma <= 1 for s in states)

    def test_state_invariants(self):
        for a, ax in ((1, Q(25, 32)), (3, Q(27, 32)), (4, Q(25, 32))):
            for st in gamma_search(a, ax):
                assert st.b == Q(a, 2) * st.gamma + st.beta
                assert st.c == Q(a, 8) * st.gamma**2 + st.gamma / 2 * st.beta + 3
                assert is_integer(Q(a, 2) + st.b) and is_integer(st.c)
                assert 4 * st.A_X - st.b**2 / (2 * a) == 3 - st.c

    def test_value_polynomial_integer_on_window(self):
        for a, ax in ((1, Q(25, 32)), (3, Q(27, 32)), (4, Q(25, 32))):
            for st in gamma_search(a, ax):
                p = st.value_poly
                assert all(is_integer(p(Q(k))) for k in range(-10, 11))

    def test_requires_rational_beta(self):
        with pytest.raises(ValueError):
            gamma_search(1, Q(241, 288))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GATED_A))
    def test_integer_window_matches_fraction_reference(self, a):
        for ax in sqrt_gate(a):
            assert [(s.b, s.c, s.gamma) for s in gamma_search(a, ax)] == (
                reference_gamma_search(a, ax)[0])
        assert window_rows(classify(a).trace) == reference_window_rows(a, sqrt_gate(a))


class TestAdmissibleQlm:
    def test_a1(self):
        opts = admissible_qlm(1, Q(25, 32))
        assert sorted(opts) == [1]
        assert opts[1].parity == EVEN and opts[1].c_X == 3

    def test_a3(self):
        opts = admissible_qlm(3, Q(27, 32))
        assert sorted(opts) == [1]
        assert opts[1].parity == EVEN and opts[1].c_X == 9
        assert opts[1].rr.base.coeffs == (3, Q(9, 4), Q(3, 8))

    def test_a4(self):
        opts = admissible_qlm(4, Q(25, 32))
        assert sorted(opts) == [1, 2]
        assert opts[1].parity == UNCONSTRAINED and opts[1].c_X == 12
        assert opts[2].parity == EVEN and opts[2].c_X == 3

    def test_rejected_parity_has_witness(self):
        killed = []
        admissible_qlm(1, Q(25, 32), killed=killed)
        assert any(q == 1 and parity == "ODD" and "P_RR(" in why for q, parity, why in killed)

    @staticmethod
    def assert_matches_reference(a, ax):
        killed = []
        opts = admissible_qlm(a, ax, killed=killed)
        ref_opts, ref_killed = reference_admissible_qlm(a, ax)
        assert {q: (o.c_X, o.parity, (o.rr.n, o.rr.base)) for q, o in opts.items()} == {
            q: (c_X, parity, (rr.n, rr.base)) for q, (c_X, parity, rr) in ref_opts.items()}
        assert all(o.q_lm == q for q, o in opts.items())
        assert killed == ref_killed

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GATED_A))
    def test_integer_test_matches_fraction_reference(self, a):
        for ax in sqrt_gate(a):
            self.assert_matches_reference(a, ax)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 3000), st.sampled_from(ADMISSIBLE_AX))
    @example(1, Q(241, 288))
    @example(2, Q(25, 32))
    def test_irrational_root_raises(self, a, ax):
        # most (a, A_X) fail the sqrt gate; classify never asks about those
        assume(sqrt_rational(2 * a * ax) is None)
        killed = []
        with pytest.raises(ValueError, match="sqrt_gate"):
            admissible_qlm(a, ax, killed=killed)
        assert killed == []

    def test_rr_is_built_only_for_admitted_q(self, monkeypatch):
        built = []

        def counted(c_X, A_X):
            built.append(c_X)
            return rr_from_cx_ax(c_X, A_X)

        monkeypatch.setattr(classifier, "rr_from_cx_ax", counted)
        for a, ax in ((1, Q(25, 32)), (4, Q(25, 32)), (36, Q(25, 32)), (1000, Q(125, 144))):
            built.clear()
            opts = admissible_qlm(a, ax)
            assert built == [opts[q].c_X for q in sorted(opts)]

    def test_admitted_even_options_take_integer_values_on_even_grid(self):
        for a, ax in ((1, Q(25, 32)), (3, Q(27, 32)), (4, Q(25, 32))):
            for opt in admissible_qlm(a, ax).values():
                for t in range(-20, 21, 2):
                    assert is_integer(opt.rr(t))


class TestClassify:
    def test_a1_matches_the_principal_case(self):
        rep = classify(1)
        assert rep.verdict == "SOLUTIONS" and len(rep.solutions) == 1
        sol = rep.solutions[0]
        assert sol.state.A_X == Q(25, 32)
        assert sol.state.gamma == 0
        assert [o.q_lm for o in sol.q_options] == [1]
        opt = sol.q_options[0]
        assert opt.c_X == 3 and opt.parity == EVEN
        assert opt.rr.base.coeffs == (3, Q(5, 4), Q(1, 8))
        assert sol.betti_options == ((23, 0, 276),)
        assert any(
            "A_X=8/9" in t.candidate and "4*A_X - b^2/(2a)" in t.constraint and t.value == "31/72"
            for t in rep.trace
        )

    @pytest.mark.parametrize("a", [2, 5, 6, 7, 8])
    def test_empty_cases(self, a):
        rep = classify(a)
        assert rep.verdict == "EMPTY"
        assert rep.solutions == ()
        assert rep.trace  # emptiness always comes with a recorded kill

    def test_a3_block(self):
        rep = classify(3)
        assert rep.verdict == "SOLUTIONS" and len(rep.solutions) == 1
        sol = rep.solutions[0]
        assert sol.state.A_X == Q(27, 32) and sol.state.gamma == 0
        opt = sol.q_options[0]
        assert (opt.q_lm, opt.c_X, opt.parity) == (1, 9, EVEN)
        # P_RR = 3 * binom(T/2 + 2, 2)
        assert opt.rr.base.coeffs == (3, Q(9, 4), Q(3, 8))
        assert sol.betti_options == ((5, 0, 96), (6, 4, 102), (7, 8, 108))
        assert sol.betti_builtin_only == ((8, 12, 114),)
        assert any("(8, 12, 114)" in n for n in rep.notes)

    def test_a4_block(self):
        rep = classify(4)
        assert rep.verdict == "SOLUTIONS"
        assert [s.state.gamma for s in rep.solutions] == [0, 1]
        assert [s.state.b for s in rep.solutions] == [5, 7]
        for sol in rep.solutions:
            pairs = {(o.q_lm, o.c_X) for o in sol.q_options}
            assert pairs == {(1, Q(12)), (2, Q(3))}
        assert "integrality of 4*A_X - b^2/(2a) forces b odd" in rep.notes
        killed_bs = [t for t in rep.trace if t.stage == "gamma_search" and "A_X=25/32" in t.candidate]
        assert {t.candidate.split("b=")[1] for t in killed_bs} == {"4", "6"}

    def test_every_emitted_ax_satisfies_288(self):
        for a in range(1, 9):
            for sol in classify(a).solutions:
                assert is_integer(288 * sol.state.A_X)

    def test_restrict_ax(self):
        rep = classify(1, restrict_ax=Q(8, 9))
        assert rep.verdict == "EMPTY"
        assert any(t.stage == "restrict" for t in rep.trace)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            classify(0)

    @pytest.mark.parametrize(
        "a, digest",
        [
            (4, "e44bffd47e357b0fae367cf4698d6ddcbe256e5fa943d05ed02ab213b838e688"),
            (36, "96d041047629c553111da723469843472c953aa873a23881fc28d93cfbdc4174"),
            (100, "d41bbdae84e06e1d05887d80995ddf5803852bcfa80995cfb14b69d1a01b6465"),
            (1000, "b1f31cea9c026c60215dd3c9776d7f5724592bc2e8b476e6cb4782037358ef68"),
        ],
    )
    def test_canonical_json_is_pinned(self, a, digest):
        text = dumps_canonical(case_report_json(classify(a)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_whole_sweep_is_pinned(self):
        # every gate-passing a <= 1024 (152 of them), reports concatenated in ascending a
        sweep = [a for a in GATED_A if a <= 1024]
        assert len(sweep) == 152
        text = "".join(dumps_canonical(case_report_json(classify(a))) for a in sweep)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "d6cf46dbf54e972f0d971977e0d36d33863b799983ad44eba58494d0ea7c4937"

    def test_per_ax_work_runs_once(self, monkeypatch):
        calls = {"admissible_qlm": 0, "betti_options_for": 0}
        for name in calls:
            orig = getattr(classifier, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls[_name] += 1
                return _orig(*args, **kwargs)

            monkeypatch.setattr(classifier, name, counted)
        rep = classify(36)  # two A_X, with 6 and 2 states
        assert len(rep.solutions) == 8
        assert calls == {"admissible_qlm": 2, "betti_options_for": 2}

    def test_the_trace_reads_as_a_sequence_of_rows(self):
        case = classify(36)
        rows = list(case.trace)
        assert len(case.trace) == len(rows) == 154 and case.trace
        assert all(type(row) is TraceEntry for row in rows)
        assert case.trace[0] == rows[0] and case.trace[1:] == tuple(rows[1:])
        assert not KillTrace(1, (), (), "", ())

    def test_the_written_trace_is_the_rows_it_yields_up_to_3000(self):
        # every gate-passing a <= 3000, and each a with two or more A_X pinned to its last A_X;
        # the b-window rows are the kills of the Fraction reference scan, in scan order
        for a in GATED_A:
            passing = sqrt_gate(a)
            for scanned in [passing] + [passing[-1:]] * (len(passing) > 1):
                case = classify(a, restrict_ax=None if scanned is passing else scanned[0])
                rows = list(case.trace)
                assert json.loads(dumps_canonical(case.trace)) == [
                    dict(zip(TraceEntry._fields, r)) for r in rows], a
                assert window_rows(rows) == reference_window_rows(a, scanned), a


#: a = squarefree_part(N) * k^2 <= 10^5 for an admissible N = 288*A_X: a*N is a square.
LARGE_GATED_A = st.sampled_from(ADMISSIBLE_288AX).flatmap(
    lambda n: st.integers(1, isqrt(10**5 // squarefree_part(n))).map(
        lambda k: squarefree_part(n) * k * k))


class TestLemmas:
    """The two lemmas of the classifier's module docstring, checked on the engine."""

    @staticmethod
    def assert_states_admit_q1(a):
        for ax in sqrt_gate(a):
            if gamma_search(a, ax):
                assert 1 in admissible_qlm(a, ax), (a, ax)

    def test_every_state_admits_q1_up_to_3000(self):
        for a in GATED_A:
            self.assert_states_admit_q1(a)

    @settings(max_examples=40, deadline=None)
    @given(LARGE_GATED_A)
    @example(99856)  # 316^2, a perfect square: both 225/288 and 256/288 pass the gate
    @example(262 * 19 * 19)  # the largest draw for N = 262
    def test_every_state_admits_q1_for_large_a(self, a):
        assert sqrt_gate(a)
        self.assert_states_admit_q1(a)

    def test_every_state_is_a_solution_and_the_odd_b_note_is_exact(self):
        table = load_betti_table()
        for a in GATED_A:
            rep = classify(a, betti_table=table)
            states = sum(len(gamma_search(a, ax)) for ax in sqrt_gate(a))
            assert len(rep.solutions) == states, a
            noted = "integrality of 4*A_X - b^2/(2a) forces b odd" in rep.notes
            odd = a % 2 == 0 and bool(rep.solutions) and all(
                s.state.b % 2 == 1 for s in rep.solutions)
            assert noted == odd, a
            if noted:
                # Lemma 2: an even b was killed in some window
                killed = [t.candidate.split("b=")[1] for t in rep.trace
                          if t.stage == "gamma_search"]
                assert any("/" not in b and int(b) % 2 == 0 for b in killed), a


class TestBettiOptions:
    def test_split_for_kummer_ax(self):
        table = load_betti_table()
        in_table, builtin_only = betti_options_for(Q(27, 32), table)
        assert in_table == [(5, 0, 96), (6, 4, 102), (7, 8, 108)]
        assert builtin_only == [(8, 12, 114)]

    def test_split_for_hilbert_square_ax(self):
        table = load_betti_table()
        in_table, builtin_only = betti_options_for(Q(25, 32), table)
        assert in_table == [(23, 0, 276)]
        assert builtin_only == []

    @pytest.mark.parametrize("ax", [*ADMISSIBLE_AX, Q(1, 2)])
    def test_grid_lookup_matches_per_ax_scan(self, ax):
        table = load_betti_table()
        listed = {(e["b2"], e["b3"]) for e in table}
        expected = reference_betti_candidates(ax)
        in_table, builtin_only = betti_options_for(ax, table)
        assert in_table == [t for t in expected if t[:2] in listed]
        assert builtin_only == [t for t in expected if t[:2] not in listed]

    def test_cached_grid_cannot_be_mutated_through_results(self):
        grid = _betti_grid()
        assert all(type(v) is tuple for v in grid.values())
        with pytest.raises(TypeError):
            grid[Q(1, 2)] = ()
        in_table, _ = betti_options_for(Q(27, 32), load_betti_table())
        in_table.append((0, 0, 0))
        assert (0, 0, 0) not in grid[Q(27, 32)]
        assert betti_options_for(Q(27, 32), load_betti_table())[0] == [
            (5, 0, 96), (6, 4, 102), (7, 8, 108)
        ]


class TestFilters:
    def test_squarefree_filter(self):
        sf = squarefree_a_filter()
        assert {1, 2, 3, 5, 7, 10} <= sf
        assert 6 not in sf
        assert max(sf) <= 262

    def test_degree_bounds(self):
        assert fujiki_degree_bound(2, 1) == 27
        assert fujiki_degree_bound(2, 3) == 81
        assert fujiki_degree_bound(1, 1) == 3
