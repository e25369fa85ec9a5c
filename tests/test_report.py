"""Canonical JSON: the emitter against ``json.dumps(sort_keys=True, indent=2)``.

``ref`` is a test-only conversion over the domain the commands emit (exact
built-in types, rationals, polynomials, dataclass records and kill traces,
with string keys); it and ``json.dumps`` are the oracle for ``to_jsonable``
and for ``dumps_canonical``, which takes plain JSON values only and so is fed
``to_jsonable(x)``.  ``to_jsonable`` returns a kill trace as it is, so
``expand`` turns its traces into the list of row dicts that ``ref`` makes
from the rows the trace yields, and that the trace's bytes are held to.
Outside that domain both sides raise TypeError.
"""

import dataclasses
import enum
import json
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4.classifier import (
    CONSTRAINTS,
    ClassifierState,
    KillTrace,
    QOption,
    TraceEntry,
    classify,
    sqrt_gate,
)
from hk4.fujiki import ADMISSIBLE_288AX, RRPolynomial, rr_from_cx_ax, rr_lagrangian_form
from hk4.ledger import chi_table
from hk4.rationals import RatPoly
from hk4.report import approx_decimal, dumps_canonical, to_jsonable


def ref(obj):
    """Test-only conversion of the values commands emit; anything else raises TypeError."""
    kind = type(obj)
    if kind in (type(None), bool, int, str):
        return obj
    if kind is Fraction:
        return str(obj)
    if kind is RRPolynomial:
        return {"n": obj.n, "coeffs": [str(c) for c in obj.base.coeffs], "pretty": obj.pretty()}
    if kind is RatPoly:
        return {"coeffs": [ref(c) for c in obj.coeffs], "pretty": obj.pretty()}
    if kind is dict:
        if not all(type(k) is str for k in obj):
            raise TypeError("JSON keys must be str")
        return {k: ref(v) for k, v in obj.items()}
    if kind in (list, tuple):
        return [ref(x) for x in obj]
    if kind is KillTrace:
        return [{name: ref(cell) for name, cell in row._asdict().items()} for row in obj]
    if dataclasses.is_dataclass(kind):
        return {f.name: ref(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {kind!r}")


def oracle(obj) -> str:
    return json.dumps(ref(obj), sort_keys=True, indent=2) + "\n"


def expand(plain):
    """Plain values with each trace replaced by its list of row dicts, as ``ref`` writes it."""
    kind = type(plain)
    if kind is KillTrace:
        return [row._asdict() for row in plain]
    if kind is dict:
        return {k: expand(v) for k, v in plain.items()}
    if kind is list:
        return [expand(x) for x in plain]
    return plain


def assert_matches_oracle(value):
    """The oracle's plain value and bytes, or TypeError on both sides."""
    try:
        expected = oracle(value)
    except TypeError:
        with pytest.raises(TypeError):
            dumps_canonical(to_jsonable(value))
        return
    assert expand(to_jsonable(value)) == ref(value)
    assert dumps_canonical(to_jsonable(value)) == expected


class Text(str):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Count(int):
    """An int whose str and repr are not its digits; JSON still writes the digits."""

    def __repr__(self):
        return f"Count({int(self)})"

    __str__ = __repr__


@dataclasses.dataclass
class Pair:
    left: object
    right: object


#: Strings with non-ASCII, control, quote and backslash characters, lone surrogates too.
TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\n\t\x00\x1f\x7f", "é", "€", " ", "😀", "\ud800", "a/b", "</"])
RATIONAL = st.fractions(max_denominator=50)
SCALAR = st.none() | st.booleans() | st.integers() | st.integers(-2, 2) | TEXT | RATIONAL
POLY = st.builds(RatPoly, st.lists(RATIONAL, max_size=4))
RR = (st.builds(rr_lagrangian_form, st.integers(1, 4))
      | st.builds(lambda c_ax: rr_from_cx_ax(*c_ax),  # the pairs with a rational root
                  st.sampled_from([(3, Fraction(25, 32)), (9, Fraction(27, 32)),
                                   (Fraction(1, 2), Fraction(3, 4))])))
#: Small a with the A_X that pass their sqrt gate, for b-windows of at most 36 candidates.
GATED = [(a, sqrt_gate(a)) for a in (1, 3, 4, 9, 12, 25, 36) if sqrt_gate(a)]


@st.composite
def kill_traces(draw):
    """Kill traces with rows of every stage, each stored string adversarial text."""
    a, passing = draw(st.sampled_from(GATED))
    texts = st.lists(TEXT, max_size=3).map(tuple)
    q_kills = st.lists(st.tuples(st.integers(1, 9), TEXT, TEXT), max_size=3).map(tuple)
    blocks = st.lists(st.tuples(st.sampled_from(passing), TEXT, texts, q_kills), max_size=3)
    gate = st.lists(st.sampled_from(ADMISSIBLE_288AX), max_size=3).map(tuple)
    return KillTrace(a, draw(gate), draw(texts), draw(TEXT), tuple(draw(blocks)))


TRACE = kill_traces()
EMPTY_TRACE = KillTrace(1, (), (), "", ())
ENGINE = (
    TRACE
    | st.builds(ClassifierState, st.integers(1, 50), RATIONAL, RATIONAL, RATIONAL, RATIONAL,
                RATIONAL, POLY)
    | st.builds(QOption, st.integers(1, 4), RATIONAL, st.sampled_from(["EVEN", "UNCONSTRAINED"]),
                RR)
    | POLY
    | RR
)


def nested(leaves):
    return st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(TEXT, children, max_size=4)
                          | st.builds(Pair, children, children)),
        max_leaves=25,
    )


VALUES = nested(SCALAR | ENGINE)


class TestAgainstTheJsonDumpsOracle:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_same_value_and_same_bytes(self, value):
        assert expand(to_jsonable(value)) == ref(value)
        assert dumps_canonical(to_jsonable(value)) == oracle(value)

    @settings(max_examples=100, deadline=None)
    @given(VALUES)
    def test_plain_json_is_a_fixed_point(self, value):
        # converting already converted values changes nothing
        plain = to_jsonable(value)
        assert to_jsonable(plain) == plain
        assert dumps_canonical(plain) == oracle(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), set(), frozenset(), {"": {}}, [[], {}, [[]]], {"a": {"b": {"c": []}}},
        None, True, False, 0, -1, 10**40, "", "xé\n", Fraction(-3, 4),
        Text("t"), Level.HIGH, Count(7),
        {1: "int", "1": "str"}, {"1": "str", 1: "int"}, {True: 1, 1: 2, "True": 3},
        EMPTY_TRACE, {"t": EMPTY_TRACE}, [EMPTY_TRACE, EMPTY_TRACE],
    ])
    def test_edge_values(self, value):
        # sets, subclasses and non-string keys are outside the domain: both sides raise
        assert_matches_oracle(value)

    @pytest.mark.parametrize("a", [1, 3, 4, 36])
    def test_case_reports(self, a):
        case = classify(a)
        assert expand(to_jsonable(case)) == ref(case)
        assert dumps_canonical(to_jsonable(case)) == oracle(case)

    def test_ledger(self):
        table = chi_table()
        assert dumps_canonical(to_jsonable(table)) == oracle(table)

    def test_the_trace_is_returned_as_it_is(self):
        trace = classify(4).trace
        assert type(trace) is KillTrace and to_jsonable(trace) is trace

    @settings(max_examples=200, deadline=None)
    @given(TRACE, st.lists(st.sampled_from(["list", "dict"]), max_size=3),
           st.lists(TEXT, min_size=4, max_size=4))
    def test_a_trace_at_any_depth(self, trace, path, constraints):
        # the rows' indent is the one of wherever the trace sits, and the templates
        # quote the constraint texts as json.dumps does
        value = trace
        for kind in path:
            value = [value, 1] if kind == "list" else {"k": value, "after": None}
        with patch.dict(CONSTRAINTS, zip(CONSTRAINTS, constraints)):
            assert dumps_canonical(to_jsonable(value)) == oracle(value)

    @pytest.mark.parametrize("wrap", [lambda t: t, lambda t: {"k": [t, {"t": t}]}])
    def test_every_stage_with_cells_that_need_escaping(self, wrap):
        trace = KillTrace(4, (225, 240), ('"\\', "é\n"), "\x00😀",
                          ((Fraction(25, 32), "\ud800</", ("\t", "0"), ((1, "EVEN", '"'),)),))
        assert {row.stage for row in trace} == {
            "sqrt_gate", "restrict", "gamma_search", "admissible_qlm"}
        assert dumps_canonical(to_jsonable(wrap(trace))) == oracle(wrap(trace))

    def test_tuples_shared_by_the_states_of_one_ax_are_converted_once(self):
        # a = 36 has two A_X with 6 and 2 states; each A_X's lists are one object per call
        case = classify(36)
        plain, again = to_jsonable(case), to_jsonable(case)
        sols = plain["solutions"]
        assert len({s.state.A_X for s in case.solutions}) == 2
        for key in ("q_options", "betti_options", "betti_builtin_only"):
            raws = [getattr(raw, key) for raw in case.solutions]
            assert [sol[key] for sol in sols] == [ref(raw) for raw in raws]
            # one conversion per tuple object, shared by every state that holds it
            converted = {id(raw): sol[key] for raw, sol in zip(raws, sols)}
            assert all(sol[key] is converted[id(raw)] for raw, sol in zip(raws, sols))
            assert len({id(x) for x in converted.values()}) == len(converted)
        # nothing is kept from one call to the next
        assert again == plain and again["solutions"][0]["q_options"] is not sols[0]["q_options"]

    def test_output_is_ascii(self):
        assert dumps_canonical({"é": ["€", "😀"]}).isascii()


class TestErrors:
    @settings(max_examples=100, deadline=None)
    @given(nested(SCALAR), st.floats(), st.integers(0, 2))
    def test_floats_raise_type_error_on_both_sides(self, value, x, where):
        doc = [value, x] if where == 0 else {"k": (value, Pair(x, 1))} if where == 1 else [{"f": x}]
        with pytest.raises(TypeError):
            ref(doc)
        with pytest.raises(TypeError):
            to_jsonable(doc)
        with pytest.raises(TypeError):
            dumps_canonical(doc)

    @pytest.mark.parametrize("value", [object(), b"bytes", 1.5, Pair(1, 2.0), {"k": {1j}}])
    def test_unknown_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            ref(value)
        with pytest.raises(TypeError):
            to_jsonable(value)
        with pytest.raises(TypeError):
            dumps_canonical(value)

    @pytest.mark.parametrize("value", [
        (1, 2), Fraction(1, 2), {"k": (1,)}, [{1: "int key"}], {"k": RatPoly((Fraction(1, 2), 3))},
        [chi_table()],
    ])
    def test_dumps_takes_plain_json_only(self, value):
        # values to_jsonable accepts are not converted a second time here
        to_jsonable(value)
        with pytest.raises(TypeError):
            dumps_canonical(value)

    @pytest.mark.parametrize("value", [
        set(), frozenset(), Text("t"), Level.HIGH, Count(7), {1: "x"},
        {"k": [frozenset({1})]}, [Text("nested")], Pair(Level.LOW, 1),
        # a row outside its trace, and rows in a plain tuple, would otherwise be JSON lists
        TraceEntry("sqrt_gate", "A_X=25/32", "c", "v"),
        (TraceEntry("s", "c", "k", "v"), TraceEntry("s2", "c2", "k2", "v2")),
    ])
    def test_values_no_command_emits_raise(self, value):
        with pytest.raises(TypeError):
            dumps_canonical(to_jsonable(value))


class TestApproxDecimal:
    @pytest.mark.parametrize("x, digits", [
        (Fraction(-25, 32), "-0.781250"),
        (Fraction(-2, 3), "-0.666666"),
        (7, "7.000000"),
        (Fraction(2, 3), "0.666666"),  # truncated, not rounded to 0.666667
        (Fraction(1, 10**7), "0.000000"),
    ])
    def test_six_truncated_places(self, x, digits):
        assert approx_decimal(x) == f"{digits} [approx, non-authoritative]"

