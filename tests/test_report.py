"""Canonical JSON: the emitter against ``json.dumps(sort_keys=True, indent=2)``.

``ref`` is a test-only conversion over the domain the commands emit (exact
built-in types, rationals, polynomials, dataclass records and trace tables,
with string keys); it and ``json.dumps`` are the oracle for ``to_jsonable``
and for ``dumps_canonical``, which takes plain JSON values only and so is fed
``to_jsonable(x)``.  ``to_jsonable`` returns a table as it is, so ``expand``
turns its tables into the list of row dicts that ``ref`` makes and that the
table's bytes are held to.  Outside that domain both sides raise TypeError.
"""

import dataclasses
import enum
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hk4.classifier import ClassifierState, QOption, TraceEntry, classify
from hk4.fujiki import RRPolynomial, rr_from_cx_ax, rr_lagrangian_form
from hk4.ledger import chi_table
from hk4.rationals import RatPoly
from hk4.report import Table, approx_decimal, dumps_canonical, to_jsonable


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
    if kind is Table:
        return [{name: ref(cell) for name, cell in row._asdict().items()} for row in obj]
    if dataclasses.is_dataclass(kind):
        return {f.name: ref(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {kind!r}")


def oracle(obj) -> str:
    return json.dumps(ref(obj), sort_keys=True, indent=2) + "\n"


def expand(plain):
    """Plain values with each table replaced by its list of row dicts, as ``ref`` writes it."""
    kind = type(plain)
    if kind is Table:
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
#: Trace tables of 0..5 rows, each cell adversarial text.
TABLE = st.lists(st.builds(TraceEntry, TEXT, TEXT, TEXT, TEXT), max_size=5).map(Table)
ENGINE = (
    TABLE
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
        Table(), {"t": Table()}, [Table(), Table()],
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

    def test_the_trace_is_a_table_returned_as_it_is(self):
        table = classify(4).trace
        assert type(table) is Table and to_jsonable(table) is table

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
        # a row outside its table, and rows in a plain tuple, would otherwise be JSON lists
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

