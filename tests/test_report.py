"""Canonical JSON: the emitter against ``json.dumps(sort_keys=True, indent=2)``.

``ref`` is the plain ``isinstance`` chain ``to_jsonable`` used before it
dispatched on exact types first; it and ``json.dumps`` are the oracle for
``to_jsonable`` and for ``dumps_canonical``, which takes plain JSON values
only and so is fed ``to_jsonable(x)``.
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
from hk4.report import dumps_canonical, to_jsonable


def ref(obj):
    """Test-only copy of the isinstance-chain conversion."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RRPolynomial):
        return {"n": obj.n, "coeffs": [str(c) for c in obj.base.coeffs], "pretty": obj.pretty()}
    if isinstance(obj, RatPoly):
        return {"coeffs": [ref(c) for c in obj.coeffs], "pretty": obj.pretty()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: ref(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): ref(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return [ref(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [ref(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def oracle(obj) -> str:
    return json.dumps(ref(obj), sort_keys=True, indent=2) + "\n"


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
SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(-2, 2) | TEXT | RATIONAL
          | st.builds(Text, TEXT) | st.builds(Count, st.integers()) | st.sampled_from(list(Level)))
#: Keys that collide once made strings: 1 and "1", True and "True", None and "None".
KEY = st.sampled_from([1, "1", True, "True", None, "None", 0, "0", Fraction(1, 2), "1/2"]) | TEXT
POLY = st.builds(RatPoly, st.lists(RATIONAL, max_size=4))
RR = (st.builds(rr_lagrangian_form, st.integers(1, 4), st.integers(-2, 3), st.integers(1, 3),
                st.integers(-3, 3))
      | st.builds(lambda c_ax: rr_from_cx_ax(*c_ax),  # the pairs with a rational root
                  st.sampled_from([(3, Fraction(25, 32)), (9, Fraction(27, 32)),
                                   (Fraction(1, 2), Fraction(3, 4))])))
ENGINE = (
    st.builds(TraceEntry, TEXT, TEXT, TEXT, TEXT)
    | st.builds(ClassifierState, st.integers(1, 50), RATIONAL, RATIONAL, RATIONAL, RATIONAL,
                RATIONAL)
    | st.builds(QOption, st.integers(1, 4), RATIONAL, st.sampled_from(["EVEN", "UNCONSTRAINED"]),
                RR)
    | POLY
    | RR
)
SETS = (st.frozensets(st.integers(-5, 5) | RATIONAL, max_size=4)
        | st.sets(TEXT, max_size=4)
        | st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))


def nested(leaves):
    return st.recursive(
        leaves,
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(KEY, children, max_size=4)
                          | st.builds(Pair, children, children)),
        max_leaves=25,
    )


VALUES = nested(SCALAR | ENGINE | SETS)


class TestAgainstTheJsonDumpsOracle:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    def test_same_value_and_same_bytes(self, value):
        assert to_jsonable(value) == ref(value)
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
    ])
    def test_edge_values(self, value):
        assert to_jsonable(value) == ref(value)
        assert dumps_canonical(to_jsonable(value)) == oracle(value)

    @pytest.mark.parametrize("a", [1, 3, 4, 36])
    def test_case_reports(self, a):
        case = classify(a)
        assert to_jsonable(case) == ref(case)
        assert dumps_canonical(to_jsonable(case)) == oracle(case)

    def test_ledger(self):
        table = chi_table()
        assert dumps_canonical(to_jsonable(table)) == oracle(table)

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
        (1, 2), Fraction(1, 2), {"k": (1,)}, [{1: "int key"}], {"k": {"1/2", "3"}}, [chi_table()],
    ])
    def test_dumps_takes_plain_json_only(self, value):
        # values to_jsonable would convert are not converted a second time here
        to_jsonable(value)
        with pytest.raises(TypeError):
            dumps_canonical(value)

