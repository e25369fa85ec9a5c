"""Canonical JSON emission: exact rationals as strings, deterministic bytes.

Identical input must produce byte-identical JSON, so keys are sorted, every
rational is serialized in lowest terms as "p/q" (or "p"), and containers are
converted to lists in a fixed order.  No decimal rendering happens here.

Serialization is two steps, each with one job, and each value goes through
each step once.  ``to_jsonable`` is the only place that knows engine types.
It dispatches on the exact type, and its domain is what the commands emit:
``str``, ``int``, ``bool``, ``None``, ``dict``, ``list``, ``tuple``,
``Fraction``, ``RatPoly``, ``RRPolynomial``, dataclass records and the
classifier's ``KillTrace``.  Anything else (a set, a float, a subclass of a
built-in type, a trace row) raises TypeError.  A tuple met twice in one call
(the q-options and Betti lists that the states of one A_X share) is converted
once, and the result is shared.  Each command converts its payload where it
builds it.  ``dumps_canonical`` writes plain JSON values and kill traces, and
knows nothing else: anything else (a tuple, a rational, a float, a key that
is not a ``str``, an engine object) raises TypeError.

``to_jsonable`` returns a ``KillTrace`` as it is, and ``dumps_canonical``
writes it as a list of objects, one per row, keyed by ``stage``,
``candidate``, ``constraint`` and ``value``.  ``_trace_json`` gives the trace
one template per stage, with the indent of where the trace sits, and the
trace fills it once per row from its integers.

Byte contract: for plain JSON values ``plain``, ``dumps_canonical(plain)`` is
exactly ``json.dumps(plain, sort_keys=True, indent=2) + "\\n"``, that is
ASCII only (``\\uXXXX`` escapes), keys sorted, two-space indent, ``",\\n"``
between items and ``": "`` after keys, ``{}`` and ``[]`` for empty
containers.  A kill trace is written as exactly that call writes its
expanded form, the list of ``row._asdict()`` dicts of the rows that
iterating it yields, and the empty trace as ``[]``.  The tests hold it to
that call as their oracle.  It is not made by that call because ``json``
runs its C encoder only without ``indent``, and with it every chunk passes
through nested Python generators.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .classifier import KillTrace
from .fujiki import RRPolynomial
from .rationals import RatPoly

#: Types whose values are returned as they are: JSON scalars, and kill traces, written as they are.
_LEAVES = frozenset({str, int, bool, type(None), KillTrace})

#: Field names per dataclass record, filled when ``to_jsonable`` first meets the type.
_FIELDS: dict[type, tuple[str, ...]] = {}


def to_jsonable(obj):
    """Plain JSON values for ``obj``; a type outside the domain raises TypeError."""
    return _plain(obj, {})


def _plain(obj, shared: dict):
    """``to_jsonable(obj)``; ``shared`` maps the id of each tuple converted in this call to
    (the tuple, its JSON), so a tuple met again is converted once and stays alive."""
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    if cls is dict:
        return {k: (v if type(v) in _LEAVES else _plain(v, shared)) for k, v in obj.items()}
    if cls is tuple:
        done = shared.get(id(obj))
        if done is None:
            done = shared[id(obj)] = (
                obj, [x if type(x) in _LEAVES else _plain(x, shared) for x in obj])
        return done[1]
    if cls is list:
        return [x if type(x) in _LEAVES else _plain(x, shared) for x in obj]
    if cls is Fraction:
        return str(obj)
    names = _FIELDS.get(cls)
    if names is None:
        if cls is RatPoly:
            return {"coeffs": [_plain(c, shared) for c in obj.coeffs], "pretty": obj.pretty()}
        if cls is RRPolynomial:
            return {"n": obj.n, "coeffs": [str(c) for c in obj.base.coeffs],
                    "pretty": obj.pretty()}
        if not dataclasses.is_dataclass(cls):
            raise TypeError(f"cannot serialize {cls!r}")
        names = _FIELDS[cls] = tuple(f.name for f in dataclasses.fields(cls))
    return {name: (v if type(v := getattr(obj, name)) in _LEAVES else _plain(v, shared))
            for name in names}


def dumps_canonical(plain) -> str:
    """The canonical JSON text of ``plain``, ending in a newline (see the byte contract)."""
    out: list[str] = []
    _emit(plain, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(value, out: list[str], newline: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line break and its indent.

    Only dicts and lists recurse; every leaf of a container is written in
    the loop that meets it, in one chunk with the separator and key before it.
    A kill trace gets one call to ``_trace_json``.
    """
    cls = type(value)
    if cls is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            item, head = value[key], sep + _quote(key) + ": "
            cls = type(item)
            if cls is str:
                out.append(head + _quote(item))
            elif cls is int:
                out.append(head + int.__repr__(item))
            elif cls is dict or cls is list or cls is KillTrace:
                out.append(head)
                _emit(item, out, inner)
            else:
                out.append(head + _leaf(item))
            sep = "," + inner
        out.append(newline + "}")
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            cls = type(item)
            if cls is str:
                out.append(sep + _quote(item))
            elif cls is int:
                out.append(sep + int.__repr__(item))
            elif cls is dict or cls is list or cls is KillTrace:
                out.append(sep)
                _emit(item, out, inner)
            else:
                out.append(sep + _leaf(item))
            sep = "," + inner
        out.append(newline + "]")
    elif cls is KillTrace:
        _trace_json(value, out, newline)
    else:
        out.append(_leaf(value))


def _trace_json(trace: KillTrace, out: list[str], newline: str) -> None:
    """Append the JSON text of ``trace``, a list at indent ``newline``: one template per stage.

    A row's object is its keys in sorted order (candidate, constraint, stage,
    value); the template holds everything but the candidate and the value,
    and the trace fills it once per row with their text inside the quotes.
    """
    inner = newline + "  "
    key = inner + "  "

    def row(stage: str, constraint: str) -> tuple[str, str, str]:
        return ("{" + key + '"candidate": "',
                '",' + key + '"constraint": ' + _quote(constraint) + "," + key + '"stage": '
                + _quote(stage) + "," + key + '"value": "',
                '"' + inner + "}")

    chunks = trace.chunks(row, lambda text: _quote(text)[1:-1], "," + inner)
    out += ("[" + inner, *chunks, newline + "]") if chunks else ("[]",)


def _leaf(value) -> str:
    """A JSON scalar: null, a boolean, or (at the top level only) a str or an int."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    cls = type(value)
    if cls is str:
        return _quote(value)
    if cls is int:
        return int.__repr__(value)
    raise TypeError(f"not a JSON value: {cls!r}")


def approx_decimal(x) -> str:
    """Non-authoritative decimal rendering for the --decimal flag.

    Computed by exact integer division and truncated to 6 places; never used
    in any verdict or serialized report.
    """
    f = Fraction(x)
    sign = "-" if f < 0 else ""
    int_part, frac_part = divmod(abs(f.numerator) * 10**6 // f.denominator, 10**6)
    return f"{sign}{int_part}.{frac_part:06d} [approx, non-authoritative]"
