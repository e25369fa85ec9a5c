"""Canonical JSON emission: exact rationals as strings, deterministic bytes.

Identical input must produce byte-identical JSON, so keys are sorted, every
rational is serialized in lowest terms as "p/q" (or "p"), and containers are
converted to lists in a fixed order.  No decimal rendering happens here.

Serialization is two steps, each with one job, and each value goes through
each step once.  ``to_jsonable`` is the only place that knows engine types:
it turns dataclasses, rationals, polynomials, sets and tuples into plain JSON
values (dicts with string keys, lists, strings, integers, booleans and
None).  Each command converts its payload where it builds it.
``dumps_canonical`` writes plain JSON values and knows nothing else: anything
else (a tuple, a rational, a float, an engine object) raises TypeError.

Byte contract: for plain JSON values ``plain``, ``dumps_canonical(plain)`` is
exactly ``json.dumps(plain, sort_keys=True, indent=2) + "\\n"``, that is
ASCII only (``\\uXXXX`` escapes), keys sorted, two-space indent, ``",\\n"``
between items and ``": "`` after keys, ``{}`` and ``[]`` for empty
containers.  The tests hold it to that call as their oracle.  It is not made
by that call because ``json`` runs its C encoder only without ``indent``, and
with it every chunk passes through nested Python generators.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .fujiki import RRPolynomial
from .rationals import RatPoly

#: Types whose values are already JSON and are returned as they are.
_LEAVES = frozenset({str, int, bool, type(None)})

#: Field names per dataclass, filled the first time an instance reaches the
#: dataclass branch of ``_to_jsonable_general``, so any type found here passed
#: every check before it.
_FIELDS: dict[type, tuple[str, ...]] = {}


def to_jsonable(obj):
    """Plain JSON values for ``obj``; floats and unknown types raise TypeError.

    The exact types met on every report are dispatched first; subclasses,
    sets, polynomials and errors take the general ``isinstance`` path.
    """
    cls = type(obj)
    if cls in _LEAVES:
        return obj
    if cls is dict:
        return {(k if type(k) is str else str(k)): (v if type(v) in _LEAVES else to_jsonable(v))
                for k, v in obj.items()}
    if cls is list or cls is tuple:
        return [x if type(x) in _LEAVES else to_jsonable(x) for x in obj]
    if cls is Fraction:
        return str(obj)
    names = _FIELDS.get(cls)
    if names is not None:
        return {name: (v if type(v := getattr(obj, name)) in _LEAVES else to_jsonable(v))
                for name in names}
    return _to_jsonable_general(obj)


def _to_jsonable_general(obj):
    """The ``isinstance`` chain: subclasses, polynomials, sets, a dataclass seen first, errors."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, RRPolynomial):
        return {
            "n": obj.n,
            "coeffs": [str(c) for c in obj.base.coeffs],
            "pretty": obj.pretty(),
        }
    if isinstance(obj, RatPoly):
        return {"coeffs": [to_jsonable(c) for c in obj.coeffs], "pretty": obj.pretty()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = _FIELDS[type(obj)] = tuple(f.name for f in dataclasses.fields(obj))
        return {name: to_jsonable(getattr(obj, name)) for name in names}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(plain) -> str:
    """The canonical JSON text of plain JSON values, ending in a newline (see the byte contract)."""
    out: list[str] = []
    _emit(plain, out, "\n")
    out.append("\n")
    return "".join(out)


def _emit(value, out: list[str], newline: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line break and its indent.

    Only dicts and lists recurse; every leaf of a container is written in
    the loop that meets it, in one chunk with the separator and key before it.
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
            elif cls is dict or cls is list:
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
            elif cls is dict or cls is list:
                out.append(sep)
                _emit(item, out, inner)
            else:
                out.append(sep + _leaf(item))
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(_leaf(value))


def _leaf(value) -> str:
    """A JSON scalar: booleans, null, and subclasses of str and int."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"not a JSON value: {type(value)!r}")


def approx_decimal(x, places: int = 6) -> str:
    """Non-authoritative decimal rendering for the --decimal flag.

    Computed by exact integer division and truncated; never used in any
    verdict or serialized report.
    """
    f = Fraction(x)
    sign = "-" if f < 0 else ""
    f = abs(f)
    scaled = (f.numerator * 10**places) // f.denominator
    int_part, frac_part = divmod(scaled, 10**places)
    return f"{sign}{int_part}.{str(frac_part).zfill(places)} [approx, non-authoritative]"
