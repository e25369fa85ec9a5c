"""Canonical JSON emission: exact rationals as strings, deterministic bytes.

Identical input must produce byte-identical JSON, so keys are sorted, every
rational is serialized in lowest terms as "p/q" (or "p"), and containers are
converted to lists in a fixed order.  No decimal rendering happens here.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

from .fujiki import RRPolynomial
from .rationals import RatPoly


def to_jsonable(obj):
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
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (frozenset, set)):
        return [to_jsonable(x) for x in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_canonical(obj) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


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
