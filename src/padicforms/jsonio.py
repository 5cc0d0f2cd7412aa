"""JSON codecs: rationals as decimal strings, never floats."""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cyclotomic import CyclotomicElement
from .padic import Padic

Q = Fraction
_CHUNK = 10 ** 600  # str() converts up to 640 digits under the least limit it allows


def int_to_str(n: int) -> str:
    """Decimal text of an integer of any length; str() alone refuses more than
    sys.get_int_max_str_digits() digits, a guard that input parsing keeps."""
    if n < 0:
        return "-" + int_to_str(-n)
    chunks = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        chunks.append(str(r).zfill(600))
    return str(n) + "".join(reversed(chunks))


def rational_to_json(x: Fraction | int) -> dict:
    x = Q(x)
    return {"num": int_to_str(x.numerator), "den": int_to_str(x.denominator)}


def rational_from_json(obj: dict | str) -> Fraction:
    if isinstance(obj, str):
        return Q(obj)
    return Q(int(obj["num"]), int(obj["den"]))


def rational_to_str(x: Fraction | int) -> str:
    x = Q(x)
    num = int_to_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{int_to_str(x.denominator)}"


def cyclotomic_to_json(x: CyclotomicElement) -> dict:
    return {"m": x.m, "coords": [rational_to_str(c) for c in x.coords]}


def cyclotomic_from_json(obj: dict) -> CyclotomicElement:
    return CyclotomicElement(int(obj["m"]), [Q(c) for c in obj["coords"]])


def value_to_json(x: Any) -> Any:
    if isinstance(x, Padic):
        return x.to_json()
    if isinstance(x, CyclotomicElement):
        return cyclotomic_to_json(x)
    if isinstance(x, (Fraction, int)):
        return rational_to_json(x)
    return x


def dumps(obj: Any) -> str:
    """Deterministic compact JSON: stable insertion order, no whitespace drift."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)
