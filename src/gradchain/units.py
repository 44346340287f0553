"""The one reader of typed numbers: quantities like "100kHz" or "0.5pi", bare SI numbers, integers.

Config strings, program tokens, sweep bounds and integer flags all go
through read_value or read_integer (the `quantity`, `number` and `integer`
rules of docs/pulse_program.ebnf); callers add only their context to the
QuantityError. The unit set is deliberately closed: frequencies (ordinary,
not angular), times, magnetic fields, field gradients, lengths and angles.
Frequencies parse to ordinary Hz; conversion to angular frequency happens
in the operations whose contract requires it, never here.
"""

from __future__ import annotations

import math
import re
import sys

FREQUENCY = "frequency"
TIME = "time"
FIELD = "field"
GRADIENT = "gradient"
LENGTH = "length"
ANGLE = "angle-rad"

# unit -> (SI multiplier, dimension tag)
_UNITS: dict[str, tuple[float, str]] = {
    "Hz": (1.0, FREQUENCY),
    "kHz": (1e3, FREQUENCY),
    "MHz": (1e6, FREQUENCY),
    "GHz": (1e9, FREQUENCY),
    "s": (1.0, TIME),
    "ms": (1e-3, TIME),
    "us": (1e-6, TIME),
    "T": (1.0, FIELD),
    "T/m": (1.0, GRADIENT),
    "m": (1.0, LENGTH),
    "um": (1e-6, LENGTH),
    "nm": (1e-9, LENGTH),
    "deg": (math.pi / 180.0, ANGLE),
    "rad": (1.0, ANGLE),
    "pi": (math.pi, ANGLE),
}

# the `number` rule of docs/pulse_program.ebnf: ASCII digits only, no `_` separators
NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
INTEGER_RE = re.compile(r"[+-]?[0-9]+")  # the `integer` rule


class QuantityError(ValueError):
    """A number or quantity text that is malformed, has an unknown unit or the wrong dimension, or is not finite."""


def parse_quantity(text: str) -> tuple[float, str]:
    """Parse "<number><unit>" into an SI value and a dimension tag.

    >>> parse_quantity("100kHz")
    (100000.0, 'frequency')
    >>> parse_quantity("0.5pi")[1]
    'angle-rad'
    """
    stripped = text.strip()
    m = NUMBER_RE.match(stripped)
    if m is None:
        raise QuantityError(f"malformed number in quantity: {stripped!r}")
    unit = stripped[m.end():].strip()
    if unit not in _UNITS:
        raise QuantityError(f"unknown unit {unit!r} (known: {', '.join(sorted(_UNITS))})")
    scale, dim = _UNITS[unit]
    value = float(m.group(0)) * scale
    if not math.isfinite(value):
        raise QuantityError(f"quantity {stripped!r} is not a finite number")
    return value, dim


def read_value(text: str, dimension: str | None = None) -> float:
    """The finite SI value of a bare number (SI in `dimension`) or of a quantity of `dimension`; None takes any."""
    value, dim = (float(text), dimension) if NUMBER_RE.fullmatch(text.strip()) else parse_quantity(text)
    if dimension is not None and dim != dimension:
        raise QuantityError(f"expected {dimension}, got {dim} ({text!r})")
    if not math.isfinite(value):
        raise QuantityError(f"quantity {text.strip()!r} is not a finite number")
    return value


def read_integer(text: str, what: str = "integer") -> int:
    """`text` as an int if it is all of the `integer` rule and within int's digit limit; `what` names it in errors."""
    if not INTEGER_RE.fullmatch(text):
        raise QuantityError(f"expected an {what}, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise QuantityError(f"expected an {what} of at most {sys.get_int_max_str_digits()} digits, "
                            f"got {len(text.lstrip('+-'))} digits") from None
