"""Parsing of dimensioned quantities like "100kHz" or "0.5pi".

The unit set is deliberately closed: frequencies (ordinary, not angular),
times, magnetic fields, field gradients, lengths and angles. Frequencies
parse to ordinary Hz; conversion to angular frequency happens in the
operations whose contract requires it, never here.
"""

from __future__ import annotations

import math
import re

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


class QuantityError(ValueError):
    """A quantity string that is malformed, has an unknown unit or is not finite."""


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
