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

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


class QuantityError(ValueError):
    """Base for quantity parse failures; carries the offending substring."""

    def __init__(self, message: str, offending: str):
        super().__init__(message)
        self.offending = offending


class MalformedNumberError(QuantityError):
    def __init__(self, offending: str):
        super().__init__(f"malformed number in quantity: {offending!r}", offending)


class UnknownUnitError(QuantityError):
    def __init__(self, offending: str):
        known = ", ".join(sorted(_UNITS))
        super().__init__(f"unknown unit {offending!r} (known: {known})", offending)


def parse_quantity(text: str) -> tuple[float, str]:
    """Parse "<number><unit>" into an SI value and a dimension tag.

    >>> parse_quantity("100kHz")
    (100000.0, 'frequency')
    >>> parse_quantity("0.5pi")[1]
    'angle-rad'
    """
    stripped = text.strip()
    m = _NUMBER_RE.match(stripped)
    if m is None:
        raise MalformedNumberError(stripped)
    unit = stripped[m.end():].strip()
    if unit not in _UNITS:
        raise UnknownUnitError(unit)
    scale, dim = _UNITS[unit]
    value = float(m.group(0)) * scale
    if not math.isfinite(value):
        raise QuantityError(f"quantity {stripped!r} is not a finite number", stripped)
    return value, dim
