"""Validated trap configuration: species, chain size, trap frequency, field profile.

Configs are JSON documents. Quantity-valued entries are JSON numbers (SI)
or strings of units.read_value: "100kHz", or "1e5" meaning SI; `c` and an
explicit wavevector take a bare SI number, as a JSON number or a numeric
string; no unit. Unknown keys are rejected outright: a silently ignored
typo in a physics config produces plausible-looking wrong numbers.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Collection
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import CONSTANTS, SPECIES_REGISTRY, Species
from .units import FIELD, FREQUENCY, GRADIENT, LENGTH, QuantityError, read_integer, read_value

MAX_IONS = 50


class ConfigError(ValueError):
    """A config that cannot be read or validated.

    Raised as itself for a foreign or a missing key, an unknown species and
    a position outside a sampled profile, and by the file readers
    (read_text, read_document); OutOfRangeError, for a value that is wrong
    where it stands, is its one subclass.
    """


class OutOfRangeError(ConfigError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"field {path}: {detail}")


def _horner(coefficients: tuple[float, ...], z: np.ndarray) -> np.ndarray:
    value = np.full(z.shape, coefficients[-1])
    for a in reversed(coefficients[:-1]):
        value = a + value * z
    return value


@dataclass(frozen=True)
class PolynomialField:
    """B(z) = B0 + b z (+ c z^2) along the trap axis; coefficients lowest order first, in T, T/m, T/m^2."""

    coefficients: tuple[float, ...]

    def at(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B and dB/dz at each position of the 1-D array `z` (m)."""
        # a uniform field's gradient is b itself, never b + 0 z: padding c = 0 would turn b = -0.0 into +0.0 at z >= 0
        derivative = tuple(k * a for k, a in enumerate(self.coefficients) if k)
        return _horner(self.coefficients, z), _horner(derivative, z)


@dataclass(frozen=True)
class SampledField:
    """Piecewise-linear B(z) through sample points strictly increasing in z.

    The gradient at a point is the slope of the containing segment; a
    position exactly on an interior sample uses the right-hand segment.
    """

    points: tuple[tuple[float, float], ...]  # (z m, B T)

    def __post_init__(self):
        if len(self.points) < 2:
            raise OutOfRangeError("field.sampled.points", "need at least 2 points")
        zs = [z for z, _ in self.points]
        if any(b <= a for a, b in zip(zs, zs[1:])):
            raise OutOfRangeError("field.sampled.points", "z values must be strictly increasing")

    def at(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """B and dB/dz at each position of the 1-D array `z` (m); ConfigError names the first outside the samples."""
        zs, bs = np.array(self.points).T
        outside = (z < zs[0]) | (z > zs[-1])
        if outside.any():
            raise ConfigError(f"position z={z[outside][0]:.6g} m outside sampled profile range "
                              f"[{zs[0]:.6g}, {zs[-1]:.6g}] m")
        # right-hand segment on ties; the last point belongs to the final segment
        end = np.minimum(np.searchsorted(zs, z, side="right"), len(zs) - 1)
        z0, b0, z1, b1 = zs[end - 1], bs[end - 1], zs[end], bs[end]
        return b0 + (b1 - b0) * (z - z0) / (z1 - z0), (b1 - b0) / (z1 - z0)


FieldProfile = PolynomialField | SampledField


FROM_TRANSITION = "from_transition"


@dataclass(frozen=True)
class TrapConfig:
    """Single source of physical truth for one simulated trap.

    axial_frequency_hz is the ordinary trap frequency as configured; all
    internal computations use the angular value, exposed as nu1.
    """

    species: Species
    ion_count: int
    axial_frequency_hz: float
    field: FieldProfile
    drive_wavevector: float  # k, rad/m: omega0/c unless the config sets it explicitly

    @property
    def nu1(self) -> float:
        """Axial trap frequency in rad/s."""
        return 2.0 * math.pi * self.axial_frequency_hz


def _quantity(raw, path: str, dimension: str) -> float:
    """Accept a number (SI) or a string that units.read_value takes as `dimension`."""
    if isinstance(raw, bool):
        raise OutOfRangeError(path, f"expected a quantity, got {raw!r}")
    if isinstance(raw, int) and abs(raw) > sys.float_info.max:
        raise OutOfRangeError(path, "integer is beyond the range of a double")
    if isinstance(raw, (int, float)):
        if not math.isfinite(raw):
            raise OutOfRangeError(path, f"value must be finite, got {raw!r}")
        return float(raw)
    if isinstance(raw, str):
        try:
            return read_value(raw, dimension)
        except QuantityError as exc:
            raise OutOfRangeError(path, str(exc)) from exc
    raise OutOfRangeError(path, f"expected a quantity, got {type(raw).__name__}")


def _object(raw, path: str, keys: Collection[str], required: Collection[str] = ()) -> dict:
    """`raw`, checked as the JSON object at `path`: its type, then any key not in `keys`, then each of `required`.

    The `path` "" is the document itself, whose type validate_config checks first, with a message of its own.
    """
    prefix = path and path + "."
    if not isinstance(raw, dict):
        raise OutOfRangeError(path, "expected an object")
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key: {prefix}{key} (allowed: {', '.join(sorted(keys))})")
    for key in required:
        if key not in raw:
            raise ConfigError(f"missing required field: {prefix}{key}")
    return raw


# variant -> its keys in coefficient order with their dimensions; B0 defaults to 0 T, the rest are required
_ANALYTIC_FIELDS = {
    "uniform": {"B0": FIELD, "b": GRADIENT},
    "quadratic": {"B0": FIELD, "b": GRADIENT, "c": "curvature in T/m^2"},  # no unit carries c
}


def _parse_field(raw, path: str = "field") -> FieldProfile:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise OutOfRangeError(path, "expected exactly one of: uniform, quadratic, sampled")
    (variant, body), = _object(raw, path, (*_ANALYTIC_FIELDS, "sampled")).items()
    path = f"{path}.{variant}"
    if variant in _ANALYTIC_FIELDS:
        dimensions = _ANALYTIC_FIELDS[variant]
        body = _object(body, path, dimensions, [key for key in dimensions if key != "B0"])
        return PolynomialField(tuple(_quantity(body.get(key, 0.0), f"{path}.{key}", dimension)
                                     for key, dimension in dimensions.items()))
    pts = _object(body, path, ("points",), ("points",))["points"]
    if not isinstance(pts, list):
        raise OutOfRangeError(f"{path}.points", "expected a list of [z, B] pairs")
    parsed = []
    for i, pair in enumerate(pts):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise OutOfRangeError(f"{path}.points[{i}]", "expected a [z, B] pair")
        parsed.append((
            _quantity(pair[0], f"{path}.points[{i}].z", LENGTH),
            _quantity(pair[1], f"{path}.points[{i}].B", FIELD),
        ))
    return SampledField(points=tuple(parsed))


def validate_config(raw: dict) -> TrapConfig:
    """Validate a parsed config document and build a TrapConfig.

    Deterministic and side-effect free. Defaults: B0 = 0 when omitted,
    drive wavevector omega0/c of the qubit transition.
    """
    if not isinstance(raw, dict):
        raise OutOfRangeError("<root>", "config document must be a JSON object")
    _object(raw, "", ("species", "N", "nu1", "field", "drive_wavevector", "comment"),
            required=("species", "N", "nu1", "field"))

    name = raw["species"]
    if not isinstance(name, str):
        raise OutOfRangeError("species", "expected a species name string")
    if name not in SPECIES_REGISTRY:
        raise ConfigError(f"unknown species {name!r} (known: {', '.join(sorted(SPECIES_REGISTRY))})")
    species = SPECIES_REGISTRY[name]

    n = raw["N"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise OutOfRangeError("N", f"ion count must be an integer, got {n!r}")
    if not 1 <= n <= MAX_IONS:
        raise OutOfRangeError("N", f"ion count must be in [1, {MAX_IONS}], got {n}")

    nu1_hz = _quantity(raw["nu1"], "nu1", FREQUENCY)
    if nu1_hz <= 0:
        raise OutOfRangeError("nu1", f"axial frequency must be positive, got {nu1_hz}")

    profile = _parse_field(raw["field"])

    k = species.omega0 / CONSTANTS.speed_of_light
    dw = raw.get("drive_wavevector", FROM_TRANSITION)
    if isinstance(dw, dict):
        explicit = _object(dw, "drive_wavevector", ("explicit",), ("explicit",))["explicit"]
        k = _quantity(explicit, "drive_wavevector.explicit", "wavevector in rad/m")
        if k <= 0:
            raise OutOfRangeError("drive_wavevector.explicit", f"wavevector must be positive, got {k}")
    elif dw != FROM_TRANSITION:
        raise OutOfRangeError("drive_wavevector", f"expected {FROM_TRANSITION!r} or {{'explicit': k}}, got {dw!r}")

    return TrapConfig(
        species=species,
        ion_count=n,
        axial_frequency_hz=nu1_hz,
        field=profile,
        drive_wavevector=k,
    )


def read_text(path) -> str:
    """An input file's text: UTF-8, a leading byte order mark dropped; other bytes are a ConfigError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc


def read_document(path):
    """A config file's JSON, from read_text, or a ConfigError naming the path: invalid JSON, a repeated key,
    nesting past the recursion limit or an integer past int's digit limit."""
    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"{path}: duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        return json.loads(read_text(path), object_pairs_hook=unique_keys, parse_int=read_integer)
    except ConfigError:
        raise  # not UTF-8 or a repeated key; it names the path already
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        raise ConfigError(f"{path}: JSON past the parser's limits: {exc}") from exc


def load_config(path) -> TrapConfig:
    """Read and validate a config file."""
    return validate_config(read_document(path))
