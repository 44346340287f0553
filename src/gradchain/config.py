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
from dataclasses import dataclass

from .constants import CONSTANTS, SPECIES_REGISTRY, Species
from .units import FREQUENCY, QuantityError, read_value

MAX_IONS = 50


class ConfigError(ValueError):
    """Base class for configuration validation failures."""


class MissingFieldError(ConfigError):
    def __init__(self, path: str):
        super().__init__(f"missing required field: {path}")


class OutOfRangeError(ConfigError):
    def __init__(self, path: str, detail: str):
        super().__init__(f"field {path}: {detail}")


class UnknownKeyError(ConfigError):
    def __init__(self, path: str, allowed):
        super().__init__(f"unknown key: {path} (allowed: {', '.join(sorted(allowed))})")


@dataclass(frozen=True)
class UniformGradientField:
    """B(z) = B0 + b z along the trap axis."""

    b0: float  # T
    b: float   # T/m

    def field_at(self, z: float) -> float:
        return self.b0 + self.b * z

    def gradient_at(self, z: float) -> float:
        return self.b


@dataclass(frozen=True)
class QuadraticField:
    """B(z) = B0 + b z + c z^2."""

    b0: float  # T
    b: float   # T/m
    c: float   # T/m^2

    def field_at(self, z: float) -> float:
        return self.b0 + (self.b + self.c * z) * z

    def gradient_at(self, z: float) -> float:
        return self.b + 2.0 * self.c * z


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

    def _segment(self, z: float) -> int:
        zs = [p[0] for p in self.points]
        if z < zs[0] or z > zs[-1]:
            raise ConfigError(f"position z={z:.6g} m outside sampled profile range [{zs[0]:.6g}, {zs[-1]:.6g}] m")
        # right-hand segment on ties; the last point belongs to the final segment
        for i in range(len(zs) - 1):
            if zs[i] <= z < zs[i + 1]:
                return i
        return len(zs) - 2

    def field_at(self, z: float) -> float:
        i = self._segment(z)
        (z0, b0), (z1, b1) = self.points[i], self.points[i + 1]
        return b0 + (b1 - b0) * (z - z0) / (z1 - z0)

    def gradient_at(self, z: float) -> float:
        i = self._segment(z)
        (z0, b0), (z1, b1) = self.points[i], self.points[i + 1]
        return (b1 - b0) / (z1 - z0)


FieldProfile = UniformGradientField | QuadraticField | SampledField


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
    drive_wavevector: float | None = None  # rad/m; None = derive from transition

    @property
    def nu1(self) -> float:
        """Axial trap frequency in rad/s."""
        return 2.0 * math.pi * self.axial_frequency_hz

    @property
    def mass(self) -> float:
        return self.species.mass

    def wavevector(self) -> float:
        """Drive wavevector k in rad/m (omega0/c unless set explicitly)."""
        if self.drive_wavevector is not None:
            return self.drive_wavevector
        return self.species.omega0 / CONSTANTS.speed_of_light


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


def _check_keys(doc: dict, allowed: set[str], prefix: str = "") -> None:
    for key in doc:
        if key not in allowed:
            raise UnknownKeyError(prefix + key, allowed)


def _parse_field(raw, path: str = "field") -> FieldProfile:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise OutOfRangeError(path, "expected exactly one of: uniform, quadratic, sampled")
    (variant, body), = raw.items()
    if not isinstance(body, dict):
        raise OutOfRangeError(f"{path}.{variant}", "expected an object")
    if variant == "uniform":
        _check_keys(body, {"B0", "b"}, f"{path}.uniform.")
        if "b" not in body:
            raise MissingFieldError(f"{path}.uniform.b")
        return UniformGradientField(
            b0=_quantity(body.get("B0", 0.0), f"{path}.uniform.B0", "field"),
            b=_quantity(body["b"], f"{path}.uniform.b", "gradient"),
        )
    if variant == "quadratic":
        _check_keys(body, {"B0", "b", "c"}, f"{path}.quadratic.")
        for key in ("b", "c"):
            if key not in body:
                raise MissingFieldError(f"{path}.quadratic.{key}")
        return QuadraticField(
            b0=_quantity(body.get("B0", 0.0), f"{path}.quadratic.B0", "field"),
            b=_quantity(body["b"], f"{path}.quadratic.b", "gradient"),
            c=_quantity(body["c"], f"{path}.quadratic.c", "curvature in T/m^2"),  # no unit carries it
        )
    if variant == "sampled":
        _check_keys(body, {"points"}, f"{path}.sampled.")
        if "points" not in body:
            raise MissingFieldError(f"{path}.sampled.points")
        pts = body["points"]
        if not isinstance(pts, list):
            raise OutOfRangeError(f"{path}.sampled.points", "expected a list of [z, B] pairs")
        parsed = []
        for i, pair in enumerate(pts):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise OutOfRangeError(f"{path}.sampled.points[{i}]", "expected a [z, B] pair")
            parsed.append((
                _quantity(pair[0], f"{path}.sampled.points[{i}].z", "length"),
                _quantity(pair[1], f"{path}.sampled.points[{i}].B", "field"),
            ))
        return SampledField(points=tuple(parsed))
    raise UnknownKeyError(f"{path}.{variant}", {"uniform", "quadratic", "sampled"})


def validate_config(raw: dict) -> TrapConfig:
    """Validate a parsed config document and build a TrapConfig.

    Deterministic and side-effect free. Defaults: B0 = 0 when omitted,
    drive wavevector derived from the qubit transition frequency.
    """
    if not isinstance(raw, dict):
        raise OutOfRangeError("<root>", "config document must be a JSON object")
    _check_keys(raw, {"species", "N", "nu1", "field", "drive_wavevector", "comment"})

    for key in ("species", "N", "nu1", "field"):
        if key not in raw:
            raise MissingFieldError(key)

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

    k = None
    dw = raw.get("drive_wavevector", FROM_TRANSITION)
    if isinstance(dw, dict):
        _check_keys(dw, {"explicit"}, "drive_wavevector.")
        if "explicit" not in dw:
            raise MissingFieldError("drive_wavevector.explicit")
        k = _quantity(dw["explicit"], "drive_wavevector.explicit", "wavevector in rad/m")
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


def read_document(path):
    """Parse a config file's JSON; a file that is not UTF-8 JSON is a ConfigError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def load_config(path) -> TrapConfig:
    """Read and validate a config file."""
    return validate_config(read_document(path))
