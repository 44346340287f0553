import json

import pytest

from conftest import AMU, standard_raw
from gradchain.config import (
    ConfigError,
    MissingFieldError,
    OutOfRangeError,
    QuadraticField,
    SampledField,
    UniformGradientField,
    UnknownKeyError,
    load_config,
    validate_config,
)
from gradchain.constants import SPECIES_REGISTRY


def test_standard_config():
    cfg = validate_config(standard_raw(n=10))
    assert cfg.ion_count == 10
    assert cfg.axial_frequency_hz == 1.0e5
    # mass is 171 u exactly
    assert cfg.mass == pytest.approx(171.0 * AMU, rel=1e-12)
    assert cfg.mass == pytest.approx(2.8395e-25, rel=1e-4)
    assert isinstance(cfg.field, UniformGradientField)
    assert cfg.field.b == 10.0
    assert cfg.field.b0 == 0.0


def test_defaults():
    raw = {"species": "Yb171", "N": 2, "nu1": "100kHz", "field": {"uniform": {"b": "10T/m"}}}
    cfg = validate_config(raw)
    assert cfg.field.b0 == 0.0  # B0 defaults to zero
    assert cfg.drive_wavevector is None  # wavevector from the transition frequency
    # k = omega0 / c for the microwave transition
    assert cfg.wavevector() == pytest.approx(2 * 3.141592653589793 * 12.6e9 / 299792458.0, rel=1e-12)


def test_explicit_wavevector():
    raw = standard_raw()
    raw["drive_wavevector"] = {"explicit": 1.0e7}
    assert validate_config(raw).wavevector() == 1.0e7


def test_registry_species():
    yb = SPECIES_REGISTRY["Yb171"]
    assert yb.transition_frequency_hz == 12.6e9
    assert yb.moment_state0 == 0.0
    assert yb.moment_state1 == 1.0


def test_out_of_range_ion_count():
    raw = standard_raw()
    raw["N"] = 0
    with pytest.raises(OutOfRangeError):
        validate_config(raw)
    raw["N"] = 51
    with pytest.raises(OutOfRangeError):
        validate_config(raw)


def test_unknown_species():
    raw = standard_raw()
    raw["species"] = "Xx999"
    with pytest.raises(ConfigError, match=r"^unknown species 'Xx999' \(known: Yb171\)$"):
        validate_config(raw)


def test_missing_field_names_path():
    raw = standard_raw()
    del raw["nu1"]
    with pytest.raises(MissingFieldError) as err:
        validate_config(raw)
    assert "nu1" in str(err.value)


def test_unknown_key_rejected():
    raw = standard_raw()
    raw["nu2"] = "1kHz"
    with pytest.raises(UnknownKeyError) as err:
        validate_config(raw)
    assert "nu2" in str(err.value)


def test_unknown_nested_key_rejected():
    raw = standard_raw()
    raw["field"]["uniform"]["b1"] = 1.0
    with pytest.raises(UnknownKeyError):
        validate_config(raw)


def test_wrong_dimension_rejected():
    raw = standard_raw(nu1="10T/m")
    with pytest.raises(OutOfRangeError):
        validate_config(raw)


def test_negative_frequency_rejected():
    raw = standard_raw(nu1="-100kHz")
    with pytest.raises(OutOfRangeError):
        validate_config(raw)


def test_non_finite_quantity_rejected():
    with pytest.raises(OutOfRangeError):
        validate_config(standard_raw(nu1="1e308kHz"))
    with pytest.raises(OutOfRangeError):
        validate_config(standard_raw(b="1e400T/m"))
    for bad in (float("nan"), float("inf")):  # json.load reads NaN and Infinity
        with pytest.raises(OutOfRangeError, match="quadratic.c"):
            validate_config(standard_raw() | {"field": {"quadratic": {"b": "1T/m", "c": bad}}})
        with pytest.raises(OutOfRangeError, match="drive_wavevector"):
            validate_config(standard_raw() | {"drive_wavevector": {"explicit": bad}})


def test_quadratic_field():
    raw = standard_raw()
    raw["field"] = {"quadratic": {"B0": 0.0, "b": "5T/m", "c": 1000.0}}
    cfg = validate_config(raw)
    assert isinstance(cfg.field, QuadraticField)
    assert cfg.field.gradient_at(0.0) == 5.0
    assert cfg.field.gradient_at(1e-3) == pytest.approx(5.0 + 2.0, rel=1e-12)
    assert cfg.field.field_at(2e-3) == pytest.approx(5.0 * 2e-3 + 1000.0 * 4e-6, rel=1e-12)


def test_sampled_field_interpolation():
    field = SampledField(points=((-1e-4, 0.0), (0.0, 1e-3), (1e-4, 3e-3)))
    assert field.field_at(-5e-5) == pytest.approx(0.5e-3)
    assert field.gradient_at(-5e-5) == pytest.approx(1e-3 / 1e-4)
    # a point exactly on an interior sample uses the right-hand segment
    assert field.gradient_at(0.0) == pytest.approx(2e-3 / 1e-4)
    # the last sample belongs to the final segment
    assert field.gradient_at(1e-4) == pytest.approx(2e-3 / 1e-4)


def test_sampled_field_out_of_range():
    field = SampledField(points=((-1e-4, 0.0), (1e-4, 1e-3)))
    with pytest.raises(ConfigError, match=r"^position z=0\.0002 m outside sampled profile range \[-0\.0001, 0\.0001\] m$"):
        field.field_at(2e-4)


def test_sampled_field_needs_increasing_points():
    with pytest.raises(OutOfRangeError):
        SampledField(points=((0.0, 0.0), (0.0, 1.0)))
    with pytest.raises(OutOfRangeError):
        SampledField(points=((1e-4, 0.0),))


def test_validate_is_deterministic_and_pure():
    raw = standard_raw(n=5)
    snapshot = json.dumps(raw, sort_keys=True)
    a = validate_config(raw)
    b = validate_config(raw)
    assert a == b
    assert json.dumps(raw, sort_keys=True) == snapshot  # input untouched


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(standard_raw(n=3)), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.ion_count == 3
    # the file round-trips to the config of the document written into it
    assert cfg == validate_config(standard_raw(n=3))
