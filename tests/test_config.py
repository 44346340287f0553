import json
import random
import re
import struct

import pytest

from conftest import AMU, standard_raw
from gradchain.config import (
    ConfigError,
    OutOfRangeError,
    PolynomialField,
    SampledField,
    load_config,
    validate_config,
)
from gradchain.constants import SPECIES_REGISTRY, Species


def test_standard_config():
    cfg = validate_config(standard_raw(n=10))
    assert cfg.ion_count == 10
    assert cfg.axial_frequency_hz == 1.0e5
    # mass is 171 u exactly
    assert cfg.species.mass == pytest.approx(171.0 * AMU, rel=1e-12)
    assert cfg.species.mass == pytest.approx(2.8395e-25, rel=1e-4)
    assert cfg.field == PolynomialField((0.0, 10.0))


def test_defaults():
    raw = {"species": "Yb171", "N": 2, "nu1": "100kHz", "field": {"uniform": {"b": "10T/m"}}}
    cfg = validate_config(raw)
    assert cfg.field.coefficients == (0.0, 10.0)  # B0 defaults to zero
    # the wavevector, resolved at validation, is omega0 / c of the microwave transition
    assert cfg.drive_wavevector == pytest.approx(2 * 3.141592653589793 * 12.6e9 / 299792458.0, rel=1e-12)


def test_explicit_wavevector():
    raw = standard_raw()
    raw["drive_wavevector"] = {"explicit": 1.0e7}
    assert validate_config(raw).drive_wavevector == 1.0e7


def test_registry_species():
    yb = SPECIES_REGISTRY["Yb171"]
    assert yb.transition_frequency_hz == 12.6e9
    assert yb.moment_state0 == 0.0
    assert yb.moment_state1 == 1.0


@pytest.mark.parametrize("mass, frequency, message", [
    (0.0, 12.6e9, "mass must be positive"),
    (171.0 * AMU, -12.6e9, "transition frequency must be positive"),
], ids=["mass", "frequency"])
def test_species_rejects_non_positive_mass_and_frequency(mass, frequency, message):
    with pytest.raises(ValueError, match=f"^species Xx: {message}$"):
        Species("Xx", mass, frequency, moment_state0=0.0, moment_state1=1.0)


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
    with pytest.raises(ConfigError, match=r"^missing required field: nu1$"):
        validate_config(raw)


def test_unknown_key_rejected():
    raw = standard_raw()
    raw["nu2"] = "1kHz"
    with pytest.raises(ConfigError, match=r"^unknown key: nu2 \(allowed: N, comment, drive_wavevector, field, nu1, "
                                          r"species\)$"):
        validate_config(raw)


@pytest.mark.parametrize("old, new, key", [
    ('"N": 2', '"N": 2, "N": 50', "N"),
    ('"b": "10T/m"', '"b": "20T/m", "b": "0T/m"', "b"),
], ids=["top_level", "nested"])
def test_repeated_key_rejected(tmp_path, old, new, key):
    # json.load keeps a repeated key's last value, a wrong number as silent as an ignored typo
    path = tmp_path / "trap.json"
    path.write_text(json.dumps(standard_raw(n=2)).replace(old, new), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: duplicate key '{key}'$"):
        load_config(path)


def _with(**entries) -> dict:
    """standard_raw() with `entries` set at its top level."""
    return standard_raw() | entries


# config documents -> the exact message of the ConfigError they raise, one for each branch of the object, field
# and wavevector checks
CONFIG_ERRORS = {
    "root_not_object": ([], "field <root>: config document must be a JSON object"),
    "root_foreign_key": (_with(trap="Paul"),
                         "unknown key: trap (allowed: N, comment, drive_wavevector, field, nu1, species)"),
    "root_missing_key": ({key: value for key, value in standard_raw().items() if key != "field"},
                         "missing required field: field"),
    "field_two_variants": (_with(field={"uniform": {"b": 1.0}, "quadratic": {"b": 1.0, "c": 0.0}}),
                           "field field: expected exactly one of: uniform, quadratic, sampled"),
    "field_no_variant": (_with(field={}), "field field: expected exactly one of: uniform, quadratic, sampled"),
    "field_not_object": (_with(field="uniform"), "field field: expected exactly one of: uniform, quadratic, sampled"),
    "variant_body_not_object": (_with(field={"uniform": 10.0}), "field field.uniform: expected an object"),
    "uniform_foreign_key": (_with(field={"uniform": {"b": 1.0, "c": 0.0}}),
                            "unknown key: field.uniform.c (allowed: B0, b)"),
    "uniform_missing_b": (_with(field={"uniform": {"B0": 0.0}}), "missing required field: field.uniform.b"),
    "quadratic_missing_c": (_with(field={"quadratic": {"b": 1.0}}), "missing required field: field.quadratic.c"),
    "sampled_foreign_key": (_with(field={"sampled": {"points": [[-1e-4, 0.0], [1e-4, 1e-3]], "order": 1}}),
                            "unknown key: field.sampled.order (allowed: points)"),
    "sampled_missing_points": (_with(field={"sampled": {}}), "missing required field: field.sampled.points"),
    "sampled_points_not_list": (_with(field={"sampled": {"points": {"z": 0.0}}}),
                                "field field.sampled.points: expected a list of [z, B] pairs"),
    "sampled_pair_too_short": (_with(field={"sampled": {"points": [[-1e-4, 0.0], [1e-4]]}}),
                               "field field.sampled.points[1]: expected a [z, B] pair"),
    "sampled_pair_not_list": (_with(field={"sampled": {"points": [0.0, 1.0]}}),
                              "field field.sampled.points[0]: expected a [z, B] pair"),
    "unknown_variant": (_with(field={"cubic": {"b": 1.0}}),
                        "unknown key: field.cubic (allowed: quadratic, sampled, uniform)"),
    # the variant's name is checked before its body is read
    "unknown_variant_not_object": (_with(field={"cubic": 10.0}),
                                   "unknown key: field.cubic (allowed: quadratic, sampled, uniform)"),
    "wavevector_foreign_key": (_with(drive_wavevector={"explicit": 1e7, "implicit": 1e7}),
                               "unknown key: drive_wavevector.implicit (allowed: explicit)"),
    "wavevector_missing_explicit": (_with(drive_wavevector={}), "missing required field: drive_wavevector.explicit"),
    "wavevector_bad_string": (_with(drive_wavevector="optical"),
                              "field drive_wavevector: expected 'from_transition' or {'explicit': k}, got 'optical'"),
    "wavevector_bare_number": (_with(drive_wavevector=1e7),
                               "field drive_wavevector: expected 'from_transition' or {'explicit': k}, got 10000000.0"),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_message(case):
    document, message = CONFIG_ERRORS[case]
    with pytest.raises(ConfigError) as err:
        validate_config(document)
    assert str(err.value) == message


def test_unknown_nested_key_rejected():
    raw = standard_raw()
    raw["field"]["uniform"]["b1"] = 1.0
    with pytest.raises(ConfigError, match=r"^unknown key: field\.uniform\.b1 \(allowed: B0, b\)$"):
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
    assert cfg.field == PolynomialField((0.0, 5.0, 1000.0))
    assert cfg.field.gradient_at(0.0) == 5.0
    assert cfg.field.gradient_at(1e-3) == pytest.approx(5.0 + 2.0, rel=1e-12)
    assert cfg.field.field_at(2e-3) == pytest.approx(5.0 * 2e-3 + 1000.0 * 4e-6, rel=1e-12)


def test_polynomial_field_evaluates_the_closed_forms_bitwise():
    # every sign of zero in every slot: a uniform field padded with c = 0 turns a -0.0 gradient into +0.0 at z >= 0
    rng = random.Random(25)

    def draw(scale):
        return rng.choice((0.0, -0.0, scale * rng.uniform(-1.0, 1.0)))

    for _ in range(400):
        b0, b, c, z = draw(1e-3), draw(50.0), draw(1e6), draw(1e-4)  # T, T/m, T/m^2, m
        uniform = validate_config(standard_raw() | {"field": {"uniform": {"B0": b0, "b": b}}}).field
        assert struct.pack("<2d", uniform.field_at(z), uniform.gradient_at(z)) == struct.pack("<2d", b0 + b * z, b)
        quadratic = validate_config(standard_raw() | {"field": {"quadratic": {"B0": b0, "b": b, "c": c}}}).field
        assert (struct.pack("<2d", quadratic.field_at(z), quadratic.gradient_at(z))
                == struct.pack("<2d", b0 + (b + c * z) * z, b + 2.0 * c * z))


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
