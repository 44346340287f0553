import math
import re
import sys

import pytest

from gradchain.units import QuantityError, parse_quantity, read_integer, read_value


@pytest.mark.parametrize(
    "text,value,dim",
    [
        ("100kHz", 1.0e5, "frequency"),
        ("10T/m", 10.0, "gradient"),
        ("0.5pi", 0.5 * math.pi, "angle-rad"),
        ("12.6GHz", 12.6e9, "frequency"),
        ("1MHz", 1.0e6, "frequency"),
        ("250Hz", 250.0, "frequency"),
        ("1ms", 1.0e-3, "time"),
        ("15us", 1.5e-5, "time"),
        ("2s", 2.0, "time"),
        ("0T", 0.0, "field"),
        ("-3.5T", -3.5, "field"),
        ("7um", 7.0e-6, "length"),
        ("17nm", 1.7e-8, "length"),
        ("1e-5m", 1.0e-5, "length"),
        ("90deg", 0.5 * math.pi, "angle-rad"),
        ("1.5rad", 1.5, "angle-rad"),
        ("-19.3Hz", -19.3, "frequency"),
        ("2e2kHz", 2.0e5, "frequency"),
        ("1.2719960110077275e-05m", 1.2719960110077275e-05, "length"),
        ("-42.0T", -42.0, "field"),
        ("1.0471975511965976rad", 1.0471975511965976, "angle-rad"),
        ("9.87e-09s", 9.87e-09, "time"),
    ],
)
def test_parse_examples(text, value, dim):
    got_value, got_dim = parse_quantity(text)
    assert got_dim == dim
    assert got_value == pytest.approx(value, rel=1e-15)


def test_internal_whitespace_tolerated():
    assert parse_quantity(" 100 kHz ") == (1.0e5, "frequency")


def test_unknown_unit_carries_offender():
    with pytest.raises(QuantityError, match=r"unknown unit 'furlong' \(known: GHz, Hz, MHz, T, T/m, deg, kHz"):
        parse_quantity("10furlong")


def test_missing_unit_is_unknown_unit():
    with pytest.raises(QuantityError, match="unknown unit '' "):
        parse_quantity("100")


def test_malformed_number_carries_offender():
    with pytest.raises(QuantityError, match="malformed number in quantity: 'abcHz'"):
        parse_quantity("abcHz")


# the last two: float() takes full-width and Arabic-Indic digits, the grammar only 0-9
@pytest.mark.parametrize("text", ["", "   ", "--5Hz", "e5Hz", "\uff11\uff10\uff10kHz", "\u0662Hz"])
def test_malformed_numbers(text):
    with pytest.raises(QuantityError, match=re.escape(f"malformed number in quantity: {text.strip()!r}")):
        parse_quantity(text)


@pytest.mark.parametrize("text", ["1e400Hz", "1e308kHz", "-1e400T", "1e306GHz"])
def test_non_finite_result_rejected(text):
    # 1e400 overflows as written; 1e308kHz and 1e306GHz overflow when scaled to SI
    with pytest.raises(QuantityError, match=f"^quantity '{text}' is not a finite number$"):
        parse_quantity(text)


# a script that writes a config puts a value's repr before its unit; parsing gives the value back exactly
BASE_UNIT = {"frequency": "Hz", "time": "s", "field": "T", "gradient": "T/m", "length": "m", "angle-rad": "rad"}


@pytest.mark.parametrize(
    "value,dim",
    [
        (1.0e5, "frequency"),
        (123.456789012345, "frequency"),
        (9.87e-9, "time"),
        (-42.0, "field"),
        (10.0, "gradient"),
        (1.2719960110077275e-05, "length"),
        (math.pi / 3, "angle-rad"),
    ],
)
def test_format_round_trip(value, dim):
    back, back_dim = parse_quantity(f"{value!r}{BASE_UNIT[dim]}")
    assert back_dim == dim
    assert back == value


def test_format_round_trip_grid():
    # broad sweep over magnitudes and dimensions
    for dim in ("frequency", "time", "field", "gradient", "length", "angle-rad"):
        for exponent in range(-12, 13, 3):
            for mantissa in (1.0, 2.718281828459045, -7.77):
                value = mantissa * 10.0**exponent
                assert parse_quantity(f"{value!r}{BASE_UNIT[dim]}") == (value, dim)



def test_read_value_takes_a_bare_number_as_si_in_the_asked_dimension():
    assert read_value("5e4", "frequency") == read_value("50kHz", "frequency") == 5e4
    assert read_value(" 2e-3 ", "time") == read_value("2ms", "time")
    assert read_value("1T/m") == read_value("1") == 1.0  # no dimension asked: any


def test_read_integer_takes_only_the_integer_rule():
    assert read_integer("-07") == -7
    for text in ["1_0", " 2", "2 ", "\uff12", "\u0662", "2.0", "", "+"]:
        with pytest.raises(QuantityError, match=re.escape(f"expected an integer, got {text!r}")):
            read_integer(text)


def test_read_integer_past_the_digit_limit_is_a_quantity_error():
    limit = sys.get_int_max_str_digits()  # 4300 unless PYTHONINTMAXSTRDIGITS sets another
    assert read_integer("-" + "9" * limit) == -(10**limit - 1)
    message = f"expected an integer ion count of at most {limit} digits, got {limit + 1} digits"
    with pytest.raises(QuantityError, match=re.escape(message)):
        read_integer("+" + "0" * (limit + 1), "integer ion count")
