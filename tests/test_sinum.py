import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rfladder import sinum


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2.39n", 2.39e-9),
        ("0.417p", 4.17e-13),
        ("417f", 4.17e-13),
        ("60m", 0.06),
        ("4.5", 4.5),
        ("50", 50.0),
        ("1k", 1000.0),
        ("2M", 2e6),
        ("3G", 3e9),
        ("1.5u", 1.5e-6),
        ("-10", -10.0),
        ("1e-17", 1e-17),
    ],
)
def test_parse_value(text, expected):
    assert sinum.parse_value(text) == expected


def test_suffixes_are_case_sensitive():
    assert sinum.parse_value("1m") == 1e-3
    assert sinum.parse_value("1M") == 1e6
    with pytest.raises(ValueError):
        sinum.parse_value("1K")  # only lowercase kilo exists


@pytest.mark.parametrize("text", ["", "abc", "x1", "1..2", "nan", "inf", "1 2", "1e400", "1e300G"])
def test_parse_value_rejects_junk(text):
    with pytest.raises(ValueError):
        sinum.parse_value(text)


@pytest.mark.parametrize(
    "value,expected",
    [
        (2.39e-9, "2.39n"),
        (4.2e-12, "4.2p"),
        (4.17e-13, "417f"),
        (50.0, "50"),
        (4.5, "4.5"),
        (0.06, "60m"),
        (3.3, "3.3"),
        (1.0, "1"),
        (999.9e9, "999.9G"),
        (1e-17, "1e-17"),
        (0.0, "0"),
    ],
)
def test_format_value_canonical(value, expected):
    assert sinum.format_value(value) == expected


def test_format_value_mantissa_range():
    for value in (1e-15, 999e-15, 1e-12, 123.456e-9, 1e9, 999.999e9):
        text = sinum.format_value(value)
        mantissa = text[:-1] if text[-1] in sinum.SUFFIX_EXPONENT else text
        assert 1 <= float(mantissa) < 1000
        assert sinum.parse_value(text) == value


@given(st.floats(min_value=1e-18, max_value=1e18, allow_nan=False, allow_infinity=False))
def test_format_parse_round_trip(value):
    assert sinum.parse_value(sinum.format_value(value)) == value


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_bare_round_trip(value):
    assert float(sinum.format_bare(value)) == value


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_format_bare_rejects_non_finite(value):
    with pytest.raises(sinum.NonFiniteValue):
        sinum.format_bare(value)
    with pytest.raises(sinum.NonFiniteValue):
        sinum.format_value(value)


def test_parse_scaled_single_rounding():
    # shifting the exponent must behave like one decimal-to-float conversion
    assert sinum.parse_scaled("2.39", -9) == 2.39e-9
    assert sinum.parse_scaled("24", -3) == 0.024
    assert math.isclose(sinum.parse_scaled("1.7", -3),  1.7e-3, rel_tol=0)
    # 55 significant digits just below the midpoint between 1 and the next float
    long = "1.00000000000000011102230246251565404236306680908203125"
    assert sinum.parse_scaled(long, 0) == float(long) == 1.0
    assert sinum.parse_scaled(long, -3) == float(long + "e-3")
