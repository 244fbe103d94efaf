import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rfladder import sinum
from rfladder.touchstone import format_bare_column


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
        (1e-6, "1u"),  # also inside the n range: 1e-9 * 1000 rounds above 1e-6
        (999.9e9, "999.9G"),
        (1e-17, "1e-17"),
        (0.0, "0"),
    ],
)
def test_format_value_canonical(value, expected):
    assert sinum.format_value(value) == expected


def _each_window_edge(test):
    """`test` with each suffix window's two edges, and the floats either side, as examples."""
    for scale, _, _ in sinum._SCALES:
        for edge in (scale, scale * 1000):
            for value in (math.nextafter(edge, 0), edge, math.nextafter(edge, math.inf)):
                test = example(value)(test)
    return test


@_each_window_edge
@example(123.456e-9)
@given(st.floats(min_value=0, exclude_min=True, allow_infinity=False))
def test_format_value_mantissa_range(value):
    text = sinum.format_value(value)
    if text[-1] in sinum.SUFFIX_EXPONENT:
        assert 1 <= float(text[:-1]) < 1000
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


# integral values on both sides of 1e16 (rendered as integers only below it),
# signed zeros, subnormals and the largest exponents
EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 2.0**53, 2.0**53 + 2, 1e16 - 2, 1e16, -1e16, 1e16 + 2, 1e22,
     5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1e308, 0.1]
)
COLUMN_FLOATS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.integers(-(2**60), 2**60).map(float)
    | EDGE_FLOATS
)


@given(st.lists(COLUMN_FLOATS, max_size=40))
def test_format_bare_column_equals_format_bare(values):
    expected = [sinum.format_bare(v) for v in values]
    assert format_bare_column(values) == expected
    assert format_bare_column(np.array(values, dtype=float)) == expected


@given(
    st.lists(COLUMN_FLOATS, max_size=20),
    st.lists(st.tuples(st.integers(0, 20), st.sampled_from([math.nan, math.inf, -math.inf])),
             min_size=1, max_size=3),
)
def test_format_bare_column_rejects_the_first_non_finite(values, bad):
    for position, value in bad:
        values.insert(min(position, len(values)), value)
    first = next(v for v in values if not math.isfinite(v))
    with pytest.raises(sinum.NonFiniteValue) as expected:
        sinum.format_bare(first)
    with pytest.raises(sinum.NonFiniteValue) as err:
        format_bare_column(values)
    assert str(err.value) == str(expected.value)


def test_parse_scaled_single_rounding():
    # shifting the exponent must behave like one decimal-to-float conversion
    assert sinum.parse_scaled("2.39", -9) == 2.39e-9
    assert sinum.parse_scaled("24", -3) == 0.024
    assert math.isclose(sinum.parse_scaled("1.7", -3),  1.7e-3, rel_tol=0)
    # 55 significant digits just below the midpoint between 1 and the next float
    long = "1.00000000000000011102230246251565404236306680908203125"
    assert sinum.parse_scaled(long, 0) == float(long) == 1.0
    assert sinum.parse_scaled(long, -3) == float(long + "e-3")


def test_key_value_text_formats_floats_bare_and_the_rest_with_str():
    pairs = [("a", 2.0), ("b", 0.1), ("c", 3), ("d", "wide"), ("e", np.float64(-1e20))]
    assert sinum.key_value_text(pairs) == "a = 2\nb = 0.1\nc = 3\nd = wide\ne = -1e+20\n"
    assert sinum.key_value_text([]) == ""
    with pytest.raises(sinum.NonFiniteValue):
        sinum.key_value_text([("x", math.inf)])
