import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfladder import touchstone as ts
from rfladder.network import SParameterTrace


def random_trace(rng, points=101, two_port=False):
    freqs = np.sort(rng.uniform(0.1e9, 6e9, points))
    freqs = np.unique(freqs)
    mk = lambda: rng.uniform(-1, 1, len(freqs)) + 1j * rng.uniform(-1, 1, len(freqs))
    if two_port:
        return SParameterTrace(freqs, mk(), mk(), mk(), mk(), (50.0, 4.5))
    return SParameterTrace(freqs, mk(), reference_impedances=(50.0, 50.0))


def test_read_ri_row():
    trace = ts.read_touchstone("# GHz S RI R 50\n1.0 0.1 -0.2\n")
    assert trace.frequencies[0] == 1e9
    assert trace.s11[0] == 0.1 - 0.2j
    assert trace.reference_impedances == (50.0, 50.0)


def test_read_ma_row():
    trace = ts.read_touchstone("# GHz S MA R 50\n1.0 0.333333 180\n")
    assert trace.s11[0].real == pytest.approx(-0.333333, abs=1e-9)
    assert trace.s11[0].imag == pytest.approx(0.0, abs=1e-9)


def test_read_db_row():
    trace = ts.read_touchstone("# GHz S DB R 50\n1.0 -10 0\n")
    assert abs(trace.s11[0]) == pytest.approx(0.31622776601683794, rel=1e-12)


def test_option_line_case_insensitive_and_defaults():
    trace = ts.read_touchstone("# ghz s ri r 50\n1.0 0.5 0\n")
    assert trace.s11[0] == 0.5
    # all-defaults option line means GHz S MA R 50
    trace = ts.read_touchstone("#\n1.0 0.5 0\n")
    assert trace.frequencies[0] == 1e9
    assert trace.s11[0] == 0.5
    assert trace.reference_impedances == (50.0, 50.0)


@pytest.mark.parametrize("unit,scale", [("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6), ("GHz", 1e9)])
def test_frequency_units(unit, scale):
    trace = ts.read_touchstone(f"# {unit} S RI R 50\n1.5 0.1 0\n")
    assert trace.frequencies[0] == 1.5 * scale


def test_round_trip_ri_exact():
    rng = np.random.default_rng(1)
    trace = random_trace(rng, 1001)
    back = ts.read_touchstone(ts.write_touchstone(trace, "RI"))
    assert np.array_equal(back.frequencies, trace.frequencies)
    assert np.array_equal(back.s11, trace.s11)


@pytest.mark.parametrize("fmt", ["MA", "DB"])
def test_round_trip_polar_within_tolerance(fmt):
    rng = np.random.default_rng(2)
    trace = random_trace(rng, 1001)
    back = ts.read_touchstone(ts.write_touchstone(trace, fmt))
    rel = np.abs(back.s11 - trace.s11) / np.abs(trace.s11)
    assert float(rel.max()) < 1e-9


def test_round_trip_two_port():
    rng = np.random.default_rng(3)
    trace = random_trace(rng, 101, two_port=True)
    text = ts.write_touchstone(trace, "RI")
    back = ts.read_touchstone(text)
    assert np.array_equal(back.s11, trace.s11)
    assert np.array_equal(back.s21, trace.s21)
    assert np.array_equal(back.s12, trace.s12)
    assert np.array_equal(back.s22, trace.s22)
    assert back.reference_impedances == (50.0, 4.5)


def test_two_port_column_order():
    # version-1 rows go f, S11, S21, S12, S22
    text = "# Hz S RI R 50\n1e9 0.1 0 0.21 0 0.12 0 0.22 0\n"
    trace = ts.read_touchstone(text)
    assert trace.s11[0] == 0.1
    assert trace.s21[0] == 0.21
    assert trace.s12[0] == 0.12
    assert trace.s22[0] == 0.22


def test_byte_stable_output():
    rng = np.random.default_rng(4)
    trace = random_trace(rng, 257, two_port=True)
    for fmt in ts.VALUE_FORMATS:
        assert ts.write_touchstone(trace, fmt) == ts.write_touchstone(trace, fmt)
    assert ts.write_trace_csv(trace) == ts.write_trace_csv(trace)


def test_db_zero_clamps():
    trace = SParameterTrace(np.array([1e9]), np.array([0j]))
    text = ts.write_touchstone(trace, "DB")
    row = text.splitlines()[-1].split()
    assert row[1] == "-300"
    assert row[2] == "0"


def test_unit_round_trip_preserves_samples():
    original = ts.read_touchstone("# GHz S RI R 50\n1.0 0.125 -0.375\n2.5 0.5 0.25\n")
    rewritten = ts.write_touchstone(original, "RI")
    assert rewritten.splitlines()[0] == "# Hz S RI R 50"
    again = ts.read_touchstone(rewritten)
    assert np.array_equal(again.s11, original.s11)
    assert np.array_equal(again.frequencies, original.frequencies)


def test_port2_reference_comment():
    trace = SParameterTrace(
        np.array([1e9]), np.array([0.5 + 0j]), np.array([0.1 + 0j]),
        np.array([0.1 + 0j]), np.array([0.2 + 0j]), (50.0, 4.5),
    )
    text = ts.write_touchstone(trace, "RI")
    assert text.splitlines()[0] == "! PORT2_REF_OHMS 4.5"
    assert "R 50" in text.splitlines()[1]
    assert ts.read_touchstone(text).reference_impedances == (50.0, 4.5)
    # equal references need no comment
    even = SParameterTrace(np.array([1e9]), np.array([0.5 + 0j]))
    assert not ts.write_touchstone(even, "RI").startswith("!")


def test_comments_ignored():
    text = "! a comment\n# Hz S RI R 50\n1e9 0.1 0.2 ! trailing\n"
    trace = ts.read_touchstone(text)
    assert trace.s11[0] == 0.1 + 0.2j


def test_bad_option_line():
    with pytest.raises(ts.BadOptionLine) as err:
        ts.read_touchstone("# GHz S XX R 50\n1.0 0.1 0\n")
    assert err.value.line == 1
    with pytest.raises(ts.BadOptionLine) as err:
        ts.read_touchstone("# GHz Z RI R 50\n1.0 0.1 0\n")
    assert err.value.line == 1
    with pytest.raises(ts.BadOptionLine) as err:
        ts.read_touchstone("# Hz S RI R 50\n# Hz S RI R 50\n1.0 0.1 0\n")
    assert err.value.line == 2
    with pytest.raises(ts.BadOptionLine):
        ts.read_touchstone("1.0 0.1 0\n")  # data before option line
    with pytest.raises(ts.BadOptionLine):
        ts.read_touchstone("")


def test_non_monotone_frequency():
    with pytest.raises(ts.NonMonotoneFrequency) as err:
        ts.read_touchstone("# Hz S RI R 50\n2e9 0.1 0\n1e9 0.1 0\n")
    assert err.value.line == 3


def test_malformed_row():
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone("# Hz S RI R 50\n1e9 0.1\n")
    assert err.value.line == 2
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone("# Hz S RI R 50\n1e9 x 0\n")
    assert err.value.line == 2
    with pytest.raises(ts.MalformedRow):
        ts.read_touchstone("# Hz S RI R 50\n")  # no data
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone("# Hz S RI R 50\n1e9 0.1 0\n2e9 1 2 3 4 5 6 7 8\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "row",
    ["1e9 nan 0", "1e9 0.1 inf", "nan 0.1 0", "inf 0.1 0", "1e9 0.1 -inf"],
)
def test_non_finite_fields_rejected_at_their_line(row):
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone(f"# Hz S RI R 50\n5e8 0.1 0\n{row}\n")
    assert err.value.line == 3


def test_non_finite_references_rejected():
    with pytest.raises(ts.BadOptionLine) as err:
        ts.read_touchstone("# Hz S RI R nan\n1e9 0.1 0\n")
    assert err.value.line == 1
    for bad in ("inf", "nan", "0"):
        with pytest.raises(ts.MalformedRow) as err:
            ts.read_touchstone(f"! PORT2_REF_OHMS {bad}\n# Hz S RI R 50\n1e9 0.1 0\n")
        assert err.value.line == 1


@pytest.mark.parametrize(
    "text",
    [
        "# GHz S DB R 50\n1 -3 0\n2 7000 0\n",  # 10**(7000/20) overflows
        "# GHz S RI R 50\n1 0.1 0\n1e300 0.1 0\n",  # 1e300 GHz overflows in Hz
        # adjacent floats that round to the same frequency in Hz
        "# GHz S RI R 50\n9.827518048986072 0.1 0\n9.827518048986073 0.1 0\n",
    ],
)
def test_conversion_failures_rejected_at_their_line(text):
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone(text)
    assert err.value.line == 3


@pytest.mark.parametrize("first", ["0", "-1e9"])
def test_non_positive_frequency_rejected_at_its_line(first):
    with pytest.raises(ts.MalformedRow) as err:
        ts.read_touchstone(f"# Hz S RI R 50\n{first} 0.1 0\n2e9 0.1 0\n")
    assert err.value.line == 2


CLEAN_NUMBERS = st.floats(-1e4, 1e4).map(repr) | st.integers(-10, 10).map(str)
NUMBER_TOKENS = CLEAN_NUMBERS | st.floats().map(repr) | st.sampled_from(
    ["nan", "inf", "-inf", "-0", "0", "1e300", "7000", "x", "1,5", "1e", "0x10"]
)
CLEAN_OPTIONS = st.sampled_from(["Hz", "kHz", "MHz", "GHz", "S", "RI", "MA", "DB", "ri", "R 50"])
OPTION_TOKENS = CLEAN_OPTIONS | st.sampled_from(["Z", "R", "50", "R nan", "R -1", "q"])


@st.composite
def touchstone_texts(draw):
    """Text from option tokens, numbers, comments and ragged rows.

    Each line is drawn clean (well-formed on its own) or noisy, so that
    both traces and every error path are reached.
    """
    lines = []
    if draw(st.sampled_from([True, True, False])):
        lines.append(" ".join(["#", *draw(st.lists(CLEAN_OPTIONS, max_size=4))]))
    for k in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["option"] + ["comment"] * 2 + ["row"] * 7))
        clean = draw(st.sampled_from([True, True, False]))
        numbers = CLEAN_NUMBERS if clean else NUMBER_TOKENS
        if kind == "option":
            tokens = CLEAN_OPTIONS if clean else OPTION_TOKENS
            lines.append(" ".join(["#", *draw(st.lists(tokens, max_size=4))]))
        elif kind == "comment":
            tag = draw(st.sampled_from([ts.PORT2_REF_COMMENT + " ", "", "!"]))
            lines.append(f"! {tag}{draw(numbers)}")
        else:
            width = draw(st.sampled_from([3, 9]) if clean else st.integers(0, 10))
            freq = str(k + 1) if clean else draw(NUMBER_TOKENS)
            values = draw(st.lists(numbers, min_size=width, max_size=width))
            note = draw(st.sampled_from(["", " ! note", "!"]))
            lines.append(" ".join([freq, *values[1:]]) + note)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(touchstone_texts())
def test_fuzz_reader_returns_finite_trace_or_touchstone_error(text):
    try:
        trace = ts.read_touchstone(text)
    except ts.TouchstoneError:
        return
    assert isinstance(trace, SParameterTrace)
    for values in (trace.frequencies, trace.s11, trace.s21, trace.s12, trace.s22):
        assert values is None or np.isfinite(values).all()


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def finite_traces(draw):
    freqs = sorted(set(draw(st.lists(POSITIVE, min_size=1, max_size=12))))
    column = st.lists(
        st.complex_numbers(allow_nan=False, allow_infinity=False),
        min_size=len(freqs), max_size=len(freqs),
    )
    if draw(st.booleans()):
        z = draw(POSITIVE)
        return SParameterTrace(np.array(freqs), np.array(draw(column)), reference_impedances=(z, z))
    ports = [np.array(draw(column)) for _ in range(4)]
    return SParameterTrace(np.array(freqs), *ports, (draw(POSITIVE), draw(POSITIVE)))


@settings(max_examples=200, deadline=None)
@given(finite_traces())
def test_property_ri_round_trip_exact(trace):
    back = ts.read_touchstone(ts.write_touchstone(trace, "RI"))
    assert np.array_equal(back.frequencies, trace.frequencies)
    assert back.reference_impedances == trace.reference_impedances
    for name in ("s11", "s21", "s12", "s22"):
        original, parsed = getattr(trace, name), getattr(back, name)
        assert (parsed is None) == (original is None)
        assert original is None or np.array_equal(parsed, original)


def test_write_rejects_unknown_format():
    trace = SParameterTrace(np.array([1e9]), np.array([0j]))
    with pytest.raises(ts.TouchstoneError):
        ts.write_touchstone(trace, "XY")


def test_trace_csv_format():
    trace = SParameterTrace(np.array([1e9, 2e9]), np.array([0.5 + 0.25j, 0j]))
    lines = ts.write_trace_csv(trace).splitlines()
    assert lines[0] == ts.CSV_HEADER
    f, re, im, db = lines[1].split(",")
    assert float(f) == 1e9
    assert float(re) == 0.5 and float(im) == 0.25
    assert float(db) == pytest.approx(20 * np.log10(abs(0.5 + 0.25j)), rel=1e-8)
    assert lines[2].split(",")[3] == "-300"
