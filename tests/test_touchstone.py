import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfladder import cli, geometry, netlist
from rfladder import touchstone as ts
from rfladder.network import SParameterTrace, SweepGrid, magnitude_db, sweep
from rfladder.sinum import NonFiniteValue, format_bare, format_bare_column


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


@pytest.mark.parametrize("zero", [0j, complex(-0.0, 0.0), complex(-0.0, -0.0)])
def test_zero_samples_write_phase_0_and_the_db_floor(zero):
    trace = SParameterTrace(np.array([1e9]), np.array([zero]))
    assert ts.write_touchstone(trace, "MA").splitlines()[-1] == "1000000000 0 0"
    assert ts.write_touchstone(trace, "DB").splitlines()[-1] == "1000000000 -300 0"


def test_overflowing_magnitude_is_refused_as_non_finite():
    trace = SParameterTrace(np.array([1e9]), np.array([complex(1.7e308, 1.7e308)]))
    for fmt in ("MA", "DB"):
        with pytest.raises(NonFiniteValue):
            ts.write_touchstone(trace, fmt)


def test_option_line_r_without_a_value_rejected():
    with pytest.raises(ts.BadOptionLine, match="^line 2: R needs a resistance value$"):
        ts.read_touchstone("! no reference\n# Hz S RI R\n1.0 0.1 0\n")


def test_non_numeric_port2_reference_comment_rejected_at_its_line():
    with pytest.raises(ts.MalformedRow, match="^line 3: bad PORT2_REF_OHMS comment$"):
        ts.read_touchstone("# Hz S RI R 50\n1e9 0.1 0\n! PORT2_REF_OHMS abc\n2e9 0.1 0\n")


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
    with pytest.raises(ts.BadOptionLine, match="^line 1: bad reference resistance 'abc'$"):
        ts.read_touchstone("# Hz S RI R abc\n1.0 0.1 0\n")


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("blank", ["\n", "\n \n\t\n", "\n\xa0\n"])
def test_blank_lines_after_the_option_line_are_no_data_and_no_warning(blank):
    with pytest.raises(ts.MalformedRow, match="^line 1: no data rows$"):
        ts.read_touchstone(f"# Hz S RI R 50\n{blank}")


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


def line_by_line_reader(text):
    """The reader as it was before columns: every check on each line as it is read.

    The oracle of the differential test below; it shares only the option
    line parser and the error classes with `ts.read_touchstone`.
    """
    unit_fmt_res = None
    port2_ref = None
    rows = []
    linenos = []
    option_lineno = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("!")
        comment = comment.strip()
        if comment.startswith(ts.PORT2_REF_COMMENT):
            try:
                port2_ref = float(comment[len(ts.PORT2_REF_COMMENT):])
            except ValueError:
                port2_ref = math.nan
            if not (port2_ref > 0 and math.isfinite(port2_ref)):
                raise ts.MalformedRow(f"bad {ts.PORT2_REF_COMMENT} comment", lineno)
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if unit_fmt_res is not None:
                raise ts.BadOptionLine("second option line", lineno)
            unit_fmt_res = ts._parse_option_line(line, lineno)
            option_lineno = lineno
            continue
        if unit_fmt_res is None:
            raise ts.BadOptionLine("data before the option line", lineno)
        fields = line.split()
        try:
            values = tuple(float(f) for f in fields)
        except ValueError:
            raise ts.MalformedRow(f"non-numeric field in {line!r}", lineno) from None
        if not all(map(math.isfinite, values)):
            raise ts.MalformedRow(f"non-finite field in {line!r}", lineno)
        if len(values) not in (3, 9):
            raise ts.MalformedRow(
                f"expected 3 (one-port) or 9 (two-port) numbers, got {len(values)}", lineno
            )
        if rows and len(values) != len(rows[0]):
            raise ts.MalformedRow("row width changed mid-file", lineno)
        if rows and values[0] <= rows[-1][0]:
            raise ts.NonMonotoneFrequency(
                f"frequency {values[0]} not above previous {rows[-1][0]}", lineno
            )
        if not values[0] > 0:
            raise ts.MalformedRow(f"frequency {values[0]} must be > 0", lineno)
        rows.append(values)
        linenos.append(lineno)

    if unit_fmt_res is None:
        raise ts.BadOptionLine("missing option line", 1)
    if not rows:
        raise ts.MalformedRow("no data rows", option_lineno)
    unit, fmt, resistance = unit_fmt_res
    data = np.array(rows).T
    x, y = data[1::2], data[2::2]
    with np.errstate(over="ignore", invalid="ignore"):
        freqs = data[0] * ts.FREQUENCY_UNITS[unit]
        if fmt == "RI":
            s = x + 1j * y
        else:
            magnitude = x if fmt == "MA" else 10.0 ** (x / 20.0)
            s = magnitude * np.exp(1j * np.radians(y))
    ok = np.isfinite(freqs) & np.isfinite(s).all(axis=0)
    ok[1:] &= freqs[1:] > freqs[:-1]
    if not ok.all():
        raise ts.MalformedRow(
            "value overflows or frequencies collide after unit or dB conversion",
            linenos[ok.argmin()],
        )
    z2 = port2_ref if port2_ref is not None else resistance
    return SParameterTrace(freqs, *s, reference_impedances=(resistance, z2))


def _outcome(read, text):
    """A trace's bytes, or the class, message and line of the error raised."""
    try:
        trace = read(text)
    except ts.TouchstoneError as err:
        return type(err), str(err), err.line
    ports = (trace.frequencies, trace.s11, trace.s21, trace.s12, trace.s22)
    return trace.reference_impedances, [None if p is None else p.tobytes() for p in ports]


@settings(max_examples=500, deadline=None)
@given(touchstone_texts())
# a failed line below a bad row (the row's error comes first), and each re-scanned row check
@example("# RI\n1 0.1 x\n# GHz\n")
@example("# RI\n2 0.1 0\n1 0.1 0\n! PORT2_REF_OHMS -1\n")
@example("# RI\n1 0.1 0 1\n2 0.1 0\n5\n")
@example("# RI\n1 0.1 0 0.2 0\n")
@example("# RI\n1 0.1 0\n2 0.1 0 0 0 0 0 0 0\n# GHz\n")
@example("# RI\n0 0.1 0\n")
@example("# RI\n1 0.1 0\n1 0.2 0\n")
@example("# DB\n1 7000 0\n2 nan 0\n")
# text the one-pass parse refuses, which the line loop reads or rejects
@example("# RI\n1_0 0.1 0\n")
@example("# RI\n1 \u0967 0\n")
@example("# RI\n1 0.1 0 0.2 0 0.2 0 0.1 0\n! PORT2_REF_OHMS 4.5\n2 0.1 0 0.2 0 0.2 0 0.1 0\n")
@example("# RI\n1 0.1 0 ! note\n2 0.1 0\n")
@example("# RI\n1 0.1 0\n\n2 0.1 0\n")
@example("# DB\n1 -3 0\n\n2 7000 0\n")  # the overflow names its line past a blank one
@example("# RI\n1\xa00.1\u20030\n2 0.1 0\n")
@example("# RI\n1 infinity 0\n")
@example("# RI\n1 0.1 0\n# GHz\n")
@example("# RI\n1 0.1 0 # GHz\n")
def test_differential_reader_matches_line_by_line_reader(text):
    assert _outcome(ts.read_touchstone, text) == _outcome(line_by_line_reader, text)


@pytest.mark.parametrize("two_port", [False, True])
@pytest.mark.parametrize("fmt", ts.VALUE_FORMATS)
def test_written_files_are_read_in_one_pass(criterion_9_sweep, monkeypatch, fmt, two_port):
    def refused(lines):
        raise AssertionError("the line loop ran")

    rng = np.random.default_rng(5)
    traces = [criterion_9_sweep, random_trace(rng, 101, two_port)]
    if not two_port:
        # as `simulate` writes an .s1p: the port-2 reference in a comment above the option line
        traces[0] = SParameterTrace(
            traces[0].frequencies, traces[0].s11,
            reference_impedances=traces[0].reference_impedances,
        )
    texts = [ts.write_touchstone(trace, fmt) for trace in traces]
    expected = [_outcome(ts.read_touchstone, text) for text in texts]
    monkeypatch.setattr(ts, "_read_line_by_line", refused)
    assert [_outcome(ts.read_touchstone, text) for text in texts] == expected


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


@pytest.fixture(scope="module")
def criterion_9_sweep(tmp_path_factory):
    """The criterion-9 ladder (extracted from the canonical geometry) over 1,201 points."""
    path = tmp_path_factory.mktemp("criterion_9")
    (path / "antenna.geo").write_text(
        geometry.serialize_geometry(geometry.canonical_geometry(), geometry.canonical_cavities())
    )
    assert cli.main(["extract", "--geometry", str(path / "antenna.geo"),
                     "--frequency", "2.5e9", "--out", str(path / "elements.csv")]) == 0
    assert cli.main(["build", "--elements", str(path / "elements.csv"),
                     "--ports", "50,4.5", "--out", str(path / "ladder.net")]) == 0
    ladder = netlist.parse((path / "ladder.net").read_text())
    return sweep(ladder, SweepGrid(0.1e9, 6e9, 1201))


def value_by_value_writer(trace, fmt):
    """`write_touchstone` as it was before columns: `format_bare` on every value."""
    z01, z02 = trace.reference_impedances
    lines = []
    if z02 != z01:
        lines.append(f"! {ts.PORT2_REF_COMMENT} {format_bare(z02)}")
    lines.append(f"# Hz S {fmt} R {format_bare(z01)}")
    ports = [trace.s11]
    if trace.s21 is not None and trace.s22 is not None:
        s12 = trace.s12 if trace.s12 is not None else trace.s21
        ports += [trace.s21, s12, trace.s22]
    columns = [np.asarray(c).tolist() for samples in ports for c in ts._columns(samples, fmt)]
    for row in zip(trace.frequencies.tolist(), *columns):
        lines.append(" ".join(map(format_bare, row)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ts.VALUE_FORMATS)
@pytest.mark.parametrize("two_port", [False, True])
def test_criterion_9_sweep_bytes_equal_value_by_value_rendering(criterion_9_sweep, fmt, two_port):
    trace = criterion_9_sweep
    if not two_port:
        # as `simulate` writes an .s1p
        trace = SParameterTrace(
            trace.frequencies, trace.s11, reference_impedances=trace.reference_impedances
        )
    text = ts.write_touchstone(trace, fmt)
    assert text == value_by_value_writer(trace, fmt)
    assert len(text.splitlines()) == 2 + 1201  # the port-2 comment, the option line


@pytest.mark.parametrize("fmt", ["MA", "DB"])
def test_polar_columns_are_the_analysis_magnitude_and_db(criterion_9_sweep, fmt):
    """MA writes `np.abs`, DB writes `magnitude_db`: one dB formula, one floor."""
    trace = criterion_9_sweep
    rows = [line.split() for line in ts.write_touchstone(trace, fmt).splitlines()[2:]]
    value = np.abs if fmt == "MA" else magnitude_db
    ports = [trace.s11, trace.s21, trace.s12, trace.s22]
    for k, samples in enumerate(ports):
        assert [row[1 + 2 * k] for row in rows] == format_bare_column(value(samples))
        degrees = np.angle(samples, deg=True)
        assert [row[2 + 2 * k] for row in rows] == format_bare_column(degrees)


def per_sample_columns(samples, fmt):
    """MA/DB columns evaluated one sample at a time with `cmath` and `math`."""
    values = samples.tolist()
    mags = [abs(v) for v in values]
    angles = [math.degrees(cmath.phase(v)) if m else 0.0 for v, m in zip(values, mags)]
    if fmt == "DB":
        mags = [max(20.0 * math.log10(m), -300.0) if m else -300.0 for m in mags]
    return np.array(mags), np.array(angles)


@pytest.mark.parametrize("fmt", ["MA", "DB"])
def test_polar_columns_agree_with_per_sample_libm_values(criterion_9_sweep, fmt):
    rng = np.random.default_rng(11)
    scales = 10.0 ** rng.uniform(-17, 0, 2000)  # down past the -300 dB floor
    scattered = (rng.normal(size=2000) + 1j * rng.normal(size=2000)) * scales
    zeros = np.array([0j, complex(-0.0, 0.0), complex(-0.0, -0.0)])
    for samples in (criterion_9_sweep.s11, criterion_9_sweep.s21, scattered, zeros):
        for column, reference in zip(ts._columns(samples, fmt), per_sample_columns(samples, fmt)):
            np.testing.assert_allclose(column, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("fmt", ts.VALUE_FORMATS)
@pytest.mark.parametrize("row", [0, 300])  # in the first block of rows, and in a later one
def test_write_reports_the_first_non_finite_value_in_row_order(fmt, row):
    trace = SParameterTrace(
        np.arange(1.0, 402.0), np.full(401, 0.5 + 0j), np.full(401, 0.1 + 0j),
        np.full(401, 0.1 + 0j), np.full(401, 0.2 + 0j),
    )
    trace.s11[row + 1] = complex(math.nan, 0.0)  # a later row, but an earlier column
    trace.s22[row] = complex(0.0, -math.inf)
    with pytest.raises(NonFiniteValue) as expected:
        value_by_value_writer(trace, fmt)
    with pytest.raises(NonFiniteValue) as err:
        ts.write_touchstone(trace, fmt)
    assert str(err.value) == str(expected.value)


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


def row_by_row_csv(trace):
    """`write_trace_csv` as per-row f-strings, refusing the first non-finite value in row order."""
    with np.errstate(over="ignore"):
        db = trace.s11_db()
    lines = [ts.CSV_HEADER]
    for row in zip(trace.frequencies.tolist(), trace.s11.real.tolist(),
                   trace.s11.imag.tolist(), db.tolist()):
        for value in row:
            if not math.isfinite(value):
                format_bare(value)  # raises
        f, re, im, db_value = row
        lines.append(f"{f:.9g},{re:.9g},{im:.9g},{db_value:.9g}")
    return "\n".join(lines) + "\n"


NON_FINITE = [math.nan, math.inf, -math.inf]


# a finite sample's dB value can only overflow to +inf: NaN and -inf there come with a bad sample
@pytest.mark.parametrize(
    "column,bad",
    [(c, v) for c in ("freq", "re", "im") for v in NON_FINITE] + [("db", math.inf)],
)
def test_trace_csv_refuses_the_first_non_finite_value(column, bad):
    trace = SParameterTrace(np.array([1e9, 2e9, 3e9]), np.full(3, 0.5 + 0.25j))
    if column == "freq":
        trace.frequencies[1] = bad
    elif column == "db":
        trace.s11[1] = complex(1.7e308, 1.7e308)  # the magnitude overflows
    else:
        trace.s11[1] = complex(bad, 0.25) if column == "re" else complex(0.5, bad)
    trace.s11[2] = complex(math.nan, math.nan)  # a later row, an earlier column
    with pytest.raises(NonFiniteValue) as expected:
        row_by_row_csv(trace)
    with pytest.raises(NonFiniteValue) as err:
        ts.write_trace_csv(trace)
    assert str(err.value) == str(expected.value) == f"cannot write non-finite value {bad!r}"


CSV_FLOATS = st.floats(-1e300, 1e300) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e300, 1e300]
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(POSITIVE | st.sampled_from([5e-324, 1e-300, 1e300]), min_size=1, max_size=12,
             unique=True),
    st.data(),
)
def test_property_trace_csv_equals_row_by_row_rendering(freqs, data):
    freqs = sorted(freqs)
    re, im = (data.draw(st.lists(CSV_FLOATS, min_size=len(freqs), max_size=len(freqs)))
              for _ in range(2))
    s11 = np.array(re, dtype=complex)
    s11.imag = im  # set, not added, so a -0.0 real part stays
    trace = SParameterTrace(np.array(freqs), s11)
    assert ts.write_trace_csv(trace) == row_by_row_csv(trace)
