import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rfladder import analysis as an
from rfladder.elements import NonPositiveElement
from rfladder.network import SParameterTrace, vswr

# Frozen oracle values (50-digit evaluation, 12 significant digits).
EFF_M15DB = 96.8377223398
VSWR_M15DB = 1.43258084256
VSWR_M10DB = 1.92495059115
F0_CAVITY5 = 776596602.9
F0_CAVITY1 = 5041423177.0


def flat_trace(db_level, f_start=1e9, f_stop=4e9, points=31):
    f = np.linspace(f_start, f_stop, points)
    s11 = np.full(points, 10 ** (db_level / 20.0), dtype=complex)
    return SParameterTrace(f, s11)


def db_trace(freqs, db):
    mags = 10.0 ** (np.asarray(db, dtype=float) / 20.0)
    return SParameterTrace(np.asarray(freqs, dtype=float), mags.astype(complex))


def test_find_bands_flat_below():
    trace = flat_trace(-15.0)
    assert an.find_bands(trace, -10.0) == [(1e9, 4e9)]


def test_find_bands_flat_above():
    assert an.find_bands(flat_trace(-5.0), -10.0) == []


def test_find_bands_interpolated_crossings():
    # piecewise-linear dB, hand-solved -10 dB crossings at 1.25 and 3.75 GHz
    freqs = np.linspace(1e9, 4e9, 7)  # step 0.5 GHz
    db = [-5.0, -15.0, -15.0, -15.0, -15.0, -15.0, -5.0]
    bands = an.find_bands(db_trace(freqs, db), -10.0)
    assert len(bands) == 1
    lo, hi = bands[0]
    assert lo == pytest.approx(1.25e9, rel=1e-6)
    assert hi == pytest.approx(3.75e9, rel=1e-6)


def test_find_bands_multiple_and_edges():
    freqs = np.linspace(1e9, 9e9, 9)
    db = [-12.0, -12.0, -5.0, -5.0, -12.0, -12.0, -5.0, -5.0, -12.0]
    bands = an.find_bands(db_trace(freqs, db), -10.0)
    assert len(bands) == 3
    assert bands[0][0] == 1e9  # starts at the grid edge, no crossing to solve
    assert bands[2][1] == 9e9
    assert all(lo < hi for lo, hi in bands)
    assert all(b1[1] < b2[0] for b1, b2 in zip(bands, bands[1:]))


def test_find_bands_empty_trace():
    trace = SParameterTrace(np.array([]), np.array([], dtype=complex))
    with pytest.raises(an.EmptyTrace):
        an.find_bands(trace, -10.0)


def test_threshold_monotonicity():
    rng = np.random.default_rng(2)
    freqs = np.linspace(1e9, 6e9, 101)
    for _ in range(30):
        # smooth random dB curve between -20 and 0
        raw = rng.uniform(-20.0, 0.0, size=8)
        db = np.interp(np.linspace(0, 7, 101), np.arange(8), raw)
        trace = db_trace(freqs, db)
        loose = an.find_bands(trace, -8.0)
        tight = an.find_bands(trace, -12.0)
        for lo, hi in tight:
            assert any(plo <= lo and hi <= phi for plo, phi in loose)


@st.composite
def threshold_traces(draw):
    """A random trace and a threshold; often some samples sit exactly on it.

    Values come from a drawn numpy seed: irregular floats round in both
    directions, where the simple floats Hypothesis prefers rarely do.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 25))
    mags = rng.uniform(0.0, 0.99, n)
    pick = rng.integers(n)
    mags[rng.random(n) < 0.5] = mags[pick]
    trace = SParameterTrace(1e8 + np.cumsum(rng.uniform(1.0, 1e9, n)), mags.astype(complex))
    exact = draw(st.booleans())
    return trace, float(trace.s11_db()[pick]) if exact else draw(st.floats(-60.0, -0.1))


@settings(max_examples=300, deadline=None)
@given(threshold_traces())
def test_property_band_edges_stay_between_their_samples(case):
    trace, threshold = case
    f, below = trace.frequencies, trace.s11_db() <= threshold
    runs = []  # (first, last) in-band sample indices, found sample by sample
    for k, inside in enumerate(below):
        if inside and (k == 0 or not below[k - 1]):
            runs.append([k, k])
        elif inside:
            runs[-1][1] = k
    bands = an.find_bands(trace, threshold)
    assert len(bands) == len(runs)
    for (lo, hi), (i, j) in zip(bands, runs):
        assert f[0] <= lo <= hi <= f[-1]
        assert f[max(i - 1, 0)] <= lo <= f[i]
        assert f[j] <= hi <= f[min(j + 1, len(f) - 1)]
    assert all(b1[1] <= b2[0] for b1, b2 in zip(bands, bands[1:]))
    an.band_report(trace, threshold)  # never raises on a non-empty trace


def test_band_edge_at_a_threshold_sample_is_not_inverted():
    # the first sample sits exactly at -10 dB; rounding in the interpolated
    # high edge used to land it below the low edge
    mags = [0.31622776601683794, 0.917875900218441, 0.7943282347242815]
    trace = SParameterTrace(np.array([1e9, 4.9e9, 9e9]), np.array(mags, dtype=complex))
    assert trace.s11_db()[0] == -10.0
    assert an.find_bands(trace, -10.0) == [(1e9, 1e9)]
    assert an.band_report(trace, -10.0).bands == ((1e9, 1e9),)


def test_mismatch_efficiency_extremes():
    perfect = SParameterTrace(np.linspace(1e9, 2e9, 5), np.zeros(5, dtype=complex))
    assert an.mismatch_efficiency(perfect, (1e9, 2e9)) == 100.0
    total_reflection = flat_trace(0.0)
    assert an.mismatch_efficiency(total_reflection, (1e9, 4e9)) == pytest.approx(0.0, abs=1e-12)
    # any resolvable reflection pulls the average strictly below 100
    slight = SParameterTrace(np.linspace(1e9, 2e9, 5), np.full(5, 1e-6, dtype=complex))
    assert an.mismatch_efficiency(slight, (1e9, 2e9)) < 100.0


def test_mismatch_efficiency_flat_m15():
    value = an.mismatch_efficiency(flat_trace(-15.0), (1e9, 4e9))
    assert value == pytest.approx(EFF_M15DB, rel=1e-9)
    assert value == pytest.approx(96.84, abs=0.01)


def test_mismatch_efficiency_partial_band():
    trace = flat_trace(-20.0)
    assert an.mismatch_efficiency(trace, (1.3e9, 2.7e9)) == pytest.approx(99.0, abs=0.01)


def test_mismatch_efficiency_linear_power_oracle():
    # |s11|^2 linear in f: the trapezoidal band average is exact, so the
    # expected value is the midpoint of the power line
    freqs = np.linspace(1e9, 2e9, 11)
    power = 0.01 + 0.04 * (freqs - 1e9) / 1e9
    trace = SParameterTrace(freqs, np.sqrt(power).astype(complex))
    value = an.mismatch_efficiency(trace, (1e9, 2e9))
    assert value == pytest.approx(100.0 * (1.0 - 0.03), rel=1e-9)


def test_mismatch_efficiency_is_the_exact_integral_on_a_non_uniform_grid():
    # 1 - |s11|^2 linear in f: its mean over the span is its value at the midpoint,
    # 45 %; a plain mean of these unevenly spaced samples gives 39.53 %
    freqs = np.array([1.0e9, 1.1e9, 1.5e9, 2.7e9, 3.0e9, 4.2e9])
    delivered = 0.2 + 0.5 * (freqs - 1e9) / 3.2e9
    trace = SParameterTrace(freqs, np.sqrt(1.0 - delivered).astype(complex))
    value = an.mismatch_efficiency(trace, (1.0e9, 4.2e9))
    assert value == pytest.approx(45.0, rel=1e-12)


def test_mismatch_efficiency_band_checks():
    trace = flat_trace(-15.0)
    with pytest.raises(an.BandOutsideTrace):
        an.mismatch_efficiency(trace, (0.5e9, 2e9))
    with pytest.raises(an.BandOutsideTrace):
        an.mismatch_efficiency(trace, (3e9, 2e9))


def test_mismatch_efficiency_in_range():
    rng = np.random.default_rng(9)
    freqs = np.linspace(1e9, 4e9, 41)
    for _ in range(20):
        db = rng.uniform(-40.0, 0.0, size=41)
        value = an.mismatch_efficiency(db_trace(freqs, db), (1.2e9, 3.8e9))
        assert 0.0 <= value <= 100.0


def test_resonant_frequency_values():
    assert an.resonant_frequency(10e-9, 4.2e-12) == pytest.approx(F0_CAVITY5, rel=1e-9)
    assert an.resonant_frequency(10e-9, 4.2e-12) == pytest.approx(780e6, rel=0.01)
    assert an.resonant_frequency(2.39e-9, 0.417e-12) == pytest.approx(F0_CAVITY1, rel=1e-9)


def test_resonant_frequency_scaling():
    base = an.resonant_frequency(2e-9, 1e-12)
    assert an.resonant_frequency(8e-9, 4e-12) == base / 4  # exact: powers of four
    with pytest.raises(NonPositiveElement):
        an.resonant_frequency(0.0, 1e-12)
    with pytest.raises(NonPositiveElement):
        an.resonant_frequency(1e-9, 0.0)


def test_compare_identical_traces():
    trace = flat_trace(-12.0)
    report = an.compare_traces(trace, trace, -10.0)
    assert report.band_agreement_percent == 100.0
    assert report.mean_abs_db_deviation == pytest.approx(0.0, abs=1e-12)
    assert report.common_grid_points == len(trace)


def test_compare_rejects_traces_on_different_port_1_references():
    f = np.linspace(1e9, 4e9, 31)
    s11 = np.full(31, 0.1 + 0j)
    at_50 = SParameterTrace(f, s11, reference_impedances=(50.0, 4.5))
    with pytest.raises(an.ReferenceMismatch, match="50.0 ohm and 75.0 ohm"):
        an.compare_traces(at_50, SParameterTrace(f, s11, reference_impedances=(75.0, 4.5)), -10.0)
    # port 2 is not compared: a one-port trace has none
    other_port_2 = SParameterTrace(f, s11, reference_impedances=(50.0, 50.0))
    assert an.compare_traces(at_50, other_port_2, -10.0).band_agreement_percent == 100.0


def test_compare_opposite_sides():
    report = an.compare_traces(flat_trace(-15.0), flat_trace(-5.0), -10.0)
    assert report.band_agreement_percent == 0.0
    assert report.mean_abs_db_deviation == pytest.approx(10.0, rel=1e-9)


def test_compare_half_agreement():
    freqs = np.linspace(1e9, 2e9, 10)
    a = db_trace(freqs, [-15.0] * 10)
    b = db_trace(freqs, [-15.0] * 5 + [-5.0] * 5)
    report = an.compare_traces(a, b, -10.0)
    assert report.band_agreement_percent == pytest.approx(50.0, rel=1e-12)


def test_compare_symmetry_on_identical_grids():
    rng = np.random.default_rng(4)
    freqs = np.linspace(1e9, 3e9, 21)
    a = db_trace(freqs, rng.uniform(-20, 0, 21))
    b = db_trace(freqs, rng.uniform(-20, 0, 21))
    ab = an.compare_traces(a, b, -10.0)
    ba = an.compare_traces(b, a, -10.0)
    assert ab.band_agreement_percent == ba.band_agreement_percent
    assert ab.mean_abs_db_deviation == pytest.approx(ba.mean_abs_db_deviation, rel=1e-12)


def test_compare_resamples_onto_first_grid():
    a = flat_trace(-12.0, 1e9, 3e9, 9)
    b = flat_trace(-12.0, 2e9, 5e9, 50)
    report = an.compare_traces(a, b, -10.0)
    assert report.common_grid_points == 5  # a's points inside [2, 3] GHz


def test_compare_no_overlap():
    a = flat_trace(-12.0, 1e9, 2e9)
    b = flat_trace(-12.0, 3e9, 4e9)
    with pytest.raises(an.NoOverlap):
        an.compare_traces(a, b, -10.0)
    # the spans overlap, but no point of a's grid lies inside the overlap
    a = flat_trace(-12.0, 1e9, 3e9, 2)
    b = flat_trace(-12.0, 1.5e9, 2.5e9)
    with pytest.raises(an.NoOverlap, match="no grid points of the first trace"):
        an.compare_traces(a, b, -10.0)


def test_band_report_flat_m15():
    report = an.band_report(flat_trace(-15.0), -10.0)
    assert report.bands == ((1e9, 4e9),)
    assert report.widest_band == 0
    assert report.mismatch_efficiency_percent == pytest.approx(EFF_M15DB, rel=1e-9)
    assert report.max_vswr_in_band == pytest.approx(VSWR_M15DB, rel=1e-9)


def test_band_report_no_band():
    report = an.band_report(flat_trace(-9.0), -10.0)
    assert report.bands == ()
    assert report.widest_band is None
    assert report.mismatch_efficiency_percent is None
    assert report.max_vswr_in_band is None


def test_band_report_picks_widest():
    freqs = np.linspace(1e9, 9e9, 9)
    db = [-12.0, -12.0, -5.0, -12.0, -12.0, -12.0, -5.0, -12.0, -12.0]
    report = an.band_report(db_trace(freqs, db), -10.0)
    assert len(report.bands) == 3
    assert report.widest_band == 1


def test_band_report_vswr_bound_at_threshold():
    rng = np.random.default_rng(6)
    freqs = np.linspace(1e9, 6e9, 101)
    seen_band = False
    for _ in range(20):
        raw = rng.uniform(-25.0, 5.0, size=7)
        db = np.interp(np.linspace(0, 6, 101), np.arange(7), raw)
        report = an.band_report(db_trace(freqs, db), -10.0)
        if report.bands:
            seen_band = True
            assert report.max_vswr_in_band <= VSWR_M10DB + 1e-6
    assert seen_band


def test_vswr_two_iff_third():
    third = 1.0 / 3.0
    assert vswr(third - 1e-9) < 2.0
    assert vswr(third + 1e-9) > 2.0
    assert abs(vswr(third) - 2.0) <= 1e-12
    # dB form of the same boundary
    assert 20 * math.log10(third) == pytest.approx(-9.5424250944, rel=1e-9)


def test_report_text_and_csv():
    report = an.band_report(flat_trace(-15.0), -10.0)
    text = an.band_report_text(report)
    assert "threshold_db = -10" in text
    assert "bands = 1" in text
    assert "band0_low_hz = 1000000000" in text
    assert "widest_band = 0" in text
    assert "mismatch_efficiency_percent" in text
    csv = an.bands_csv(report)
    assert csv.splitlines()[0] == "band,f_low_hz,f_high_hz"
    assert csv.splitlines()[1].startswith("0,1000000000,")
    empty = an.band_report(flat_trace(-9.0), -10.0)
    empty_text = an.band_report_text(empty)
    assert "bands = 0" in empty_text
    assert "mismatch_efficiency" not in empty_text


def test_similarity_text():
    trace = flat_trace(-12.0)
    text = an.similarity_text(an.compare_traces(trace, trace, -10.0))
    assert "band_agreement_percent = 100" in text
    assert "common_grid_points = 31" in text


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12),
    st.lists(st.floats(-1e3, 1e3), min_size=12, max_size=12),
    st.floats(0.0, 1e5),
)
def test_interp_from_the_bracketing_pair_is_np_interp(steps, values, x):
    # band edges are interpolated from two samples, since np.interp copies a
    # read-only xp whole; the bits must be np.interp's over the whole trace
    f = np.cumsum(steps)
    f.flags.writeable = False
    db = np.array(values[: len(f)])
    for at in (x, *f, f[0] - 1.0, f[-1] + 1.0, *(f[:-1] + np.diff(f) / 3)):
        assert an._interp(at, f, db).tobytes() == np.interp(at, f, db).tobytes()
