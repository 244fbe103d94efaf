import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    RLC_TOPOLOGIES, ZERO_BRANCH_CASES, log_uniform, random_netlist, reference_ladder,
)
from rfladder import network as nw
from rfladder import touchstone as ts
from rfladder.errors import NonPositiveFrequency
from rfladder.netlist import Netlist, Section, parse

# Frozen oracle values (50-digit evaluation, 12 significant digits).
RESONATOR_A_1GHZ = 0.960654624663
RESONATOR_B_1GHZ = 15.0168128842
RESONATOR_C_1GHZ = 2.62008827309e-3
ZIN_SHUNTC_1GHZ = 49.1563706785 - 6.43970151813j
REFL_STEP = -0.834862385321
VSWR_M10DB = 1.92495059115
VSWR_0P316228 = 1.92495159205


def approx_c(value, rel=1e-9):
    return pytest.approx(value, rel=rel, abs=1e-15)


def test_series_resistor_matrix():
    section = Section("s", "series_rlc", {"R": 50.0})
    for f in (1e6, 1e9, 5.5e9):
        m = nw.section_abcd(section, f)
        assert (m.a, m.b, m.c, m.d) == (1, 50, 0, 1)


def test_tline_zero_length_is_identity():
    section = Section("s", "tline", {"z0": 50.0, "eps_eff": 2.0, "len": 0.0})
    m = nw.section_abcd(section, 3e9)
    assert (m.a, m.b, m.c, m.d) == (1, 0, 0, 1)


def test_tline_quarter_wave():
    # theta = pi/2 at f = c / (4 * len * sqrt(eps_eff))
    z0, ee, length = 75.0, 4.0, 0.0125
    f = nw.SPEED_OF_LIGHT / (4.0 * length * math.sqrt(ee))
    m = nw.section_abcd(Section("s", "tline", {"z0": z0, "eps_eff": ee, "len": length}), f)
    assert abs(m.a) < 1e-12 and abs(m.d) < 1e-12
    assert m.b == approx_c(1j * z0)
    assert m.c == approx_c(1j / z0)


def test_resonator_matrix_at_1ghz():
    section = Section("s", "series_rl_shunt_c", {"L": 2.39e-9, "C": 0.417e-12})
    m = nw.section_abcd(section, 1e9)
    assert m.a == approx_c(RESONATOR_A_1GHZ)
    assert m.b == approx_c(1j * RESONATOR_B_1GHZ)
    assert m.c == approx_c(1j * RESONATOR_C_1GHZ)
    assert m.d == 1.0


def test_resonator_equals_series_times_shunt():
    f = 2.2e9
    combined = nw.section_abcd(
        Section("s", "series_rl_shunt_c", {"R": 3.3, "L": 2.39e-9, "C": 0.417e-12}), f
    )
    series = nw.section_abcd(Section("a", "series_rlc", {"R": 3.3, "L": 2.39e-9}), f)
    shunt = nw.section_abcd(Section("b", "shunt_parallel_rlc", {"C": 0.417e-12}), f)
    product = nw.cascade([series, shunt])
    for field in "abcd":
        assert getattr(combined, field) == approx_c(getattr(product, field), rel=1e-12)


def test_shunt_series_rlc_admittance():
    f = 1e9
    w = 2 * math.pi * f
    m = nw.section_abcd(Section("s", "shunt_series_rlc", {"R": 5.0, "L": 1e-9, "C": 1e-12}), f)
    zb = 5.0 + 1j * w * 1e-9 + 1.0 / (1j * w * 1e-12)
    assert m.c == approx_c(1.0 / zb, rel=1e-12)
    assert (m.a, m.b, m.d) == (1, 0, 1)


def test_section_abcd_rejects_bad_frequency():
    section = Section("s", "series_rlc", {"R": 1.0})
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(NonPositiveFrequency):
            nw.section_abcd(section, bad)


def test_cascade_identity_and_additivity():
    m = nw.AbcdMatrix(0.5 + 1j, 2.0, 0.25j, 1.5)
    out = nw.cascade([nw.IDENTITY, m])
    assert (out.a, out.b, out.c, out.d) == (m.a, m.b, m.c, m.d)
    z1 = nw.AbcdMatrix(1, 10 + 3j, 0, 1)
    z2 = nw.AbcdMatrix(1, 5 - 1j, 0, 1)
    combined = nw.cascade([z1, z2])
    assert combined.b == 15 + 2j
    assert (combined.a, combined.c, combined.d) == (1, 0, 1)


def test_cascade_associativity():
    rng = np.random.default_rng(3)
    mats = [
        nw.AbcdMatrix(*(complex(a, b) for a, b in rng.normal(size=(4, 2))))
        for _ in range(3)
    ]
    left = nw.cascade([nw.cascade(mats[:2]), mats[2]])
    right = nw.cascade([mats[0], nw.cascade(mats[1:])])
    for field in "abcd":
        assert getattr(left, field) == pytest.approx(getattr(right, field), rel=1e-12, abs=1e-12)


def test_cascade_rejects_empty():
    with pytest.raises(nw.EmptyCascade):
        nw.cascade([])


def test_input_impedance():
    assert nw.input_impedance(nw.IDENTITY, 4.5) == 4.5
    series = nw.AbcdMatrix(1, 20 + 5j, 0, 1)
    assert nw.input_impedance(series, 30.0) == 50 + 5j
    shunt_c = nw.section_abcd(Section("s", "shunt_parallel_rlc", {"C": 0.417e-12}), 1e9)
    assert nw.input_impedance(shunt_c, 50.0) == approx_c(ZIN_SHUNTC_1GHZ)


def test_input_impedance_singular():
    m = nw.AbcdMatrix(1, 0, 1, -50)
    with pytest.raises(nw.SingularTermination):
        nw.input_impedance(m, 50.0)


def test_reflection():
    assert nw.reflection(50.0, 50.0) == 0.0
    assert nw.reflection(4.5, 50.0) == approx_c(REFL_STEP)
    assert abs(nw.reflection(1e12, 50.0)) > 0.9999
    with pytest.raises(nw.DegenerateDenominator):
        nw.reflection(-50.0, 50.0)
    with pytest.raises(nw.NonPositiveImpedance):
        nw.reflection(50.0, 0.0)


def test_abcd_to_s_identity():
    s11, s12, s21, s22 = nw.abcd_to_s(nw.IDENTITY, 50.0, 50.0)
    assert s11 == 0 and s22 == 0
    assert s21 == 1 and s12 == 1


def test_abcd_to_s_series_fifty():
    m = nw.AbcdMatrix(1, 50.0, 0, 1)
    s11, s12, s21, s22 = nw.abcd_to_s(m, 50.0, 50.0)
    assert abs(s11 - 1 / 3) <= 1e-12
    assert abs(s21 - 2 / 3) <= 1e-12
    assert s12 == s21
    assert abs(s22 - 1 / 3) <= 1e-12


def test_abcd_to_s_rejects_bad_references_and_a_vanishing_denominator():
    with pytest.raises(nw.DegenerateDenominator, match="conversion denominator vanished"):
        nw.abcd_to_s(nw.AbcdMatrix(0, 0, 0, 0), 50.0, 50.0)
    for z01, z02 in ((0.0, 50.0), (50.0, -1.0)):
        with pytest.raises(nw.NonPositiveImpedance):
            nw.abcd_to_s(nw.IDENTITY, z01, z02)


def test_abcd_to_s_keeps_s12_of_a_non_reciprocal_matrix():
    # the scalar conversion takes any matrix: s12 = s21 * det, here det = 2
    s11, s12, s21, s22 = nw.abcd_to_s(nw.AbcdMatrix(2, 0, 0, 1), 50.0, 50.0)
    assert s12 == 2 * s21


def test_abcd_to_s_impedance_step():
    s11, _, _, s22 = nw.abcd_to_s(nw.IDENTITY, 50.0, 4.5)
    assert s11 == approx_c(REFL_STEP)
    assert s22 == approx_c(-REFL_STEP)


def test_abcd_to_s_matches_termination_path():
    rng = np.random.default_rng(11)
    for _ in range(100):
        net = random_netlist(rng)
        f = float(rng.uniform(0.1e9, 6e9))
        m = nw.cascade([nw.section_abcd(s, f) for s in net.sections] or [nw.IDENTITY])
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        s11 = nw.abcd_to_s(m, z01, z02)[0]
        gamma = nw.reflection(nw.input_impedance(m, z02), z01)
        assert abs(s11 - gamma) <= 1e-12


def test_vswr():
    assert nw.vswr(0.0) == 1.0
    assert abs(nw.vswr(1 / 3) - 2.0) <= 1e-12
    assert nw.vswr(0.316228) == pytest.approx(VSWR_0P316228, rel=1e-9)
    assert nw.vswr(10 ** (-10 / 20)) == pytest.approx(VSWR_M10DB, rel=1e-9)
    for bad in (1.0, 1.5, -0.1):
        with pytest.raises(nw.OutOfRange):
            nw.vswr(bad)


def test_sweep_grid_validation():
    grid = nw.SweepGrid(1e9, 4e9, 301)
    freqs = grid.frequencies()
    assert len(freqs) == 301
    assert freqs[0] == 1e9 and freqs[-1] == 4e9
    steps = np.diff(freqs)
    assert np.allclose(steps, steps[0], rtol=1e-9)
    with pytest.raises(nw.InvalidGrid):
        nw.SweepGrid(0.0, 1e9, 10)
    with pytest.raises(nw.InvalidGrid):
        nw.SweepGrid(2e9, 1e9, 10)
    with pytest.raises(nw.InvalidGrid):
        nw.SweepGrid(1e9, 2e9, 1)
    for start, stop in ((1e9, math.inf), (1e9, math.nan), (math.nan, 2e9)):
        with pytest.raises(nw.InvalidGrid):
            nw.SweepGrid(start, stop, 10)


def test_a_grid_holds_one_read_only_frequency_array_for_all_its_sweeps():
    grid = nw.SweepGrid(1e9, 4e9, 301)
    freqs = grid.frequencies()
    assert grid.frequencies() is freqs
    assert freqs.tobytes() == np.linspace(1e9, 4e9, 301).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        freqs[0] = 0
    for net in (reference_ladder(), reference_ladder()):
        assert np.shares_memory(nw.sweep(net, grid).frequencies, freqs)
    assert grid == nw.SweepGrid(1e9, 4e9, 301) and "freq" not in repr(grid)


def test_a_grid_beyond_memory_is_refused_naming_its_points():
    # numpy refuses both sizes before allocating anything
    for points in (10**13, 10**19):
        with pytest.raises(nw.InvalidGrid, match=f"^{points} points do not fit in memory$"):
            nw.SweepGrid(1e9, 2e9, points).frequencies()


def _whole_grid_s(net, f):
    """(s11, s12, s21, s22) of one pass over the whole grid: what the blocked sweep must equal."""
    z01, z02 = net.input_port_impedance, net.output_port_impedance
    s11, s21, s22 = nw._abcd_to_s(nw.netlist_abcd_array(net, f), z01, z02)
    return s11, s21, s21, s22


@pytest.mark.parametrize("points", [2, 4095, 4096, 4097, 12289, 100_001])
def test_blocked_sweep_is_bit_identical_to_one_whole_grid_pass(points):
    rng = np.random.default_rng(points)
    grid = nw.SweepGrid(0.1e9, 6e9, points)
    f = grid.frequencies()
    for net in (reference_ladder(), random_netlist(rng, True), random_netlist(rng, False)):
        trace = nw.sweep(net, grid)
        assert trace.frequencies.tobytes() == f.tobytes()
        got = (trace.s11, trace.s12, trace.s21, trace.s22)
        for name, a, b in zip(("s11", "s12", "s21", "s22"), got, _whole_grid_s(net, f)):
            assert a.tobytes() == b.tobytes(), name


def test_s_conversion_shares_its_terms_without_reordering_them():
    # each S-parameter written out in full: sharing a*z02, c*z01*z02 and d*z01
    # between them must leave every bit of every result as it was
    rng = np.random.default_rng(8)
    f = nw.SweepGrid(0.1e9, 6e9, 1201).frequencies()
    for net in (reference_ladder(), random_netlist(rng, True), random_netlist(rng, False)):
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        m = nw.netlist_abcd_array(net, f)
        denom = m.a * z02 + m.b + m.c * z01 * z02 + m.d * z01
        written_out = (
            (m.a * z02 + m.b - m.c * z01 * z02 - m.d * z01) / denom,
            2.0 * math.sqrt(z01 * z02) / denom,
            (-m.a * z02 + m.b - m.c * z01 * z02 + m.d * z01) / denom,
        )
        for a, b in zip(nw._abcd_to_s(m, z01, z02), written_out):
            assert a.tobytes() == b.tobytes()
        assert nw._s11(m, z01, z02).tobytes() == written_out[0].tobytes()


def full_product_cascade(sections, w):
    """The chain walk as it was before steps: each section's full 2x2 matrix, multiplied in.

    The oracle of the two tests below; it shares only `AbcdMatrix` and the
    speed of light with `nw._cascade`.
    """

    def entries(topology, p):
        if topology == "tline":
            theta = w * np.sqrt(p["eps_eff"]) * p["len"] / nw.SPEED_OF_LIGHT
            cos, sin = np.cos(theta), np.sin(theta)
            return cos, 1j * p["z0"] * sin, 1j * sin / p["z0"], cos
        jw = 1j * w
        if topology == "series_rl_shunt_c":
            z, y = jw * p["L"] + p.get("R", 0.0), jw * p["C"]
            return 1.0 + z * y, z, y, 1.0
        if topology == "shunt_parallel_rlc":
            y = 0.0
            y = y + 1.0 / p["R"] if "R" in p else y
            y = y + 1.0 / (jw * p["L"]) if "L" in p else y
            y = y + jw * p["C"] if "C" in p else y
            return 1.0, 0.0, y, 1.0
        z = 0.0
        z = z + p["R"] if "R" in p else z
        z = z + jw * p["L"] if "L" in p else z
        z = z + 1.0 / (jw * p["C"]) if "C" in p else z
        return (1.0, z, 0.0, 1.0) if topology == "series_rlc" else (1.0, 0.0, 1.0 / z, 1.0)

    total = None
    for topology, params in sections:
        m = entries(topology, params)
        if total is not None:
            (ta, tb, tc, td), (a, b, c, d) = total, m
            m = (ta * a + tb * c, ta * b + tb * d, tc * a + td * c, tc * b + td * d)
        total = m
    return nw.AbcdMatrix(*np.broadcast_arrays(*(total or (1.0, 0.0, 0.0, 1.0)), w)[:4])


# every section form: each topology with each allowed set of its parameters
SECTION_FORMS = (
    ("tline", ("z0", "eps_eff", "len")),
    ("series_rl_shunt_c", ("L", "C")),
    ("series_rl_shunt_c", ("R", "L", "C")),
) + tuple(
    (topology, keys)
    for topology in RLC_TOPOLOGIES if topology != "series_rl_shunt_c"
    for n in (1, 2, 3) for keys in itertools.combinations("RLC", n)
)
_SPANS = {"R": (1.0, 50.0), "L": (1e-9, 2e-8), "C": (1e-15, 5e-12),
          "z0": (4.5, 80.0), "eps_eff": (1.0, 4.4), "len": (1e-3, 0.1)}


def _oracle_ladders():
    """The empty ladder, each section form alone, random mixes of the forms with a
    line first, in the middle and last, and random netlists."""
    rng = np.random.default_rng(22)

    def draw(forms):
        sections = [Section(f"s{k}", t, {key: log_uniform(rng, *_SPANS[key]) for key in keys})
                    for k, (t, keys) in enumerate(forms)]
        return Netlist(log_uniform(rng, 5.0, 100.0), log_uniform(rng, 1.0, 100.0), tuple(sections))

    ladders = [Netlist(50.0, 4.5)] + [draw([form]) for form in SECTION_FORMS]
    for _ in range(60):
        picks = rng.integers(1, len(SECTION_FORMS), int(rng.integers(2, 7)))  # any form but the line
        mix = [SECTION_FORMS[k] for k in picks]
        ladders += [draw(mix[:at] + [SECTION_FORMS[0]] + mix[at:])
                    for at in (0, len(mix) // 2, len(mix))]
    return ladders + [random_netlist(rng, k % 2 == 0) for k in range(60)]


def _assert_close_to_oracle(got, expected):
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def test_sweep_matches_the_full_product_cascade():
    grid = nw.SweepGrid(0.1e9, 6e9, 2001)
    w = 2.0 * np.pi * grid.frequencies()
    for net in _oracle_ladders():
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        pairs = [(s.topology, s.params) for s in net.sections]
        trace = nw.sweep(net, grid)
        expected = nw._abcd_to_s(full_product_cascade(pairs, w), z01, z02)
        for got, want in zip((trace.s11, trace.s21, trace.s22), expected):
            _assert_close_to_oracle(got, want)


_DB_OF_REL_1E_12 = 20.0 * math.log10(1.0 + 1e-12)  # |s11| within rel 1e-12, in dB


def _assert_db_close_to_oracle(got, s11):
    expected = np.broadcast_to(nw.magnitude_db(s11), got.shape)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=_DB_OF_REL_1E_12)


def _with_columns(pairs, rng, rows):
    """The ladder as it is, then with a (rows, 1) column of values on its first
    section and on its last."""
    batches = [pairs]
    for k in sorted({0, len(pairs) - 1}) if pairs else ():
        topology, params = pairs[k]
        key = sorted(params)[int(rng.integers(len(params)))]
        column = params[key] * rng.uniform(0.5, 2.0, (rows, 1))
        batches.append(pairs[:k] + [(topology, {**params, key: column})] + pairs[k + 1:])
    return batches


def test_batch_s11_matches_the_full_product_cascade():
    rng = np.random.default_rng(23)
    w = 2.0 * np.pi * nw.SweepGrid(0.3e9, 6e9, 201).frequencies()
    for net in _oracle_ladders():
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        pairs = [(s.topology, s.params) for s in net.sections]
        for batch in _with_columns(pairs, rng, 5):
            rows = 1 if batch is pairs else 5
            expected = nw._s11(full_product_cascade(batch, w), z01, z02)
            _assert_close_to_oracle(nw._s11(nw._cascade(batch, w), z01, z02), expected)
            got = nw._batch_s11_db(batch, w, rows, z01, z02)
            assert got.shape == (rows, len(w))
            _assert_db_close_to_oracle(got, expected)


def test_batch_s11_fills_blocks_of_parameter_sets_times_frequencies(monkeypatch):
    # 7 sets x 1,201 points: blocks of 4096 // 7 = 585 frequencies, the last one short
    rng = np.random.default_rng(24)
    w = 2.0 * np.pi * nw.SweepGrid(0.3e9, 6e9, 1201).frequencies()
    step = nw._BLOCK // 7
    lengths = []
    walk = nw._cascade

    def recorded(sections, w_block):
        lengths.append(len(w_block))
        return walk(sections, w_block)

    monkeypatch.setattr(nw, "_cascade", recorded)
    for net in _oracle_ladders()[-12:]:
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        pairs = [(s.topology, s.params) for s in net.sections]
        for batch in _with_columns(pairs, rng, 7)[1:]:
            lengths.clear()
            got = nw._batch_s11_db(batch, w, 7, z01, z02)
            assert lengths == [step, step, len(w) - 2 * step]
            _assert_db_close_to_oracle(got, nw._s11(full_product_cascade(batch, w), z01, z02))


def _identity_blocks(monkeypatch, crafted):
    """Replace the chain with identity blocks; `crafted(k, entries)` edits the k-th.

    Returns the lengths of the blocks the sweep asked for.
    """
    lengths = []

    def blocks(net, f):
        entries = [np.full(len(f), x, complex) for x in (1, 0, 0, 1)]
        crafted(len(lengths), entries)
        lengths.append(len(f))
        return nw.AbcdMatrix(*entries)

    monkeypatch.setattr(nw, "netlist_abcd_array", blocks)
    return lengths


BLOCKED_GRID = nw.SweepGrid(1e9, 2e9, 3 * nw._BLOCK + 1)
BLOCK_LENGTHS = [nw._BLOCK] * 3 + [1]


def test_an_overflow_in_the_last_block_alone_is_not_finite(monkeypatch):
    def crafted(k, entries):
        if k == 3:
            entries[0][:] = np.inf

    lengths = _identity_blocks(monkeypatch, crafted)
    with pytest.raises(nw.NonFiniteResult):
        nw.sweep(reference_ladder(), BLOCKED_GRID)
    assert lengths == BLOCK_LENGTHS


def test_a_vanishing_denominator_in_any_block_comes_before_an_earlier_overflow(monkeypatch):
    def crafted(k, entries):
        if k == 0:
            entries[0][:] = np.inf
        if k == 2:
            entries[0][5] = entries[3][5] = 0  # a, b, c, d all zero: the denominator too

    lengths = _identity_blocks(monkeypatch, crafted)
    with pytest.raises(nw.DegenerateDenominator):
        nw.sweep(reference_ladder(), BLOCKED_GRID)
    assert lengths == BLOCK_LENGTHS[:3]


def test_sweep_peaks_below_one_and_a_half_times_its_trace():
    grid = nw.SweepGrid(0.1e9, 6e9, 100_001)
    net = reference_ladder()
    tracemalloc.start()
    try:
        trace = nw.sweep(net, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(trace.s12, trace.s21)
    arrays = (trace.frequencies, trace.s11, trace.s21, trace.s22)  # s12 is s21's memory
    assert peak < 1.5 * sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("fmt", ["RI", "DB"])
def test_touchstone_read_peaks_below_four_times_its_text(criterion_9_sweep, fmt):
    text = ts.write_touchstone(criterion_9_sweep, fmt)
    tracemalloc.start()
    try:
        ts.read_touchstone(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(text.encode())


def test_sweep_rejects_non_finite_results():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"L": 1e300}),))
    with pytest.raises(nw.NonFiniteResult):
        nw.sweep(net, nw.SweepGrid(1e9, 4e9, 31))


@pytest.mark.parametrize("text,fstart,fstop,points", ZERO_BRANCH_CASES)
def test_sweep_of_a_zero_branch_is_not_finite(text, fstart, fstop, points):
    with pytest.raises(nw.NonFiniteResult, match="impedance or admittance is zero"):
        nw.sweep(parse(text), nw.SweepGrid(fstart, fstop, points))


def test_sweep_of_frequency_independent_ladder_has_grid_length():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"R": 50.0}),))
    total = nw.netlist_abcd_array(net, np.array([1e9, 2e9, 3e9]))
    assert total.a.shape == total.b.shape == (3,)
    assert len(nw.sweep(Netlist(50.0, 4.5), nw.SweepGrid(1e9, 4e9, 7))) == 7


def test_sweep_series_fifty_flat():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"R": 50.0}),))
    trace = nw.sweep(net, nw.SweepGrid(1e9, 4e9, 31))
    assert np.all(np.abs(trace.s11 - 1 / 3) <= 1e-12)
    assert np.all(np.abs(trace.s21 - 2 / 3) <= 1e-12)


def test_sweep_empty_sections_is_impedance_step():
    net = Netlist(50.0, 4.5)
    trace = nw.sweep(net, nw.SweepGrid(1e9, 4e9, 11))
    assert np.all(np.abs(trace.s11 - REFL_STEP) < 1e-9)


def test_sweep_shape_and_references():
    trace = nw.sweep(reference_ladder(), nw.SweepGrid(0.1e9, 6e9, 201))
    assert len(trace) == 201
    assert trace.reference_impedances == (50.0, 4.5)
    assert trace.s21 is not None and trace.s12 is not None and trace.s22 is not None
    assert np.all(np.diff(trace.frequencies) > 0)


def test_trace_validation():
    from rfladder.errors import InputError

    with pytest.raises(InputError):
        nw.SParameterTrace(np.array([1e9, 2e9]), np.array([0j]))
    with pytest.raises(InputError):
        nw.SParameterTrace(np.array([2e9, 1e9]), np.array([0j, 0j]))
    with pytest.raises(InputError):
        nw.SParameterTrace(np.array([-1e9, 1e9]), np.array([0j, 0j]))
    with pytest.raises(InputError, match="^s21 length differs"):
        nw.SParameterTrace(np.array([1e9, 2e9]), np.array([0j, 0j]), np.array([0j]))
    with pytest.raises(InputError, match="^s21 length differs"):  # before s11's
        nw.SParameterTrace(np.array([1e9, 2e9]), np.array([0j]), np.array([0j]))
    with pytest.raises(InputError, match="^frequencies must be finite"):
        nw.SParameterTrace([1e9, 2e9, math.inf], np.zeros(3, complex))
    for refs in ((-5.0, 50.0), (50.0, 0.0), (math.inf, 50.0), (50.0, math.nan)):
        with pytest.raises(InputError, match="^reference impedances must be finite and > 0"):
            nw.SParameterTrace([1e9, 2e9], [0j, 0j], reference_impedances=refs)
    with pytest.raises(InputError, match="^frequencies must be one-dimensional"):
        nw.SParameterTrace(np.array([[1e9, 2e9], [3e9, 4e9]]), np.zeros(2, complex))
    with pytest.raises(InputError, match="^s22 must be one-dimensional"):
        nw.SParameterTrace([1e9], [0j], [0j], [0j], 0j)


def test_trace_arrays_refuse_writes_however_the_trace_was_built():
    freqs, real, s = np.array([1e9, 2e9, 3e9]), np.array([0.1, 0.2, 0.3]), np.full(3, 0.4j)
    from_complex = nw.SParameterTrace(freqs, s, s, s, s)
    traces = [
        nw.SParameterTrace([1e9, 2e9, 3e9], [0.1, 0.2j, 0], [1, 2, 3], [0j] * 3, [0.5] * 3),
        nw.SParameterTrace(freqs, real, real, real, real),
        from_complex,
        nw.sweep(reference_ladder(), nw.SweepGrid(1e9, 3e9, 3)),
        ts.read_touchstone(ts.write_touchstone(nw.SParameterTrace(freqs, s))),  # .s1p
        ts.read_touchstone(ts.write_touchstone(from_complex)),  # .s2p
    ]
    assert traces[-2].s21 is None and traces[-1].s22 is not None
    for trace in traces:
        for array in (trace.frequencies, trace.s11, trace.s21, trace.s12, trace.s22):
            if array is not None:
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
    # where no conversion is needed the trace views the caller's array, which stays writable
    assert np.shares_memory(from_complex.frequencies, freqs)
    assert np.shares_memory(from_complex.s11, s)
    for array in (freqs, real, s):
        assert array.flags.writeable
        array[0] = 0


def test_magnitude_db_clamps_zero():
    db = nw.magnitude_db(np.array([0j, 1.0 + 0j, 0.1 + 0j]))
    assert db[0] == nw.DB_FLOOR
    assert db[1] == 0.0
    assert db[2] == pytest.approx(-20.0, rel=1e-12)


def _fold_input_impedance(net, f):
    """Independent oracle: reduce the ladder load-to-source by impedance
    folding (series add, shunt parallel, tline transform), no matrices."""
    w = 2 * math.pi * f

    def branch(p):
        z = complex(p.get("R", 0.0))
        if "L" in p:
            z += 1j * w * p["L"]
        if "C" in p:
            z += 1.0 / (1j * w * p["C"])
        return z

    z = complex(net.output_port_impedance)
    for section in reversed(net.sections):
        p = section.params
        if section.topology == "series_rlc":
            z = z + branch(p)
        elif section.topology == "shunt_series_rlc":
            z = 1.0 / (1.0 / z + 1.0 / branch(p))
        elif section.topology == "shunt_parallel_rlc":
            y = 0j
            if "R" in p:
                y += 1.0 / p["R"]
            if "L" in p:
                y += 1.0 / (1j * w * p["L"])
            if "C" in p:
                y += 1j * w * p["C"]
            z = 1.0 / (1.0 / z + y)
        elif section.topology == "series_rl_shunt_c":
            z = 1.0 / (1.0 / z + 1j * w * p["C"])  # shunt C sits load-side
            z = z + p.get("R", 0.0) + 1j * w * p["L"]
        else:  # tline
            tan = math.tan(w * math.sqrt(p["eps_eff"]) * p["len"] / nw.SPEED_OF_LIGHT)
            z = p["z0"] * (z + 1j * p["z0"] * tan) / (p["z0"] + 1j * z * tan)
    return z


def test_sweep_matches_impedance_folding_oracle():
    rng = np.random.default_rng(314)
    grid = nw.SweepGrid(0.1e9, 6e9, 41)
    freqs = grid.frequencies()
    for _ in range(200):
        net = random_netlist(rng)
        trace = nw.sweep(net, grid)
        for k in range(0, 41, 8):
            z = _fold_input_impedance(net, float(freqs[k]))
            gamma = (z - net.input_port_impedance) / (z + net.input_port_impedance)
            assert abs(gamma - trace.s11[k]) < 1e-9


def test_quarter_wave_transformer():
    # at theta = pi/2 a tline transforms the load to z0^2 / ZL
    z0, ee, length = 75.0, 4.0, 0.0125
    f = nw.SPEED_OF_LIGHT / (4.0 * length * math.sqrt(ee))
    net = Netlist(112.5, 50.0, (Section("q", "tline", {"z0": z0, "eps_eff": ee, "len": length}),))
    m = nw.section_abcd(net.sections[0], f)
    zin = nw.input_impedance(m, 50.0)
    assert zin == pytest.approx(75.0**2 / 50.0, rel=1e-9)
    # matched source sees no reflection there
    assert abs(nw.reflection(zin, 112.5)) < 1e-9


def test_property_corpus_small():
    # the 1000-netlist version runs in the acceptance suite
    rng = np.random.default_rng(42)
    grid = nw.SweepGrid(0.1e9, 6e9, 201)
    freqs = grid.frequencies()
    for trial in range(200):
        lossless = trial % 2 == 0
        net = random_netlist(rng, lossless)
        trace = nw.sweep(net, grid)
        assert float(np.abs(trace.s11).max()) <= 1 + 1e-9
        assert float(np.abs(trace.s12 - trace.s21).max()) <= 1e-12
        if lossless:
            power = np.abs(trace.s11) ** 2 + np.abs(trace.s21) ** 2
            assert float(np.abs(power - 1).max()) <= 1e-9
        total = nw.netlist_abcd_array(net, freqs)
        zin = (total.a * net.output_port_impedance + total.b) / (
            total.c * net.output_port_impedance + total.d
        )
        gamma = (zin - net.input_port_impedance) / (zin + net.input_port_impedance)
        assert float(np.abs(gamma - trace.s11).max()) <= 1e-12


PORT_2_GRID = nw.SweepGrid(0.1e9, 6e9, 201)


def _port_2_draws(lossless):
    """200 seeded random netlists, some with a line, each with its sweep on PORT_2_GRID."""
    rng = np.random.default_rng(27 + lossless)
    nets = [random_netlist(rng, lossless) for _ in range(200)]
    assert any(s.topology == "tline" for net in nets for s in net.sections)
    return [(net, nw.sweep(net, PORT_2_GRID)) for net in nets]


def test_lossless_port_2_conserves_power_and_is_orthogonal_to_port_1():
    # the columns of a lossless S are orthonormal: |s12|^2 + |s22|^2 = 1, s11 s12* + s21 s22* = 0
    for _, trace in _port_2_draws(lossless=True):
        power = np.abs(trace.s12) ** 2 + np.abs(trace.s22) ** 2
        assert float(np.abs(power - 1).max()) <= 1e-12
        cross = trace.s11 * np.conj(trace.s12) + trace.s21 * np.conj(trace.s22)
        assert float(np.abs(cross).max()) <= 1e-12


def test_lossy_s_matrix_is_passive():
    # I - S^H S is positive semidefinite: no port pair gives out more power than it takes in
    for _, trace in _port_2_draws(lossless=False):
        s = np.stack([[trace.s11, trace.s12], [trace.s21, trace.s22]]).transpose(2, 0, 1)
        absorbed = np.eye(2) - np.conj(s.transpose(0, 2, 1)) @ s
        assert float(np.linalg.eigvalsh(absorbed).min()) >= -1e-12


def test_s22_is_the_s11_of_the_mirrored_ladder():
    # seen from port 2 the ladder runs backwards: sections reversed, each [[d, b], [c, a]]
    f = PORT_2_GRID.frequencies()
    for net, trace in _port_2_draws(lossless=False):
        z01, z02 = net.input_port_impedance, net.output_port_impedance
        mirrored = []
        for section in reversed(net.sections):
            m = nw.netlist_abcd_array(Netlist(z01, z02, (section,)), f)
            mirrored.append(nw.AbcdMatrix(m.d, m.b, m.c, m.a))
        s11_of_mirror = nw.abcd_to_s(nw.cascade(mirrored or [nw.IDENTITY]), z02, z01)[0]
        _assert_close_to_oracle(trace.s22, np.broadcast_to(s11_of_mirror, f.shape))


def test_section_matrices_are_reciprocal():
    rng = np.random.default_rng(5)
    for _ in range(300):
        net = random_netlist(rng)
        f = float(rng.uniform(0.1e9, 6e9))
        for section in net.sections:
            m = nw.section_abcd(section, f)
            assert abs(m.determinant() - 1) <= 1e-9


def test_reference_ladder_cascade_reciprocal():
    # every section is reciprocal, so the sweep's s12 is its s21: one read-only array
    rng = np.random.default_rng(6)
    grid = nw.SweepGrid(0.1e9, 6e9, 201)
    nets = [reference_ladder()] + [random_netlist(rng, k % 2 == 0) for k in range(50)]
    for net in nets:
        trace = nw.sweep(net, grid)
        assert trace.s12.tobytes() == trace.s21.tobytes()
        assert np.shares_memory(trace.s12, trace.s21)
        for array in (trace.s12, trace.s21):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


def test_scalar_cascade_of_examples_reciprocal():
    # ladder-scale cascades keep even the raw determinant within the bound
    sections = [
        Section("a", "series_rlc", {"R": 3.3, "L": 2.39e-9}),
        Section("b", "shunt_parallel_rlc", {"C": 0.417e-12}),
        Section("c", "tline", {"z0": 50.7, "eps_eff": 3.326, "len": 0.06}),
    ]
    for f in (0.5e9, 1e9, 2.5e9, 6e9):
        total = nw.cascade([nw.section_abcd(s, f) for s in sections])
        assert abs(total.determinant() - 1) <= 1e-9
