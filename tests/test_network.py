import cmath
import math

import numpy as np
import pytest

from conftest import random_netlist, reference_ladder
from rfladder import network as nw
from rfladder.errors import NonPositiveFrequency
from rfladder.netlist import Netlist, Section

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


def test_sweep_rejects_non_finite_results():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"L": 1e300}),))
    with pytest.raises(nw.NonFiniteResult):
        nw.sweep(net, nw.SweepGrid(1e9, 4e9, 31))


def test_sweep_of_frequency_independent_ladder_has_grid_length():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"R": 50.0}),))
    total, det = nw.netlist_abcd_array(net, np.array([1e9, 2e9, 3e9]))
    assert total.a.shape == total.b.shape == det.shape == (3,)
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
        total, det = nw.netlist_abcd_array(net, freqs)
        zin = (total.a * net.output_port_impedance + total.b) / (
            total.c * net.output_port_impedance + total.d
        )
        gamma = (zin - net.input_port_impedance) / (zin + net.input_port_impedance)
        assert float(np.abs(gamma - trace.s11).max()) <= 1e-12
        assert float(np.abs(det - 1).max()) <= 1e-9


def test_section_matrices_are_reciprocal():
    rng = np.random.default_rng(5)
    for _ in range(300):
        net = random_netlist(rng)
        f = float(rng.uniform(0.1e9, 6e9))
        for section in net.sections:
            m = nw.section_abcd(section, f)
            assert abs(m.determinant() - 1) <= 1e-9


def test_reference_ladder_cascade_reciprocal():
    # the engine carries the cascade determinant as the product of the
    # per-section determinants; the raw a*d - b*c of the multiplied-out
    # cascade is ill-conditioned when entries grow large
    freqs = nw.SweepGrid(0.1e9, 6e9, 1201).frequencies()
    _, det = nw.netlist_abcd_array(reference_ladder(), freqs)
    assert float(np.abs(det - 1).max()) <= 1e-9


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
