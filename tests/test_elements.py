import math

import pytest

from rfladder import elements as el
from rfladder.errors import NonFiniteResult, NonPositiveFrequency
from rfladder.geometry import Cavity, canonical_substrate

# Frozen oracle values: 50-digit evaluation of the closed forms,
# rounded to 12 significant digits.
CAP0 = 1.176853333e-15
CAP1 = 4.863526531e-13
IND = {
    1: 2.942033534e-9,
    2: 3.302584072e-9,
    3: 3.934519527e-9,
    4: 5.201913029e-9,
    5: 1.362907207e-8,
}
RES_OMEGA0 = 7.570610853
RES_3P786GHZ = 3.301024173
EPS_62MM = 4.17462353267
Z0_62MM = 4.57989965577
EPS_3P2MM = 3.32599074017
Z0_3P2MM = 50.7074862414
EPS_RATIO1 = 3.17149516679
EPS_1MM = 3.07901645776
Z0_1MM = 89.6155245255
Z0_RATIO1_NARROW = 71.0960641228
Z0_RATIO1_WIDE = 70.8285633802


@pytest.fixture
def substrate():
    return canonical_substrate()


def test_cap_eq_approx_feed_cavity(cavities, substrate):
    value = el.cap_eq_approx(cavities[0], substrate)
    assert value == pytest.approx(CAP0, rel=1e-9)
    # sits 16 % below the reference table's 0.0014 pF
    assert value / 1.4e-15 - 1 == pytest.approx(-0.1594, abs=0.001)


def test_cap_eq_approx_cavity_1(cavities, substrate):
    value = el.cap_eq_approx(cavities[1], substrate)
    assert value == pytest.approx(CAP1, rel=1e-9)
    assert value / 0.417e-12 - 1 == pytest.approx(0.1663, abs=0.001)


def test_cap_eq_approx_scaling_laws(cavities, substrate):
    base = el.cap_eq_approx(cavities[1], substrate)
    wide = Cavity(1, cavities[1].width * 2, cavities[1].length, cavities[1].thickness)
    assert el.cap_eq_approx(wide, substrate) == pytest.approx(2 * base, rel=1e-12)
    long = Cavity(1, cavities[1].width, cavities[1].length * 2, cavities[1].thickness)
    assert el.cap_eq_approx(long, substrate) == pytest.approx(base / 4, rel=1e-12)
    thick = Cavity(1, cavities[1].width, cavities[1].length, cavities[1].thickness * 3)
    assert el.cap_eq_approx(thick, substrate) == pytest.approx(3 * base, rel=1e-12)
    blocks = Cavity(1, cavities[1].width, cavities[1].length, cavities[1].thickness, 5)
    assert el.cap_eq_approx(blocks, substrate) == pytest.approx(5 * base, rel=1e-12)


@pytest.mark.parametrize("index", sorted(IND))
def test_ind_eq_values(cavities, substrate, index):
    assert el.ind_eq(cavities[index], substrate) == pytest.approx(IND[index], rel=1e-9)


def test_ind_eq_table_agreement(cavities, substrate):
    table_nh = {2: 3.28, 3: 3.9, 4: 5.15}
    for index, nh in table_nh.items():
        assert el.ind_eq(cavities[index], substrate) == pytest.approx(nh * 1e-9, rel=0.02)


def test_res_eq_static_and_resonant():
    l, c = 2.39e-9, 0.417e-12
    assert el.res_eq(l, c, 1, 0.0) == pytest.approx(RES_OMEGA0, rel=1e-9)
    omega0 = 1.0 / math.sqrt(l * c)
    # 1/sqrt(LC) is not representable for these decimal values; the
    # bracket annihilates to rounding noise
    assert el.res_eq(l, c, 1, omega0) <= 1e-12
    assert el.res_eq(l, c, 1, 2 * math.pi * 3.786e9) == pytest.approx(RES_3P786GHZ, rel=1e-9)
    # the reference table's 3.3 ohm appears at an in-band frequency
    assert abs(el.res_eq(l, c, 1, 2 * math.pi * 3.786e9) - 3.3) < 5e-3


def test_res_eq_exact_zero_at_representable_resonance():
    l, c = 2.0**-30, 2.0**-32  # LC and 1/sqrt(LC) both exact powers of two
    omega0 = 1.0 / math.sqrt(l * c)
    assert el.res_eq(l, c, 1, omega0) == 0.0


def test_res_eq_linear_in_n():
    l, c = 5e-9, 1e-12
    base = el.res_eq(l, c, 1, 1e10)
    for n in (2, 3, 7):
        assert el.res_eq(l, c, n, 1e10) == pytest.approx(n * base, rel=1e-12)


def test_res_eq_validation():
    with pytest.raises(el.NonPositiveElement):
        el.res_eq(0.0, 1e-12, 1, 0.0)
    with pytest.raises(el.NonPositiveElement):
        el.res_eq(1e-9, -1e-12, 1, 0.0)
    with pytest.raises(el.NonPositiveElement):
        el.res_eq(1e-9, 1e-12, 0, 0.0)
    with pytest.raises(NonPositiveFrequency):
        el.res_eq(1e-9, 1e-12, 1, -1.0)


def test_eps_eff_values():
    assert el.eps_eff(62e-3, 1.7e-3, 4.4) == pytest.approx(EPS_62MM, rel=1e-9)
    assert el.eps_eff(62e-3, 1.7e-3, 4.4) == pytest.approx(4.2, rel=0.007)
    assert el.eps_eff(1e-3, 1.7e-3, 4.4) == pytest.approx(EPS_1MM, rel=1e-9)


def test_eps_eff_branches_meet_at_one():
    # the narrow-side correction vanishes at W/h = 1
    value = el.eps_eff(1.7e-3, 1.7e-3, 4.4)
    assert value == pytest.approx(EPS_RATIO1, rel=1e-9)
    below = el.eps_eff(1.7e-3 * (1 - 1e-12), 1.7e-3, 4.4)
    assert abs(below - value) < 1e-9


def test_z0_values():
    assert el.z0_microstrip(62e-3, 1.7e-3, 4.4) == pytest.approx(Z0_62MM, rel=1e-9)
    assert el.z0_microstrip(62e-3, 1.7e-3, 4.4) == pytest.approx(4.5, rel=0.02)
    assert el.z0_microstrip(3.2e-3, 1.7e-3, 4.4) == pytest.approx(Z0_3P2MM, rel=1e-9)
    assert el.z0_microstrip(1e-3, 1.7e-3, 4.4) == pytest.approx(Z0_1MM, rel=1e-9)


def test_z0_branch_discontinuity_below_one_percent():
    ee = el.eps_eff(1.7e-3, 1.7e-3, 4.4)
    narrow = 60.0 / math.sqrt(ee) * math.log(8.0 + 0.25)
    wide = 120.0 * math.pi / (math.sqrt(ee) * (1 + 1.393 + (2.0 / 3.0) * math.log(2.444)))
    assert narrow == pytest.approx(Z0_RATIO1_NARROW, rel=1e-9)
    assert wide == pytest.approx(Z0_RATIO1_WIDE, rel=1e-9)
    assert abs(narrow - wide) / wide < 0.01
    # the implementation switches branch exactly at W/h = 1
    assert el.z0_microstrip(1.7e-3, 1.7e-3, 4.4) == pytest.approx(wide, rel=1e-12)


@pytest.mark.parametrize("er", [2.2, 4.4, 10.2])
def test_eps_eff_bounds_over_grid(er):
    for k in range(200):
        ratio = 0.05 * (50.0 / 0.05) ** (k / 199.0)
        value = el.eps_eff(ratio * 1.7e-3, 1.7e-3, er)
        assert 1.0 < value < er


@pytest.mark.parametrize("er", [2.2, 4.4, 10.2])
def test_z0_strictly_decreasing_per_branch(er):
    narrow = [0.05 + k * (0.999 - 0.05) / 99 for k in range(100)]
    wide = [1.0 + k * (50.0 - 1.0) / 99 for k in range(100)]
    for grid in (narrow, wide):
        values = [el.z0_microstrip(r * 1.7e-3, 1.7e-3, er) for r in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_branch_label_matches_ratio_test():
    for ratio in (0.05, 0.5, 0.999999, 1.0, 1.000001, 5.0, 36.5):
        result = el.microstrip(ratio * 1.7e-3, 1.7e-3, 4.4)
        assert result.branch == ("narrow" if ratio < 1 else "wide")
        assert result.width_to_height == pytest.approx(ratio, rel=1e-12)


def test_microstrip_bundle():
    result = el.microstrip(62e-3, 1.7e-3, 4.4)
    assert result.effective_permittivity == pytest.approx(EPS_62MM, rel=1e-9)
    assert result.characteristic_impedance == pytest.approx(Z0_62MM, rel=1e-9)
    assert result.branch == "wide"


def test_dimension_validation(substrate):
    with pytest.raises(el.NonPositiveDimension):
        el.eps_eff(-1.0, 1.7e-3, 4.4)
    with pytest.raises(el.NonPositiveDimension):
        el.z0_microstrip(1e-3, 0.0, 4.4)
    with pytest.raises(el.NonPositiveDimension):
        el.eps_eff(1e-3, 1.7e-3, 1.0)


def test_extract_all_shape(cavities, substrate):
    rows = el.extract_all(cavities, substrate, 2.5e9)
    assert len(rows) == len(cavities) == 6
    assert rows[0].inductance is None and rows[0].resistance is None
    assert rows[0].capacitance > 0
    for row in rows[1:]:
        assert row.inductance > 0 and row.capacitance > 0 and row.resistance >= 0
    assert [row.source_cavity_index for row in rows] == list(range(6))


def test_extract_all_uses_block_factor(substrate):
    single = Cavity(1, 0.018, 0.007, 1.7e-3, 1)
    double = Cavity(1, 0.018, 0.007, 1.7e-3, 2)
    row1 = el.extract_all([single], substrate, 2.5e9)[0]
    row2 = el.extract_all([double], substrate, 2.5e9)[0]
    assert row2.capacitance == pytest.approx(2 * row1.capacitance, rel=1e-12)


def test_microstrip_out_of_range_ratio_is_numerical_error():
    with pytest.raises(NonFiniteResult):
        el.microstrip(1e-300, 1e300, 4.4)  # W/h underflows to 0
    with pytest.raises(NonFiniteResult):
        el.microstrip(1e300, 1e-300, 4.4)  # W/h overflows to inf


def test_extract_all_overflow_is_numerical_error(cavities, substrate):
    with pytest.raises(NonFiniteResult):
        el.extract_all(cavities, substrate, 1e200)
    for cavity in (Cavity(1, 1e297, 0.007, 1.7e-3), Cavity(2, 0.027, 1e197, 1.7e-3)):
        with pytest.raises(NonFiniteResult):
            el.extract_all([cavity], substrate)


def test_extract_all_validation(cavities, substrate):
    with pytest.raises(el.ExtractionError):
        el.extract_all([], substrate)
    with pytest.raises(NonPositiveFrequency):
        el.extract_all(cavities, substrate, 0.0)


def test_elements_csv_round_trip(cavities, substrate):
    rows = el.extract_all(cavities, substrate, 2.5e9)
    text = el.elements_to_csv(cavities, rows)
    assert text.splitlines()[0] == el.ELEMENTS_CSV_HEADER
    parsed = el.elements_from_csv(text)
    assert [p.elements for p in parsed] == rows
    assert [p.width for p in parsed] == [c.width for c in cavities]
    assert [p.block_factor for p in parsed] == [c.block_factor for c in cavities]


def test_elements_csv_empty_fields_for_feed(cavities, substrate):
    rows = el.extract_all(cavities, substrate, 2.5e9)
    line = el.elements_to_csv(cavities, rows).splitlines()[1]
    assert line.endswith(",,")


def test_elements_csv_errors():
    with pytest.raises(el.MalformedElementsRow):
        el.elements_from_csv("not,a,header\n")
    good = el.ELEMENTS_CSV_HEADER + "\n0,0.0032,0.06,1,1e-15,,\n"
    el.elements_from_csv(good)
    with pytest.raises(el.MalformedElementsRow) as err:
        el.elements_from_csv(good + "1,0.018,0.007,1\n")
    assert err.value.line == 3
    with pytest.raises(el.MalformedElementsRow):
        el.elements_from_csv(good + "1,x,0.007,1,1e-12,2e-9,3\n")
    for bad in (
        "1,nan,0.007,1,1e-12,2e-9,3",  # non-finite width
        "1,0.018,inf,1,1e-12,2e-9,3",  # non-finite length
        "1,1e400,0.007,1,1e-12,2e-9,3",  # width overflows a float
        "1,0.018,0.007,1,nan,2e-9,3",  # non-finite capacitance
        "1,0.018,0.007,1,1e-12,inf,3",  # non-finite inductance
        "1,0.018,0.007,1,1e-12,2e-9,nan",  # non-finite resistance
        "1,0,0.007,1,1e-12,2e-9,3",  # zero width
        "1,0.018,-0.007,1,1e-12,2e-9,3",  # negative length
        "1,0.018,0.007,1,-1e-12,2e-9,3",  # negative capacitance
    ):
        with pytest.raises(el.MalformedElementsRow) as err:
            el.elements_from_csv(good + bad + "\n")
        assert err.value.line == 3, bad
