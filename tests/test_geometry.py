import dataclasses
import math
import pickle

import pytest

from rfladder import geometry as geo

# Expected dimension values in millimeters.
EXPECTED_MM = {
    "L1": 24.0,
    "L2": 10.5,
    "L3": 8.5,
    "L4": 7.5,
    "L5": 6.75,
    "L6": 63.0,
    "Lt": 120.75,
    "W1": 51.0,
    "W2": 36.0,
    "W3": 27.0,
    "W4": 18.0,
    "Wp": 62.0,
    "We": 3.7,
    "Wt": 78.0,
    "a": 24.0,
    "b": 24.0,
    "c": 7.1,
    "d1": 9.66,
    "e": 3.7,
    "f": 3.8,
    "g": 16.0,
    "i": 5.3,
    "j": 3.25,
    "k": 67.5,
    "Wa": 3.2,
    "m": 3.7,
}


@pytest.mark.parametrize("name,mm", sorted(EXPECTED_MM.items()))
def test_canonical_dimension(geometry, name, mm):
    assert geometry.dimensions[name] == pytest.approx(mm * 1e-3, rel=1e-12)


def test_canonical_dimension_set_is_exact(geometry):
    assert set(geometry.dimensions) == set(EXPECTED_MM) == set(geo.DIMENSION_KEYS)


def test_canonical_totals(geometry):
    assert geometry.dimensions["Lt"] == pytest.approx(0.12075, rel=1e-12)
    assert geometry.dimensions["Wt"] == pytest.approx(0.078, rel=1e-12)
    assert geometry.dimensions["W1"] == pytest.approx(0.051, rel=1e-12)
    assert geometry.dimensions["L2"] == pytest.approx(0.0105, rel=1e-12)


def test_canonical_substrate(geometry):
    assert geometry.substrate.relative_permittivity == 4.4
    assert geometry.substrate.thickness == pytest.approx(0.0017, rel=1e-12)


def test_vacuum_constants_are_fixed():
    sub = geo.Substrate(4.4, 1.7e-3)
    assert sub.vacuum_permittivity == 8.85e-12
    assert sub.vacuum_permeability == 4e-7 * math.pi
    with pytest.raises(TypeError):
        geo.Substrate(4.4, 1.7e-3, vacuum_permittivity=8.854e-12)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sub.vacuum_permittivity = 1.0


def test_canonical_cavities(cavities):
    assert len(cavities) == 6
    expected = [(3.2, 60.0), (18.0, 7.0), (27.0, 7.5), (36.0, 8.5), (51.0, 10.5), (62.0, 24.0)]
    for cav, (w_mm, d_mm) in zip(cavities, expected):
        assert cav.width == pytest.approx(w_mm * 1e-3, rel=1e-12)
        assert cav.length == pytest.approx(d_mm * 1e-3, rel=1e-12)
        assert cav.thickness == pytest.approx(1.7e-3, rel=1e-12)
        assert cav.block_factor == 1
    assert cavities[1].width == pytest.approx(0.018, rel=1e-12)
    assert cavities[1].length == pytest.approx(0.007, rel=1e-12)
    assert cavities[5].width == pytest.approx(0.062, rel=1e-12)
    assert cavities[5].length == pytest.approx(0.024, rel=1e-12)


def test_cavity_widths_strictly_increase(cavities):
    widths = [c.width for c in cavities[1:]]
    assert widths == sorted(widths)
    assert len(set(widths)) == len(widths)


def test_round_trip_geometry(geometry):
    assert geo.load_geometry(geo.serialize_geometry(geometry)) == geometry


def test_round_trip_with_cavities(geometry, cavities):
    text = geo.serialize_geometry(geometry, cavities)
    doc = geo.parse_geometry_file(text)
    assert doc.geometry == geometry
    assert list(doc.cavities) == cavities


def test_round_trip_awkward_values():
    dims = dict(geo.canonical_geometry().dimensions)
    dims["W1"] = 0.051000000000000004  # not a clean decimal in mm
    dims["L1"] = 1.0 / 3.0
    original = geo.AntennaGeometry(dims, geo.Substrate(4.4, 1.7e-3))
    assert geo.load_geometry(geo.serialize_geometry(original)) == original


def test_cavity_override_lines(geometry):
    text = geo.serialize_geometry(geometry) + "cavity 1 W=20 d=6.5 n=3\ncavity 5 n=2\n"
    doc = geo.parse_geometry_file(text)
    assert doc.cavities[1].width == pytest.approx(0.020, rel=1e-12)
    assert doc.cavities[1].length == pytest.approx(0.0065, rel=1e-12)
    assert doc.cavities[1].block_factor == 3
    assert doc.cavities[5].block_factor == 2
    # untouched entries keep the canonical table
    assert doc.cavities[2].width == pytest.approx(0.027, rel=1e-12)


def test_cavity_override_units(geometry):
    text = geo.serialize_geometry(geometry) + "cavity 2 W=0.03m d=9mm\n"
    doc = geo.parse_geometry_file(text)
    assert doc.cavities[2].width == pytest.approx(0.03, rel=1e-12)
    assert doc.cavities[2].length == pytest.approx(0.009, rel=1e-12)


def test_dimension_line_in_meters(geometry):
    text = geo.serialize_geometry(geometry).replace("W1 = 51 mm", "W1 = 0.051 m")
    assert geo.load_geometry(text).dimensions["W1"] == pytest.approx(0.051, rel=1e-15)


def test_comments_and_blank_lines(geometry):
    text = "# header\n\n" + geo.serialize_geometry(geometry).replace(
        "er = 4.4", "er = 4.4  # substrate"
    )
    assert geo.load_geometry(text) == geometry


def test_missing_dimension(geometry):
    lines = [ln for ln in geo.serialize_geometry(geometry).splitlines() if not ln.startswith("Wp")]
    with pytest.raises(geo.MissingDimension) as err:
        geo.load_geometry("\n".join(lines))
    assert err.value.name == "Wp"


@pytest.mark.parametrize("drop", ["er", "h"])
def test_missing_substrate_entry(geometry, drop):
    lines = [
        ln
        for ln in geo.serialize_geometry(geometry).splitlines()
        if not ln.startswith(f"{drop} =")
    ]
    with pytest.raises(geo.MissingDimension) as err:
        geo.load_geometry("\n".join(lines))
    assert err.value.name == drop


def test_non_positive_value(geometry):
    text = geo.serialize_geometry(geometry).replace("W1 = 51 mm", "W1 = -3 mm")
    with pytest.raises(geo.NonPositiveValue) as err:
        geo.load_geometry(text)
    assert err.value.name == "W1"


@pytest.mark.parametrize(
    "line,name",
    [
        ("er = 1", "er"),
        ("er = 1e-400", "er"),  # rounds to 0
        ("h = 0 mm", "h"),
        ("Wa = -0.1 m", "Wa"),
        ("cavity 1 W=0", "W"),
        ("cavity 1 W=20 d=-1mm", "d"),
        ("cavity 1 n=0", "n"),
    ],
)
def test_value_below_its_bound_carries_name_and_line(geometry, line, name):
    kept = [ln for ln in geo.serialize_geometry(geometry).splitlines()
            if ln.split()[0] != line.split()[0]]
    text = "\n".join(kept + [line]) + "\n"
    with pytest.raises(geo.NonPositiveValue) as err:
        geo.parse_geometry_file(text)
    assert (err.value.name, err.value.line) == (name, len(kept) + 1)


@pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e400", "4.4x"])
def test_er_takes_the_numbers_lengths_take(geometry, value):
    text = geo.serialize_geometry(geometry).replace("er = 4.4", f"er = {value}")
    with pytest.raises(geo.MalformedLine, match=f"^line 1: bad number '{value}'$"):
        geo.parse_geometry_file(text)
    assert geo.load_geometry(text.replace(f"er = {value}", "er = 44e-1")) == geometry


@pytest.mark.parametrize("line", ["er = 4.4", "er = nan", "h = x mm", "h = 0 mm", "W1 = inf m"])
def test_a_repeated_entry_is_a_duplicate_whatever_its_value(geometry, line):
    text = geo.serialize_geometry(geometry) + line + "\n"
    name = line.split()[0]
    with pytest.raises(geo.MalformedLine, match=f"^line 29: duplicate entry '{name}'$"):
        geo.parse_geometry_file(text)


def test_er_takes_a_single_value(geometry):
    text = geo.serialize_geometry(geometry).replace("er = 4.4", "er = 4.4 5")
    with pytest.raises(geo.MalformedLine, match="^line 1: er takes a single dimensionless value$"):
        geo.parse_geometry_file(text)


def test_unknown_key(geometry):
    text = geo.serialize_geometry(geometry) + "Zz = 4 mm\n"
    with pytest.raises(geo.UnknownKey) as err:
        geo.load_geometry(text)
    assert err.value.name == "Zz"


@pytest.mark.parametrize(
    "bad",
    [
        "W1 51 mm",  # missing =
        "W1 = 51",  # missing unit
        "W1 = 51 cm",  # unknown unit
        "W1 = fifty mm",  # not a number
        "cavity x W=3",  # bad cavity index
        "cavity 9 W=3",  # index outside table
        "cavity 1 Q=3",  # unknown cavity field
        "cavity 1",  # no field
        "what even is this",
    ],
)
def test_malformed_line_carries_line_number(geometry, bad):
    text = geo.serialize_geometry(geometry) + bad + "\n"
    expected_line = len(text.splitlines())
    with pytest.raises(geo.MalformedLine) as err:
        geo.parse_geometry_file(text)
    assert err.value.line == expected_line


def test_a_bad_block_factor_is_a_malformed_line(geometry):
    text = geo.serialize_geometry(geometry) + "cavity 1 n=x\n"
    with pytest.raises(geo.MalformedLine, match="^line 29: bad block factor 'x'$"):
        geo.parse_geometry_file(text)


def test_duplicate_entry_rejected(geometry):
    text = geo.serialize_geometry(geometry) + "W1 = 51 mm\n"
    with pytest.raises(geo.MalformedLine):
        geo.load_geometry(text)


def test_substrate_validation():
    with pytest.raises(geo.NonPositiveValue):
        geo.Substrate(0.9, 1.7e-3)
    with pytest.raises(geo.NonPositiveValue):
        geo.Substrate(4.4, 0.0)
    with pytest.raises(geo.NonPositiveValue):
        geo.Substrate(math.inf, 1.7e-3)
    with pytest.raises(geo.NonPositiveValue):
        geo.Substrate(4.4, math.nan)


def test_cavity_validation():
    with pytest.raises(geo.NonPositiveValue):
        geo.Cavity(0, -1.0, 0.06, 1.7e-3)
    with pytest.raises(geo.NonPositiveValue):
        geo.Cavity(0, 0.0032, math.inf, 1.7e-3)
    with pytest.raises(geo.NonPositiveValue):
        geo.Cavity(0, 0.0032, 0.06, 1.7e-3, block_factor=0)
    with pytest.raises(geo.NonPositiveValue):
        geo.Cavity(-1, 0.0032, 0.06, 1.7e-3)
    for factor in (math.nan, math.inf):
        with pytest.raises(geo.NonPositiveValue) as err:
            geo.Cavity(1, 0.018, 0.007, 1.7e-3, block_factor=factor)
        assert err.value.name == "block_factor"


def test_geometry_type_rejects_bad_maps(geometry):
    incomplete = dict(geometry.dimensions)
    del incomplete["Wa"]
    with pytest.raises(geo.MissingDimension):
        geo.AntennaGeometry(incomplete, geometry.substrate)
    extra = dict(geometry.dimensions)
    extra["Qq"] = 1.0
    with pytest.raises(geo.UnknownKey):
        geo.AntennaGeometry(extra, geometry.substrate)
    negative = dict(geometry.dimensions)
    negative["Wa"] = -1.0
    with pytest.raises(geo.NonPositiveValue):
        geo.AntennaGeometry(negative, geometry.substrate)
    negative["Wa"] = math.inf
    with pytest.raises(geo.NonPositiveValue):
        geo.AntennaGeometry(negative, geometry.substrate)


def test_geometry_keeps_its_own_copy_of_dimensions(geometry):
    dimensions = dict(geometry.dimensions)
    held = geo.AntennaGeometry(dimensions, geometry.substrate)
    dimensions["Wp"] = -1.0  # after the checks ran: the geometry holds what they saw
    assert held == geometry
    assert geo.load_geometry(geo.serialize_geometry(held)) == held
    assert pickle.loads(pickle.dumps(held)) == held
