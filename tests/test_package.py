import dataclasses
import os
import subprocess
import sys
import types
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import rfladder
from rfladder import elements as el
from rfladder import fitting as ft
from rfladder import geometry as geo
from rfladder import netlist as nl
from rfladder import network as nw
from rfladder.errors import InputError, RfLadderError


def test_all_is_every_public_name_the_package_binds():
    names = rfladder.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(rfladder, name) for name in names)
    bound = {
        name for name, value in vars(rfladder).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(names) == sorted(bound)


def test_python_dash_m_runs_the_cli():
    src = Path(rfladder.__file__).parents[1]  # the tree the suite imports the package from
    run = subprocess.run([sys.executable, "-m", "rfladder", "--version"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert (run.returncode, run.stdout) == (0, f"rfladder {rfladder.__version__}\n")


def _fresh(code: str) -> str:
    """What `code` prints in a new interpreter that imports the package from the suite's tree."""
    src = Path(rfladder.__file__).parents[1]
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_the_numpy_free_modules_import_without_numpy():
    assert _fresh("import sys, rfladder, rfladder.errors, rfladder.sinum, rfladder.geometry,"
                  " rfladder.elements, rfladder.netlist\n"
                  "print('numpy' in sys.modules)\n"
                  "rfladder.sweep\n"
                  "print('numpy' in sys.modules)\n") == "False\nTrue\n"


def test_the_netlist_aliases_are_its_parse_and_serialize():
    assert rfladder.parse_netlist is nl.parse
    assert rfladder.serialize_netlist is nl.serialize


def test_star_import_binds_every_public_name_and_dir_lists_them():
    assert _fresh("import rfladder\n"
                  "print(set(rfladder.__all__) <= set(dir(rfladder)))\n"
                  "from rfladder import *\n"
                  "print(all(name in globals() for name in rfladder.__all__))\n") == "True\nTrue\n"
    assert len(rfladder.__all__) == 50
    namespace = {}
    exec("from rfladder import *", namespace)
    assert all(namespace[name] is getattr(rfladder, name) for name in rfladder.__all__)


# the submodules `import rfladder` bound when it imported them all
MODULES = ("analysis", "elements", "errors", "fitting", "geometry", "netlist", "network",
           "sinum", "touchstone")


def test_each_module_resolves_as_a_package_attribute():
    code = (f"import sys, rfladder\nfor m in {MODULES}:\n"
            "    print(getattr(rfladder, m) is sys.modules['rfladder.' + m])\n")
    assert _fresh(code) == "True\n" * len(MODULES)
    with pytest.raises(AttributeError, match="no_such_name"):
        rfladder.no_such_name


# Each public dataclass that checks numbers, by the numbers it checks: a builder from them, a
# reader of what it holds, and the error of each, its own class unless named per number. A
# value written as an int is a count, held as an int; a float is held as a float.
@dataclasses.dataclass(frozen=True)
class Checked:
    values: dict
    build: Callable[[dict], object]
    read: Callable[[object], dict]
    error: type
    errors: dict = dataclasses.field(default_factory=dict)
    huge: tuple = ()  # the numbers refused later than at construction, if any


def _line():
    return nl.Netlist(50.0, 50.0, (nl.Section("t", "tline", {"z0": 30.0, "eps_eff": 1.3,
                                                                "len": 0.005}),))


def _fields(obj, *names) -> dict:
    return {name: getattr(obj, name) for name in names}


_DIMENSIONS = {**geo.canonical_geometry().dimensions, "Lt": 1.0}
_MASK = ft.Mask(((1e9, 2e9, -10.0),))
_GRID = nw.SweepGrid(1e9, 2e9, 11)
_FIT_OPTIONS = ("tolerance", "max_iterations", "restarts", "seed")

CHECKED = {
    "Substrate": Checked(
        {"relative_permittivity": 4.0, "thickness": 1.7e-3},
        lambda v: geo.Substrate(**v), lambda s: _fields(s, "relative_permittivity", "thickness"),
        geo.NonPositiveValue),
    "AntennaGeometry": Checked(
        _DIMENSIONS, lambda v: geo.AntennaGeometry(v, geo.canonical_substrate()),
        lambda g: g.dimensions, geo.NonPositiveValue),
    "Cavity": Checked(
        {"index": 1, "width": 0.018, "length": 0.007, "thickness": 1.7e-3, "block_factor": 2},
        lambda v: geo.Cavity(**v), dataclasses.asdict, geo.NonPositiveValue),
    "LumpedElements": Checked(
        {"capacitance": 1e-12, "inductance": 2e-9, "resistance": 3.0, "source_cavity_index": 1},
        lambda v: el.LumpedElements(**v), dataclasses.asdict, el.NonPositiveElement,
        {"source_cavity_index": el.ExtractionError}),
    "Section": Checked(
        {"R": 2.0, "L": 1e-9, "C": 1e-12}, lambda v: nl.Section("s", "series_rl_shunt_c", v),
        lambda s: s.params, nl.NonPositiveParameter),
    "Netlist": Checked(
        {"input_port_impedance": 50.0, "output_port_impedance": 4.5}, lambda v: nl.Netlist(**v),
        lambda n: _fields(n, "input_port_impedance", "output_port_impedance"),
        nl.NonPositiveParameter),
    "SParameterTrace": Checked(
        {"z1": 50.0, "z2": 4.5},
        lambda v: nw.SParameterTrace([1e9, 2e9], [0j, 0j], reference_impedances=(v["z1"], v["z2"])),
        lambda t: dict(zip(("z1", "z2"), t.reference_impedances)), InputError),
    # a count of points past the largest float is refused as the grid makes its frequencies
    "SweepGrid": Checked(
        {"start": 1e9, "stop": 2e9, "points": 11}, lambda v: nw.SweepGrid(**v),
        dataclasses.asdict, nw.InvalidGrid, huge=("points",)),
    "Mask": Checked(
        {"start": 1e9, "stop": 2e9, "ceiling": -10.0},
        lambda v: ft.Mask(((v["start"], v["stop"], v["ceiling"]),)),
        lambda m: dict(zip(("start", "stop", "ceiling"), m.intervals[0])), ft.InvalidBounds),
    "FitProblem": Checked(
        {"low": 1.0, "high": 13.0, "tolerance": 1e-10, "max_iterations": 3, "restarts": 2,
         "seed": 5},
        lambda v: ft.FitProblem(_line(), (("t", "eps_eff"),), ((v["low"], v["high"]),), _MASK,
                                _GRID, **{k: v[k] for k in _FIT_OPTIONS}),
        lambda p: {"low": p.bounds[0][0], "high": p.bounds[0][1], **_fields(p, *_FIT_OPTIONS)},
        ft.InvalidBounds, dict.fromkeys(_FIT_OPTIONS, InputError)),
}
# public dataclasses that check no number of their own: records the package computes, and a
# feed line, whose numbers the line section that `from_elements` makes of it checks
UNCHECKED = {"BandReport", "SimilarityReport", "FitResult", "MicrostripResult", "FeedLine"}


def test_every_public_dataclass_is_registered():
    public = {name for name in rfladder.__all__
              if dataclasses.is_dataclass(getattr(rfladder, name))}
    assert public == set(CHECKED) | UNCHECKED
    assert not set(CHECKED) & UNCHECKED


def _forms(value):
    """A 0-d array, a numpy scalar and, where the value is whole, a Python int."""
    count = isinstance(value, int)
    yield np.array(value)
    yield np.int64(value) if count else np.float64(value)
    if float(value).is_integer():
        yield int(value)


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_each_checked_public_dataclass_holds_what_it_checked(name):
    entry = CHECKED[name]
    assert entry.read(entry.build(entry.values)) == entry.values
    forms = {k: list(_forms(v)) for k, v in entry.values.items()}
    ints = 0
    for form in range(3):  # a value that is not whole is given as its numpy scalar third
        given = {k: f[min(form, len(f) - 1)] for k, f in forms.items()}
        ints += sum(type(v) is int for v in given.values())
        held = entry.build(given)
        for value in given.values():
            if isinstance(value, np.ndarray):
                value[...] = 0  # after the checks ran: the object holds what they saw
        got = entry.read(held)
        assert got == entry.values
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in entry.values.items()}
    assert ints, "some number is given as a Python int"


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_each_checked_public_dataclass_refuses_an_int_past_the_largest_float(name):
    entry = CHECKED[name]
    for key in entry.values:
        if key in entry.huge:
            continue
        with pytest.raises(RfLadderError) as err:
            entry.build({**entry.values, key: 10**400})
        assert type(err.value) is entry.errors.get(key, entry.error), key


def test_serialized_library_objects_parse_back_equal():
    cavities = [dataclasses.replace(c, block_factor=float(k % 3 + 1), index=float(c.index))
                for k, c in enumerate(geo.canonical_cavities())]  # whole floats: held as ints
    geometry = geo.canonical_geometry()
    text = geo.serialize_geometry(geometry, cavities)
    assert geo.parse_geometry_file(text) == geo.GeometryDocument(geometry, tuple(cavities))
    elements = el.extract_all(cavities, geometry.substrate)
    rows = el.elements_from_csv(el.elements_to_csv(cavities, elements))
    assert rows == [el.ElementRow(c.index, c.width, c.length, c.block_factor, e)
                    for c, e in zip(cavities, elements)]
    feed = el.microstrip(cavities[0].width, geometry.substrate.thickness,
                         geometry.substrate.relative_permittivity)
    netlist = nl.from_elements(elements, nl.FeedLine(feed.characteristic_impedance,
                                                     feed.effective_permittivity, 0.06))
    assert nl.parse(nl.serialize(netlist)) == netlist
