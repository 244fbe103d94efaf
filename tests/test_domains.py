"""Each site that checks a scalar quantity, walked against the rule this file pins for it.

A site is one `require` call in `src/`, reached through the public call or
reader that makes it. Its name and rule are written here, not read from
`errors.DOMAINS`, so an edit of the table made for one module shows at
every other site that reads the same entry. At each site the boundary
value is accepted exactly when the rule is closed, a value one past it
is refused, a value one inside it is accepted, and NaN, both
infinities and an integer above the largest float, whose `float`
overflows, are refused; a refusal has the site's error class, its line,
and a message that states the rule. Where the value is text, a number
parser meets NaN and the infinities first and refuses them at the same
line with its own message.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from rfladder import analysis as an
from rfladder import cli, sinum
from rfladder import elements as el
from rfladder import fitting as ft
from rfladder import geometry as geo
from rfladder import netlist as nl
from rfladder import network as nw
from rfladder import touchstone as ts
from rfladder.errors import (
    DOMAINS, InputError, NonPositiveFrequency, RfLadderError, domain, require
)

GT0, GE0, GT1, GE1 = (0.0, False), (0.0, True), (1.0, False), (1.0, True)

# nothing the package checks is built at import, so a broken rule fails sites, not collection
_FREE = (("t", "eps_eff"),)


def _line():
    return nl.Netlist(50.0, 50.0, (nl.Section("t", "tline", {"z0": 30.0, "eps_eff": 1.3,
                                                                "len": 0.005}),))


def _fit_problem(bounds=((1.0, 13.0),), free=_FREE, **options):
    mask = ft.Mask(((1e9, 2e9, -10.0),))
    return ft.FitProblem(_line(), free, bounds, mask, nw.SweepGrid(1e9, 2e9, 11), **options)


@dataclass(frozen=True)
class Site:
    where: str  # the call or reader that reaches the check
    name: str
    rule: tuple[float, bool]  # (least value, whether the least is allowed)
    error: type[RfLadderError]
    call: Callable[[float], object]
    line: int | None = None
    parsed: bool = False  # the value is text that a number parser reads first
    beyond: float | None = None  # a refused value; default: one past the least


_HUGE = 10**400  # above the largest float


def _finite(value) -> bool:
    return abs(value) <= sys.float_info.max


def _text(value: float) -> str:
    return sinum.format_bare(value) if _finite(value) else repr(value)


def _csv_row(**fields) -> str:
    row = {"index": "1", "W_m": "0.018", "d_m": "0.007", "n": "1", **fields}
    line = ",".join([row["index"], row["W_m"], row["d_m"], row["n"], "1e-12", "2e-9", "3"])
    return f"{el.ELEMENTS_CSV_HEADER}\n{line}\n"


def _geometry(replaced: str, line: str) -> str:
    """The canonical geometry file with the entry `replaced` set by `line` in its place."""
    lines = geo.serialize_geometry(geo.canonical_geometry()).splitlines()
    return "\n".join(line if ln.split()[0] == replaced else ln for ln in lines) + "\n"


# the file is er, h, then the dimensions in table order; a cavity line goes last
_W1_LINE = 3 + geo.DIMENSION_KEYS.index("W1")
_CAVITY_LINE = 3 + len(geo.DIMENSION_KEYS)


def _cavity_field(field: str):
    return lambda v: geo.parse_geometry_file(
        geo.serialize_geometry(geo.canonical_geometry()) + f"cavity 1 {field}={_text(v)}\n")


def _fit_with_low_bound(value: float):
    """`fit` of a problem whose low bound bypassed `FitProblem`'s check."""
    problem = _fit_problem(max_iterations=0)
    object.__setattr__(problem, "bounds", ((value, 13.0),))
    return ft.fit(problem)


def _netlist_line(params: str) -> str:
    return f"port in z0=50\nport out z0=50\nsection s {params}\n"


_RLC = {"R": 1.0, "L": 1e-9, "C": 1e-12}


def _section(key: str):
    if key in ("z0", "eps_eff", "len"):
        return lambda v: nl.Section("t", "tline", {"z0": 30.0, "eps_eff": 1.3, "len": 0.005,
                                                   key: v})
    return lambda v: nl.Section("s", "series_rlc", {**_RLC, key: v})


def _parsed_section(key: str):
    if key in ("z0", "eps_eff", "len"):
        base = {"z0": "30", "eps_eff": "1.3", "len": "0.005"}
        topology = "tline"
    else:
        base = {"R": "1", "L": "1n", "C": "1p"}
        topology = "series_rlc"

    def call(v):
        params = " ".join(f"{k}={_text(v) if k == key else t}" for k, t in base.items())
        return nl.parse(_netlist_line(f"topology={topology} {params}"))

    return call


SITES = [
    # elements
    Site("LumpedElements", "capacitance", GT0, el.NonPositiveElement,
         lambda v: el.LumpedElements(v, 2e-9, 3.0, 1)),
    Site("LumpedElements", "inductance", GT0, el.NonPositiveElement,
         lambda v: el.LumpedElements(1e-12, v, 3.0, 1)),
    Site("LumpedElements", "resistance", GE0, el.NonPositiveElement,
         lambda v: el.LumpedElements(1e-12, 2e-9, v, 1)),
    Site("res_eq", "inductance", GT0, el.NonPositiveElement,
         lambda v: el.res_eq(v, 1e-12, 1, 1e10)),
    Site("res_eq", "capacitance", GT0, el.NonPositiveElement,
         lambda v: el.res_eq(2e-9, v, 1, 1e10)),
    Site("res_eq", "n", GE1, el.NonPositiveElement, lambda v: el.res_eq(2e-9, 1e-12, v, 1e10)),
    Site("res_eq", "angular frequency", GE0, NonPositiveFrequency,
         lambda v: el.res_eq(2e-9, 1e-12, 1, v)),
    Site("eps_eff", "width", GT0, el.NonPositiveDimension, lambda v: el.eps_eff(v, 1.7e-3, 4.4)),
    Site("eps_eff", "height", GT0, el.NonPositiveDimension, lambda v: el.eps_eff(1e-3, v, 4.4)),
    Site("eps_eff", "relative_permittivity", GT1, el.NonPositiveDimension,
         lambda v: el.eps_eff(1e-3, 1.7e-3, v)),
    Site("extract_all", "evaluation frequency", GT0, NonPositiveFrequency,
         lambda v: el.extract_all(geo.canonical_cavities(), geo.canonical_substrate(), v)),
    Site("elements_from_csv", "W_m", GT0, el.MalformedElementsRow,
         lambda v: el.elements_from_csv(_csv_row(W_m=_text(v))), line=2, parsed=True),
    Site("elements_from_csv", "d_m", GT0, el.MalformedElementsRow,
         lambda v: el.elements_from_csv(_csv_row(d_m=_text(v))), line=2, parsed=True),
    Site("elements_from_csv", "index", GE0, el.MalformedElementsRow,
         lambda v: el.elements_from_csv(_csv_row(index=_text(v))), line=2, parsed=True),
    Site("elements_from_csv", "n", GE1, el.MalformedElementsRow,
         lambda v: el.elements_from_csv(_csv_row(n=_text(v))), line=2, parsed=True),
    # geometry
    Site("Substrate", "relative_permittivity", GT1, geo.NonPositiveValue,
         lambda v: geo.Substrate(v, 1.7e-3)),
    Site("Substrate", "thickness", GT0, geo.NonPositiveValue, lambda v: geo.Substrate(4.4, v)),
    Site("AntennaGeometry", "W1", GT0, geo.NonPositiveValue,
         lambda v: geo.AntennaGeometry({**geo.canonical_geometry().dimensions, "W1": v},
                                       geo.canonical_substrate())),
    *[Site("Cavity", name, rule, geo.NonPositiveValue,
           lambda v, k=k: geo.Cavity(**{"index": 1, "width": 0.018, "length": 0.007,
                                        "thickness": 1.7e-3, "block_factor": 1, k: v}))
      for k, name, rule in (("index", "index", GE0), ("width", "width", GT0),
                            ("length", "length", GT0), ("thickness", "thickness", GT0),
                            ("block_factor", "block_factor", GE1))],
    Site("parse_geometry_file", "er", GT1, geo.NonPositiveValue,
         lambda v: geo.parse_geometry_file(_geometry("er", f"er = {_text(v)}")),
         line=1, parsed=True),
    Site("parse_geometry_file", "h", GT0, geo.NonPositiveValue,
         lambda v: geo.parse_geometry_file(_geometry("h", f"h = {_text(v)} mm")),
         line=2, parsed=True),
    Site("parse_geometry_file", "W1", GT0, geo.NonPositiveValue,
         lambda v: geo.parse_geometry_file(_geometry("W1", f"W1 = {_text(v)} mm")),
         line=_W1_LINE, parsed=True),
    Site("parse_geometry_file", "W", GT0, geo.NonPositiveValue, _cavity_field("W"),
         line=_CAVITY_LINE, parsed=True),
    Site("parse_geometry_file", "d", GT0, geo.NonPositiveValue, _cavity_field("d"),
         line=_CAVITY_LINE, parsed=True),
    Site("parse_geometry_file", "n", GE1, geo.NonPositiveValue, _cavity_field("n"),
         line=_CAVITY_LINE, parsed=True),
    # netlist
    *[Site("Section", key, rule, nl.NonPositiveParameter, _section(key))
      for key, rule in (("R", GT0), ("L", GT0), ("C", GT0), ("z0", GT0), ("eps_eff", GE1),
                        ("len", GE0))],
    *[Site("netlist.parse", key, rule, nl.NonPositiveParameter, _parsed_section(key),
           line=3, parsed=True)
      for key, rule in (("R", GT0), ("L", GT0), ("C", GT0), ("z0", GT0), ("eps_eff", GE1),
                        ("len", GE0))],
    Site("Netlist", "port in z0", GT0, nl.NonPositiveParameter, lambda v: nl.Netlist(v, 50.0)),
    Site("Netlist", "port out z0", GT0, nl.NonPositiveParameter, lambda v: nl.Netlist(50.0, v)),
    Site("netlist.parse", "port in z0", GT0, nl.NonPositiveParameter,
         lambda v: nl.parse(f"port in z0={_text(v)}\nport out z0=50\n"), line=1, parsed=True),
    Site("netlist.parse", "port out z0", GT0, nl.NonPositiveParameter,
         lambda v: nl.parse(f"port in z0=50\nport out z0={_text(v)}\n"), line=2, parsed=True),
    # network
    Site("section_abcd", "frequency", GT0, NonPositiveFrequency,
         lambda v: nw.section_abcd(nl.Section("s", "series_rlc", {"R": 1.0}), v)),
    Site("reflection", "reference impedance", GT0, nw.NonPositiveImpedance,
         lambda v: nw.reflection(50.0, v)),
    Site("abcd_to_s z01", "reference impedances", GT0, nw.NonPositiveImpedance,
         lambda v: nw.abcd_to_s(nw.IDENTITY, v, 50.0)),
    Site("abcd_to_s z02", "reference impedances", GT0, nw.NonPositiveImpedance,
         lambda v: nw.abcd_to_s(nw.IDENTITY, 50.0, v)),
    Site("SParameterTrace port 1", "reference impedances", GT0, InputError,
         lambda v: nw.SParameterTrace([1e9, 2e9], [0j, 0j], reference_impedances=(v, 50.0))),
    Site("SParameterTrace port 2", "reference impedances", GT0, InputError,
         lambda v: nw.SParameterTrace([1e9, 2e9], [0j, 0j], reference_impedances=(50.0, v))),
    Site("SweepGrid", "grid start", GT0, nw.InvalidGrid, lambda v: nw.SweepGrid(v, 2e9, 11)),
    Site("SweepGrid", "grid stop", GT0, nw.InvalidGrid, lambda v: nw.SweepGrid(0.5, v, 11)),
    # analysis
    Site("resonant_frequency", "inductance", GT0, el.NonPositiveElement,
         lambda v: an.resonant_frequency(v, 1e-12)),
    Site("resonant_frequency", "capacitance", GT0, el.NonPositiveElement,
         lambda v: an.resonant_frequency(2e-9, v)),
    # fitting
    Site("FitProblem", "tolerance", GE0, InputError, lambda v: _fit_problem(tolerance=v)),
    Site("FitProblem", "low bound of t.eps_eff", GE1, ft.InvalidBounds,
         lambda v: _fit_problem(((v, 13.0),))),
    # a high bound at a closed least leaves no low bound below it, so z0's open rule is walked
    Site("FitProblem", "high bound of t.z0", GT0, ft.InvalidBounds,
         lambda v: _fit_problem(((0.5, v),), (("t", "z0"),))),
    Site("Mask", "mask start", GT0, ft.InvalidBounds, lambda v: ft.Mask(((v, 2e9, -10.0),))),
    Site("Mask", "mask stop", GT0, ft.InvalidBounds, lambda v: ft.Mask(((0.5, v, -10.0),))),
    Site("fit", "t.eps_eff", GE1, nl.NonPositiveParameter, _fit_with_low_bound),
    # touchstone: `float` reads the option line's and the comment's value, NaN and infinities too
    Site("read_touchstone", "reference resistance", GT0, ts.BadOptionLine,
         lambda v: ts.read_touchstone(f"# Hz S RI R {_text(v)}\n1e9 0.1 0\n"), line=1),
    Site("read_touchstone", "PORT2_REF_OHMS", GT0, ts.MalformedRow,
         lambda v: ts.read_touchstone(f"! PORT2_REF_OHMS {_text(v)}\n# Hz S RI R 50\n1e9 0.1 0\n"),
         line=1),
    Site("read_touchstone", "frequency", GT0, ts.MalformedRow,
         lambda v: ts.read_touchstone(f"# Hz S RI R 50\n{_text(v)} 0.1 0\n"), line=2,
         parsed=True),
]


def _refusal(call, value):
    """The error `call(value)` raises, or None where it accepts the value."""
    try:
        call(value)
    except RfLadderError as exc:
        return exc
    return None


@pytest.mark.parametrize("site", SITES, ids=[f"{s.where}:{s.name}" for s in SITES])
def test_each_site_refuses_by_its_table_rule(site):
    least, closed = site.rule
    assert domain(site.name) == site.rule
    message = f"{site.name} must be finite and {'>=' if closed else '>'} {least:g}"
    if site.line is not None:
        message = f"line {site.line}: {message}"
    beyond = least - 1.0 if site.beyond is None else site.beyond
    assert _refusal(site.call, least + 1.0) is None
    for value in (least, beyond, math.nan, math.inf, -math.inf, _HUGE):
        exc = _refusal(site.call, value)
        if value == least and closed:
            assert exc is None, value
            continue
        assert exc is not None, value
        assert getattr(exc, "line", None) == site.line, value
        if site.parsed and not _finite(value):  # the number parser's own refusal
            assert isinstance(exc, InputError), value
            continue
        assert type(exc) is site.error, value
        assert str(exc) == message, value
        assert getattr(exc, "name", site.name) == site.name, value


_COUNT_SITES = [s for s in SITES if isinstance(domain(s.name)[0], int) and not s.parsed]


@pytest.mark.parametrize("site", _COUNT_SITES, ids=[f"{s.where}:{s.name}" for s in _COUNT_SITES])
def test_each_count_site_refuses_a_fraction(site):
    # a parsed count meets its parser's int first; a whole float is the count it equals
    least = domain(site.name)[0]
    exc = _refusal(site.call, least + 1.5)
    assert type(exc) is site.error and str(exc) == f"{site.name} must be a whole number"
    assert exc.name == site.name
    assert _refusal(site.call, float(least + 1)) is None


def test_counts_are_the_table_entries_with_an_int_least():
    assert {name for name, (least, _) in DOMAINS.items() if isinstance(least, int)} == {
        "index", "n", "block_factor"}
    assert [s.where for s in _COUNT_SITES] == ["res_eq", "Cavity", "Cavity"]
    # a real quantity given as an int is its float, whole or not, and never a count's refusal
    for value in (2**53 + 1, 10**300, np.int64(3)):
        held = require("capacitance", value, InputError)
        assert (type(held), held) == (float, float(value))
    held = require("block_factor", np.array(3.0), InputError)
    assert (type(held), held) == (int, 3)


def test_every_table_entry_has_a_site():
    walked = {s.name.rpartition(".")[2] for s in SITES} | {"--bounds-factor"}  # the test below
    assert walked >= set(DOMAINS)


def test_bounds_factor_walks_its_rule(tmp_path, capsys):
    ladder, target = tmp_path / "l.net", tmp_path / "t.s2p"
    ladder.write_text(nl.serialize(_line()))
    target.write_text(ts.write_touchstone(nw.sweep(_line(), nw.SweepGrid(1e9, 2e9, 11))))
    assert domain("--bounds-factor") == GT1

    def run(factor: str) -> int:
        capsys.readouterr()
        return cli.main(["fit", "--netlist", str(ladder), "--target", str(target),
                         "--vary", "t.z0", "--max-iter", "0", "--bounds-factor", factor,
                         "--out", str(tmp_path / "f.net")])

    assert run("2") == 0
    for factor in ("1", "0"):
        assert run(factor) == 2
        assert capsys.readouterr().err.endswith("\nerror: --bounds-factor must be finite and > 1\n")
    for factor in ("nan", "inf", "-inf"):  # the option's number parser refuses these
        with pytest.raises(SystemExit) as err:
            run(factor)
        assert err.value.code == 2
