"""Physical description of the antenna: named dimensions, substrate, cavities.

The strip face decomposes into six rectangular resonator blocks; each
block is a :class:`Cavity` whose width/length/thickness feed the
closed-form element extraction. All lengths are SI meters internally;
the text format carries explicit mm/m units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import sinum
from .errors import InputError, LocatedError, require

SPEED_OF_LIGHT = 299_792_458.0  # m/s
VACUUM_PERMITTIVITY = 8.85e-12  # F/m
VACUUM_PERMEABILITY = 4e-7 * math.pi  # H/m
_UNIT_EXPONENT = {"mm": -3, "m": 0}  # the file format's length units; a bare number is in mm

# Canonical dimension table, millimeters, in file order.
_CANONICAL_MM = (
    ("L1", 24.0),
    ("L2", 10.5),
    ("L3", 8.5),
    ("L4", 7.5),
    ("L5", 6.75),
    ("L6", 63.0),
    ("Lt", 120.75),
    ("W1", 51.0),
    ("W2", 36.0),
    ("W3", 27.0),
    ("W4", 18.0),
    ("Wp", 62.0),
    ("We", 3.7),
    ("Wt", 78.0),
    ("a", 24.0),
    ("b", 24.0),
    ("c", 7.1),
    ("d1", 9.66),
    ("e", 3.7),
    ("f", 3.8),
    ("g", 16.0),
    ("i", 5.3),
    ("j", 3.25),
    ("k", 67.5),
    ("Wa", 3.2),
    ("m", 3.7),
)

DIMENSION_KEYS = tuple(name for name, _ in _CANONICAL_MM)

# (width mm, length mm) of the six resonator blocks, feed line first.
_CANONICAL_CAVITIES_MM = (
    (3.2, 60.0),
    (18.0, 7.0),
    (27.0, 7.5),
    (36.0, 8.5),
    (51.0, 10.5),
    (62.0, 24.0),
)

CANONICAL_RELATIVE_PERMITTIVITY = 4.4
CANONICAL_SUBSTRATE_THICKNESS = 1.7e-3


class GeometryError(InputError):
    """Base for geometry construction and file-format errors."""


class MissingDimension(GeometryError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"missing required entry {name!r}")


class NonPositiveValue(LocatedError, GeometryError):
    pass


class UnknownKey(LocatedError, GeometryError):
    def __init__(self, name: str, line: int | None = None):
        self.name = name
        super().__init__(f"unknown geometry key {name!r}", line)


class MalformedLine(LocatedError, GeometryError):
    pass


@dataclass(frozen=True)
class Substrate:
    """Dielectric slab the patch is printed on.

    The vacuum constants are fixed class attributes, not parameters.
    """

    relative_permittivity: float
    thickness: float

    vacuum_permittivity: float = field(default=VACUUM_PERMITTIVITY, init=False)
    vacuum_permeability: float = field(default=VACUUM_PERMEABILITY, init=False)

    def __post_init__(self):
        for name in ("relative_permittivity", "thickness"):
            object.__setattr__(self, name, require(name, getattr(self, name), NonPositiveValue))


@dataclass(frozen=True)
class AntennaGeometry:
    """All named dimensions (meters) plus the substrate they sit on."""

    dimensions: dict[str, float]
    substrate: Substrate

    def __post_init__(self):
        for key in DIMENSION_KEYS:
            if key not in self.dimensions:
                raise MissingDimension(key)
        for key in self.dimensions:
            if key not in DIMENSION_KEYS:
                raise UnknownKey(key)
        held = {key: require(key, v, NonPositiveValue) for key, v in self.dimensions.items()}
        object.__setattr__(self, "dimensions", held)  # the floats the checks saw, not the caller's


@dataclass(frozen=True)
class Cavity:
    """One rectangular resonator block of the patch."""

    index: int
    width: float
    length: float
    thickness: float
    block_factor: int = 1

    def __post_init__(self):
        for name in ("index", "width", "length", "thickness", "block_factor"):
            object.__setattr__(self, name, require(name, getattr(self, name), NonPositiveValue))


def canonical_substrate() -> Substrate:
    return Substrate(CANONICAL_RELATIVE_PERMITTIVITY, CANONICAL_SUBSTRATE_THICKNESS)


def _from_mm(mm: float) -> float:
    return sinum.parse_scaled(repr(float(mm)), _UNIT_EXPONENT["mm"])


def canonical_geometry() -> AntennaGeometry:
    """The reference antenna: all 26 dimensions on the FR-4 substrate."""
    dims = {name: _from_mm(mm) for name, mm in _CANONICAL_MM}
    return AntennaGeometry(dims, canonical_substrate())


def canonical_cavities() -> list[Cavity]:
    """The six resonator blocks, ordered feed line first, widest last."""
    return [
        Cavity(i, _from_mm(w), _from_mm(d), CANONICAL_SUBSTRATE_THICKNESS)
        for i, (w, d) in enumerate(_CANONICAL_CAVITIES_MM)
    ]


@dataclass(frozen=True)
class GeometryDocument:
    """Parsed geometry file: the antenna plus its (possibly overridden) cavities."""

    geometry: AntennaGeometry
    cavities: tuple[Cavity, ...]


def _scaled(text: str, exponent: int, lineno: int, message: str) -> float:
    try:
        return sinum.parse_scaled(text, exponent)
    except ValueError:
        raise MalformedLine(message, lineno) from None


def _parse_length(text: str, name: str, lineno: int) -> float:
    """Parse a value with an attached mm/m unit; bare numbers mean mm."""
    unit = "mm" if text.endswith("mm") else "m" if text.endswith("m") else ""
    exponent = _UNIT_EXPONENT[unit or "mm"]
    return _scaled(text.removesuffix(unit), exponent, lineno, f"bad number for {name!r}: {text!r}")


def _parse_cavity_line(tokens: list[str], lineno: int, cavities: list[dict]) -> None:
    if len(tokens) < 3:
        raise MalformedLine("cavity line needs an index and at least one field", lineno)
    try:
        index = int(tokens[1])
    except ValueError:
        raise MalformedLine(f"bad cavity index {tokens[1]!r}", lineno) from None
    if not 0 <= index < len(cavities):
        raise MalformedLine(f"cavity index {index} outside the canonical table", lineno)
    for token in tokens[2:]:
        key, sep, raw = token.partition("=")
        if not sep or key not in ("W", "d", "n"):
            raise MalformedLine(f"bad cavity field {token!r}", lineno)
        if key == "n":
            try:
                value = int(raw)
            except ValueError:
                raise MalformedLine(f"bad block factor {raw!r}", lineno) from None
        else:
            value = _parse_length(raw, key, lineno)
        cavities[index][key] = require(key, value, NonPositiveValue, lineno)


def parse_geometry_file(text: str) -> GeometryDocument:
    """Parse the line-oriented geometry format.

    Grammar per line (``#`` starts a comment):
      - ``<name> = <value> <unit>`` with unit mm or m, for the dimension
        names and the substrate thickness ``h``;
      - ``er = <value>`` (dimensionless relative permittivity, written
        with the same numbers as lengths);
      - ``cavity <idx> W=<v> d=<v> n=<int>`` overriding the canonical
        cavity table (W/d in mm unless an mm/m unit is attached).
    Every dimension name plus er and h must be present exactly once: an
    entry's second line is a ``duplicate entry`` error, whatever its value.
    """
    entries: dict[str, float] = {}
    cavities = [{"W": _from_mm(w), "d": _from_mm(d), "n": 1} for w, d in _CANONICAL_CAVITIES_MM]

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "cavity":
            _parse_cavity_line(tokens, lineno, cavities)
            continue
        if len(tokens) < 3 or tokens[1] != "=":
            raise MalformedLine(f"expected 'name = value [unit]', got {line!r}", lineno)
        name = tokens[0]
        if name == "er":
            if len(tokens) != 3:
                raise MalformedLine("er takes a single dimensionless value", lineno)
            exponent = 0
        elif name == "h" or name in DIMENSION_KEYS:
            if len(tokens) != 4 or tokens[3] not in _UNIT_EXPONENT:
                raise MalformedLine(f"{name} needs 'value unit' with unit mm or m", lineno)
            exponent = _UNIT_EXPONENT[tokens[3]]
        else:
            raise UnknownKey(name, lineno)
        if name in entries:
            raise MalformedLine(f"duplicate entry {name!r}", lineno)
        value = _scaled(tokens[2], exponent, lineno, f"bad number {tokens[2]!r}")
        entries[name] = require(name, value, NonPositiveValue, lineno)

    for name in ("er", "h"):
        if name not in entries:
            raise MissingDimension(name)
    er, h = entries.pop("er"), entries.pop("h")
    # AntennaGeometry reports the first missing dimension in DIMENSION_KEYS order
    geometry = AntennaGeometry(entries, Substrate(er, h))
    return GeometryDocument(
        geometry, tuple(Cavity(i, c["W"], c["d"], h, c["n"]) for i, c in enumerate(cavities))
    )


def load_geometry(text: str) -> AntennaGeometry:
    """Parse a geometry file, returning just the validated antenna."""
    return parse_geometry_file(text).geometry


def _format_length(value: float) -> str:
    """Render a length in millimeters; always parses back to the same float."""
    return f"{sinum.format_with_exponent(value, _UNIT_EXPONENT['mm'])} mm"


def serialize_geometry(geometry: AntennaGeometry, cavities=None) -> str:
    """Render a geometry (and optional cavity table) in the file format."""
    lines = [f"er = {sinum.format_bare(geometry.substrate.relative_permittivity)}"]
    lines.append(f"h = {_format_length(geometry.substrate.thickness)}")
    for key in DIMENSION_KEYS:
        lines.append(f"{key} = {_format_length(geometry.dimensions[key])}")
    for cavity in cavities or ():
        w = _format_length(cavity.width).replace(" ", "")
        d = _format_length(cavity.length).replace(" ", "")
        lines.append(f"cavity {cavity.index} W={w} d={d} n={cavity.block_factor}")
    return "\n".join(lines) + "\n"
