"""Closed-form lumped-element extraction and microstrip line formulas.

Each resonator block maps to an R/L/C triple: capacitance from the
parallel-plate style estimate, inductance from the current-loop
integral, and resistance from the detuning magnitude at an evaluation
frequency. The microstrip pair (effective permittivity, characteristic
impedance) drives both the feed-line section and the output reference
impedance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import sinum
from .errors import InputError, LocatedError, NonFiniteResult, NonPositiveFrequency, require
from .geometry import (
    VACUUM_PERMEABILITY,
    VACUUM_PERMITTIVITY,
    Cavity,
    Substrate,
)

DEFAULT_EVALUATION_FREQUENCY = 2.5e9  # Hz, center of the intended band

ELEMENTS_CSV_HEADER = "cavity,W_m,d_m,n,C_F,L_H,R_ohm"


class ExtractionError(InputError):
    """Base for element-extraction input errors."""


class NonPositiveDimension(ExtractionError):
    pass


class NonPositiveElement(ExtractionError):
    pass


class SubstrateTooThick(ExtractionError):
    """ind_eq's bracket d*ln((W+d)/d) + W*ln((W+d)^2/(h*W)) is not positive.

    The bracket is positive exactly when h < (W+d)^2/W * ((W+d)/d)^(d/W).
    """

    def __init__(self, cavity: Cavity):
        w, d, h = cavity.width, cavity.length, cavity.thickness
        self.index = cavity.index
        h_max = (w + d) ** 2 / w * ((w + d) / d) ** (d / w)
        super().__init__(
            f"cavity {cavity.index}: inductance is not positive at substrate height"
            f" h = {h:g} m; ind_eq needs h < (W+d)^2/W * ((W+d)/d)^(d/W) = {h_max:g} m"
        )


class MalformedElementsRow(LocatedError, ExtractionError):
    pass


@dataclass(frozen=True)
class LumpedElements:
    """Extracted R/L/C of one cavity; the feed cavity carries C only."""

    capacitance: float
    inductance: float | None
    resistance: float | None
    source_cavity_index: int

    def __post_init__(self):
        for name in ("capacitance", "inductance", "resistance"):
            value = getattr(self, name)
            if value is not None or name == "capacitance":
                object.__setattr__(self, name, require(name, value, NonPositiveElement))


@dataclass(frozen=True)
class MicrostripResult:
    """Quasi-static line parameters for one strip width over the substrate."""

    effective_permittivity: float
    characteristic_impedance: float
    width_to_height: float
    branch: str  # "narrow" (W/h < 1) or "wide"


def cap_eq_approx(cavity: Cavity, substrate: Substrate) -> float:
    """Approximate block capacitance n*eps0*er*W*h / (50*d^2), in farads.

    This is the form that lands nearest the reference per-cavity values
    and is what the extraction pipeline uses.
    """
    er = substrate.relative_permittivity
    return (
        cavity.block_factor
        * VACUUM_PERMITTIVITY
        * er
        * cavity.width
        * cavity.thickness
        / (50.0 * cavity.length**2)
    )


def ind_eq(cavity: Cavity, substrate: Substrate) -> float:
    """Block inductance mu0*d/(10.5*W) * [d*ln((W+d)/d) + W*ln((W+d)^2/(h*W))]."""
    w, d, h = cavity.width, cavity.length, cavity.thickness
    bracket = d * math.log((w + d) / d) + w * math.log((w + d) ** 2 / (h * w))
    return VACUUM_PERMEABILITY * d / (10.5 * w) * bracket


def res_eq(inductance: float, capacitance: float, n: int, angular_frequency: float) -> float:
    """Block resistance (n/10)*sqrt(L/C)*|1 - L*C*omega^2|, in ohms.

    Zero exactly at the block's resonance omega = 1/sqrt(L*C) and
    linear in the block count n.
    """
    require("inductance", inductance, NonPositiveElement)
    require("capacitance", capacitance, NonPositiveElement)
    require("n", n, NonPositiveElement)
    require("angular frequency", angular_frequency, NonPositiveFrequency)
    lc = inductance * capacitance
    return (n / 10.0) * math.sqrt(inductance / capacitance) * abs(1.0 - lc * angular_frequency**2)


def eps_eff(width: float, height: float, relative_permittivity: float) -> float:
    """Quasi-static effective permittivity of a microstrip cross-section.

    Narrow strips (W/h < 1) get the extra 0.04*(1 - W/h)^2 correction;
    the two branches agree at W/h = 1.
    """
    require("width", width, NonPositiveDimension)
    require("height", height, NonPositiveDimension)
    require("relative_permittivity", relative_permittivity, NonPositiveDimension)
    er = relative_permittivity
    ratio = width / height
    term = (1.0 + 12.0 / ratio) ** -0.5
    if ratio < 1.0:
        term += 0.04 * (1.0 - ratio) ** 2
    return (er + 1.0) / 2.0 + (er - 1.0) / 2.0 * term


def z0_microstrip(width: float, height: float, relative_permittivity: float) -> float:
    """Characteristic impedance of the microstrip, in ohms."""
    ee = eps_eff(width, height, relative_permittivity)
    ratio = width / height
    if ratio < 1.0:
        return 60.0 / math.sqrt(ee) * math.log(8.0 / ratio + 0.25 * ratio)
    denom = ratio + 1.393 + (2.0 / 3.0) * math.log(ratio + 1.444)
    return 120.0 * math.pi / (math.sqrt(ee) * denom)


def microstrip(width: float, height: float, relative_permittivity: float) -> MicrostripResult:
    """Bundle eps_eff, Z0, W/h, and the formula branch for one strip."""
    try:
        ee = eps_eff(width, height, relative_permittivity)
        z0 = z0_microstrip(width, height, relative_permittivity)
    except (OverflowError, ZeroDivisionError):
        ee = z0 = math.nan
    ratio = width / height
    _require_finite("microstrip line parameters", ee, z0, ratio)
    return MicrostripResult(ee, z0, ratio, "narrow" if ratio < 1.0 else "wide")


def _require_finite(what: str, *values: float) -> None:
    if not all(math.isfinite(v) for v in values):
        raise NonFiniteResult(f"{what} are not finite; an input value is too large or too small")


def extract_all(
    cavities: list[Cavity],
    substrate: Substrate,
    evaluation_frequency: float = DEFAULT_EVALUATION_FREQUENCY,
) -> list[LumpedElements]:
    """Extract one element set per cavity.

    Cavity index 0 is the feed line and yields capacitance only; the
    resistance of the remaining cavities is evaluated at the given
    frequency (the formula needs one and the band center is the
    documented default).
    """
    if not cavities:
        raise ExtractionError("cavity list is empty")
    require("evaluation frequency", evaluation_frequency, NonPositiveFrequency)
    omega = 2.0 * math.pi * evaluation_frequency
    rows = []
    for cavity in cavities:
        l = r = None
        try:
            c = cap_eq_approx(cavity, substrate)
            if cavity.index != 0:
                l = ind_eq(cavity, substrate)
                if not l > 0:
                    raise SubstrateTooThick(cavity)
                r = res_eq(l, c, cavity.block_factor, omega)
        except (OverflowError, ZeroDivisionError, ValueError):  # ValueError: log of 0
            c = math.nan
        values = [v for v in (c, l, r) if v is not None]
        _require_finite(f"cavity {cavity.index} elements", *values)
        rows.append(LumpedElements(c, l, r, cavity.index))
    return rows


def elements_to_csv(cavities: list[Cavity], elements: list[LumpedElements]) -> str:
    """Serialize extraction results; absent L/R become empty fields."""
    if len(cavities) != len(elements):
        raise ExtractionError("cavity and element lists differ in length")
    lines = [ELEMENTS_CSV_HEADER]
    for cavity, row in zip(cavities, elements):
        l = "" if row.inductance is None else sinum.format_bare(row.inductance)
        r = "" if row.resistance is None else sinum.format_bare(row.resistance)
        lines.append(
            f"{cavity.index},{sinum.format_bare(cavity.width)},"
            f"{sinum.format_bare(cavity.length)},{cavity.block_factor},"
            f"{sinum.format_bare(row.capacitance)},{l},{r}"
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ElementRow:
    """One parsed elements-CSV row: cavity dimensions plus its elements."""

    index: int
    width: float
    length: float
    block_factor: int
    elements: LumpedElements


def elements_from_csv(text: str) -> list[ElementRow]:
    """Parse the elements CSV written by :func:`elements_to_csv`."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != ELEMENTS_CSV_HEADER:
        raise MalformedElementsRow(f"expected header {ELEMENTS_CSV_HEADER!r}", 1)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        try:
            if len(fields) != 7:
                raise ExtractionError("expected 7 comma-separated fields")
            index = int(fields[0])
            width = sinum.parse_scaled(fields[1], 0)
            length = sinum.parse_scaled(fields[2], 0)
            n = int(fields[3])
            c = sinum.parse_scaled(fields[4], 0)
            l = sinum.parse_scaled(fields[5], 0) if fields[5].strip() else None
            r = sinum.parse_scaled(fields[6], 0) if fields[6].strip() else None
            require("W_m", width, NonPositiveDimension)
            require("d_m", length, NonPositiveDimension)
            lumped = LumpedElements(c, l, r, index)
            require("index", index, ExtractionError)  # Cavity's rules, after the value checks
            require("n", n, NonPositiveElement)
        except (ValueError, ExtractionError) as exc:
            raise MalformedElementsRow(str(exc), lineno) from None
        rows.append(ElementRow(index, width, length, n, lumped))
    if not rows:
        raise MalformedElementsRow("no data rows", 1)
    return rows
