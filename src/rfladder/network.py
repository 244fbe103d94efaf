"""Frequency-domain two-port analysis of a netlist.

Every section maps to a 2x2 chain (ABCD) matrix; a cascade is the
left-to-right matrix product with the input side first. S-parameters
use real, possibly distinct, reference impedances at the two ports.
The engine carries the four chain entries as scalars or as arrays over
frequency, so a single-frequency call and a sweep share one section
formula, one chain recurrence and one S conversion. The sweep evaluates
all frequencies in one vectorized pass and returns samples in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonPositiveFrequency, NumericalError
from .geometry import SPEED_OF_LIGHT
from .netlist import Netlist, Section


class EmptyCascade(InputError):
    pass


class SingularTermination(NumericalError):
    pass


class DegenerateDenominator(NumericalError):
    pass


class OutOfRange(NumericalError):
    pass


class NonPositiveImpedance(InputError):
    pass


class NonFiniteResult(NumericalError):
    pass


@dataclass(frozen=True)
class AbcdMatrix:
    """Chain matrix of one two-port: b in ohms, c in siemens; scalars or arrays."""

    a: complex
    b: complex
    c: complex
    d: complex

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


IDENTITY = AbcdMatrix(1.0, 0.0, 0.0, 1.0)


def _section_entries(section: Section, w):
    """Chain entries (a, b, c, d) of `section` at angular frequencies `w`.

    Entries that do not vary with frequency are plain floats and broadcast.
    """
    p = section.params
    if section.topology == "tline":
        theta = w * math.sqrt(p["eps_eff"]) * p["len"] / SPEED_OF_LIGHT
        z0 = p["z0"]
        cos, sin = np.cos(theta), np.sin(theta)
        return cos, 1j * z0 * sin, 1j * sin / z0, cos
    jw = 1j * w
    if section.topology == "series_rl_shunt_c":
        z = jw * p["L"] + p.get("R", 0.0)
        y = jw * p["C"]
        return 1.0 + z * y, z, y, 1.0
    if section.topology == "shunt_parallel_rlc":
        y = 0.0
        if "R" in p:
            y = y + 1.0 / p["R"]
        if "L" in p:
            y = y + 1.0 / (jw * p["L"])
        if "C" in p:
            y = y + jw * p["C"]
        return 1.0, 0.0, y, 1.0
    z = 0.0
    if "R" in p:
        z = z + p["R"]
    if "L" in p:
        z = z + jw * p["L"]
    if "C" in p:
        z = z + 1.0 / (jw * p["C"])
    if section.topology == "series_rlc":
        return 1.0, z, 0.0, 1.0
    if section.topology == "shunt_series_rlc":
        return 1.0, 0.0, 1.0 / z, 1.0
    raise InputError(f"unknown topology {section.topology!r}")  # unreachable once validated


def section_abcd(section: Section, frequency: float) -> AbcdMatrix:
    """Chain matrix of one section at a single frequency."""
    if not (frequency > 0 and math.isfinite(frequency)):
        raise NonPositiveFrequency("frequency must be finite and > 0")
    return AbcdMatrix(*map(complex, _section_entries(section, 2.0 * np.pi * frequency)))


def _chain(matrices):
    """Left-to-right product of chain matrices, and of their determinants."""
    matrices = iter(matrices)
    total = next(matrices, IDENTITY)
    det = total.determinant()
    for m in matrices:
        det = det * m.determinant()
        total = AbcdMatrix(
            total.a * m.a + total.b * m.c,
            total.a * m.b + total.b * m.d,
            total.c * m.a + total.d * m.c,
            total.c * m.b + total.d * m.d,
        )
    return total, det


def cascade(matrices) -> AbcdMatrix:
    """Left-to-right product of chain matrices (input side first)."""
    matrices = list(matrices)
    if not matrices:
        raise EmptyCascade("cascade of zero matrices")
    return _chain(matrices)[0]


def input_impedance(m: AbcdMatrix, load: complex) -> complex:
    """Impedance seen at the input with the output terminated in `load`."""
    denom = m.c * load + m.d
    if denom == 0:
        raise SingularTermination("C*ZL + D vanished")
    return (m.a * load + m.b) / denom


def reflection(z_in: complex, z_ref: float) -> complex:
    """Reflection coefficient (z_in - z_ref) / (z_in + z_ref)."""
    if not z_ref > 0:
        raise NonPositiveImpedance("reference impedance must be > 0")
    denom = z_in + z_ref
    if denom == 0:
        raise DegenerateDenominator("z_in + z_ref vanished")
    return (z_in - z_ref) / denom


def _abcd_to_s(m: AbcdMatrix, det, z01: float, z02: float):
    """(s11, s12, s21, s22) of chain entries with determinant `det`."""
    denom = m.a * z02 + m.b + m.c * z01 * z02 + m.d * z01
    if np.any(denom == 0):
        raise DegenerateDenominator("conversion denominator vanished")
    root = math.sqrt(z01 * z02)
    s11 = (m.a * z02 + m.b - m.c * z01 * z02 - m.d * z01) / denom
    s21 = 2.0 * root / denom
    s12 = s21 * det
    s22 = (-m.a * z02 + m.b - m.c * z01 * z02 + m.d * z01) / denom
    return s11, s12, s21, s22


def abcd_to_s(m: AbcdMatrix, z01: float, z02: float):
    """Convert a chain matrix to (s11, s12, s21, s22) with real references."""
    if not z01 > 0 or not z02 > 0:
        raise NonPositiveImpedance("reference impedances must be > 0")
    return _abcd_to_s(m, m.determinant(), z01, z02)


def vswr(s11_magnitude: float) -> float:
    """Standing-wave ratio (1 + |s11|) / (1 - |s11|) for |s11| in [0, 1)."""
    if not 0 <= s11_magnitude < 1:
        raise OutOfRange(f"|s11| = {s11_magnitude} outside [0, 1)")
    return (1.0 + s11_magnitude) / (1.0 - s11_magnitude)


class InvalidGrid(InputError):
    pass


@dataclass(frozen=True)
class SweepGrid:
    """Linear frequency grid, hertz."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (0 < self.start < self.stop and math.isfinite(self.stop)):
            raise InvalidGrid("need 0 < start < stop, both finite")
        if self.points < 2:
            raise InvalidGrid("need at least 2 points")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


DB_FLOOR = -300.0  # reported dB of an exact-zero reflection


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """20*log10|x| with zeros clamped to the -300 dB floor."""
    mag = np.maximum(np.abs(values), 10 ** (DB_FLOOR / 20.0))
    return 20.0 * np.log10(mag)


@dataclass(frozen=True, eq=False)
class SParameterTrace:
    """Reflection (and optionally transmission) samples over frequency."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray | None = None
    s12: np.ndarray | None = None
    s22: np.ndarray | None = None
    reference_impedances: tuple[float, float] = (50.0, 50.0)

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=float)
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "s11", np.asarray(self.s11, dtype=complex))
        for name in ("s21", "s12", "s22"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, np.asarray(value, dtype=complex))
                if len(getattr(self, name)) != len(f):
                    raise InputError(f"{name} length differs from frequency length")
        if len(self.s11) != len(f):
            raise InputError("s11 length differs from frequency length")
        if len(f) and not f[0] > 0:
            raise InputError("frequencies must be positive")
        if len(f) > 1 and not np.all(np.diff(f) > 0):
            raise InputError("frequencies must be strictly increasing")

    def __len__(self) -> int:
        return len(self.frequencies)

    def s11_db(self) -> np.ndarray:
        return magnitude_db(self.s11)


def netlist_abcd_array(netlist: Netlist, frequencies: np.ndarray):
    """Cascaded ABCD over frequency plus the product of section determinants.

    The determinant product tracks reciprocity exactly: each section's
    determinant is 1 up to a rounding term, while the determinant of
    the multiplied-out cascade loses accuracy when entries are large.
    Each section's entries are built only when the chain reaches it.
    """
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    total, det = _chain(AbcdMatrix(*_section_entries(s, w)) for s in netlist.sections)
    a, b, c, d, det = np.broadcast_arrays(total.a, total.b, total.c, total.d, det, w)[:5]
    return AbcdMatrix(a, b, c, d), det


def sweep(netlist: Netlist, grid: SweepGrid) -> SParameterTrace:
    """Simulate the netlist over the grid, returning the full S set."""
    freqs = grid.frequencies()
    z01 = netlist.input_port_impedance
    z02 = netlist.output_port_impedance
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        total, det = netlist_abcd_array(netlist, freqs)
        s11, s12, s21, s22 = _abcd_to_s(total, det, z01, z02)
    if not all(np.isfinite(x).all() for x in (s11, s12, s21, s22)):
        raise NonFiniteResult("S-parameters are not finite; a section value overflows")
    return SParameterTrace(freqs, s11, s21, s12, s22, (z01, z02))
