"""Frequency-domain two-port analysis of a netlist.

Every section maps to a 2x2 chain (ABCD) matrix; a cascade is the
left-to-right matrix product with the input side first. S-parameters
use real, possibly distinct, reference impedances at the two ports.
The engine carries the four chain entries as scalars or as arrays over
frequency, so a single-frequency call and a sweep share one section
formula, one chain recurrence and one S conversion. One walk over the
sections, `_cascade`, serves the sweep and the fitter alike: it builds
each section's entries only when the chain reaches it.
Every section topology is reciprocal (AD - BC = 1), so the sweep's s12
is its s21, one read-only array; the public scalar `abcd_to_s` keeps
s12 = s21 * det for any matrix a caller passes. The sweep fills one
(3, F) result of s11, s21 and s22, in grid order, 4,096 frequencies at
a time: whole-grid temporaries cost more in allocation and page faults
than in arithmetic, while blocks this size are reused from the heap.
A parameter may also be a `(K, 1)` column of values, which adds a leading
axis of K parameter sets to every array; the fitter scores its
candidates that way, through the same walk and the same checks,
converting the chain to s11 alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonFiniteResult, NonPositiveFrequency, NumericalError
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


def _section_entries(topology: str, params, w):
    """Chain entries (a, b, c, d) of one section at angular frequencies `w`.

    Entries that do not vary with frequency are plain floats and broadcast;
    so does a parameter given as a `(K, 1)` column, which adds a leading
    batch axis of K parameter sets.
    """
    p = params
    if topology == "tline":
        theta = w * np.sqrt(p["eps_eff"]) * p["len"] / SPEED_OF_LIGHT
        z0 = p["z0"]
        cos, sin = np.cos(theta), np.sin(theta)
        return cos, 1j * z0 * sin, 1j * sin / z0, cos
    jw = 1j * w
    if topology == "series_rl_shunt_c":
        z = jw * p["L"] + p.get("R", 0.0)
        y = jw * p["C"]
        return 1.0 + z * y, z, y, 1.0
    if topology == "shunt_parallel_rlc":
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
    if topology == "series_rlc":
        return 1.0, z, 0.0, 1.0
    if topology == "shunt_series_rlc":
        return 1.0, 0.0, 1.0 / z, 1.0
    raise InputError(f"unknown topology {topology!r}")  # unreachable once validated


def section_abcd(section: Section, frequency: float) -> AbcdMatrix:
    """Chain matrix of one section at a single frequency."""
    if not (frequency > 0 and math.isfinite(frequency)):
        raise NonPositiveFrequency("frequency must be finite and > 0")
    w = 2.0 * np.pi * frequency
    return AbcdMatrix(*map(complex, _section_entries(section.topology, section.params, w)))


def _chain(matrices):
    """Left-to-right product of chain matrices."""
    matrices = iter(matrices)
    total = next(matrices, IDENTITY)
    for m in matrices:
        total = AbcdMatrix(
            total.a * m.a + total.b * m.c,
            total.a * m.b + total.b * m.d,
            total.c * m.a + total.d * m.c,
            total.c * m.b + total.d * m.d,
        )
    return total


def cascade(matrices) -> AbcdMatrix:
    """Left-to-right product of chain matrices (input side first)."""
    matrices = list(matrices)
    if not matrices:
        raise EmptyCascade("cascade of zero matrices")
    return _chain(matrices)


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


def _terms(m: AbcdMatrix, z01: float, z02: float):
    """a*z02, c*z01*z02, d*z01 and the conversion denominator, checked to be nonzero."""
    az, czz, dz = m.a * z02, m.c * z01 * z02, m.d * z01
    denom = az + m.b + czz + dz
    if np.any(denom == 0):
        raise DegenerateDenominator("conversion denominator vanished")
    return az, czz, dz, denom


def _s11(m: AbcdMatrix, z01: float, z02: float):
    """s11 of chain entries."""
    az, czz, dz, denom = _terms(m, z01, z02)
    return (az + m.b - czz - dz) / denom


def _abcd_to_s(m: AbcdMatrix, z01: float, z02: float):
    """(s11, s21, s22) of chain entries."""
    az, czz, dz, denom = _terms(m, z01, z02)
    s21 = 2.0 * math.sqrt(z01 * z02) / denom
    return (az + m.b - czz - dz) / denom, s21, (-az + m.b - czz + dz) / denom


def abcd_to_s(m: AbcdMatrix, z01: float, z02: float):
    """Convert a chain matrix to (s11, s12, s21, s22) with real references.

    s12 = s21 * det, so a non-reciprocal matrix converts correctly too.
    """
    if not z01 > 0 or not z02 > 0:
        raise NonPositiveImpedance("reference impedances must be > 0")
    s11, s21, s22 = _abcd_to_s(m, z01, z02)
    return s11, s21 * m.determinant(), s21, s22


def vswr(s11_magnitude: float) -> float:
    """Standing-wave ratio (1 + |s11|) / (1 - |s11|) for |s11| in [0, 1)."""
    if not 0 <= s11_magnitude < 1:
        raise OutOfRange(f"|s11| = {s11_magnitude} outside [0, 1)")
    return (1.0 + s11_magnitude) / (1.0 - s11_magnitude)


class InvalidGrid(InputError):
    pass


@dataclass(frozen=True)
class SweepGrid:
    """Linear frequency grid, hertz; one read-only frequency array serves all its sweeps."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (0 < self.start < self.stop and math.isfinite(self.stop)):
            raise InvalidGrid("need 0 < start < stop, both finite")
        if self.points < 2:
            raise InvalidGrid("need at least 2 points")

    def frequencies(self) -> np.ndarray:
        return self._frequencies

    @functools.cached_property
    def _frequencies(self) -> np.ndarray:
        try:
            f = np.linspace(self.start, self.stop, self.points)
        except (MemoryError, ValueError):  # numpy refuses the size before allocating
            raise InvalidGrid(f"{self.points} points do not fit in memory") from None
        f.flags.writeable = False
        return f


DB_FLOOR = -300.0  # reported dB of an exact-zero reflection


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """20*log10|x| with zeros clamped to the -300 dB floor."""
    mag = np.maximum(np.abs(values), 10 ** (DB_FLOOR / 20.0))
    return 20.0 * np.log10(mag)


@dataclass(frozen=True, eq=False)
class SParameterTrace:
    """Samples over frequency, held in read-only views of the caller's arrays where the dtype fits."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray | None = None
    s12: np.ndarray | None = None
    s22: np.ndarray | None = None
    reference_impedances: tuple[float, float] = (50.0, 50.0)

    def __post_init__(self):
        for name in ("frequencies", "s11", "s21", "s12", "s22"):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, float if name == "frequencies" else complex).view()
                value.flags.writeable = False  # the caller's array keeps its own flags
                if value.ndim != 1:
                    raise InputError(f"{name} must be one-dimensional")
                object.__setattr__(self, name, value)
        f = self.frequencies
        for name in ("s21", "s12", "s22", "s11"):
            if getattr(self, name) is not None and len(getattr(self, name)) != len(f):
                raise InputError(f"{name} length differs from frequency length")
        if len(f) and not f[0] > 0:
            raise InputError("frequencies must be positive")
        if len(f) > 1 and not np.all(np.diff(f) > 0):
            raise InputError("frequencies must be strictly increasing")
        if len(f) and not math.isfinite(f[-1]):  # increasing, so only the last can be infinite
            raise InputError("frequencies must be finite")
        if not all(0 < z < math.inf for z in self.reference_impedances):
            raise InputError("reference impedances must be finite and > 0")

    def __len__(self) -> int:
        return len(self.frequencies)

    def s11_db(self) -> np.ndarray:
        return magnitude_db(self.s11)


def _cascade(sections, w) -> AbcdMatrix:
    """Chain product of (topology, params) pairs at angular frequencies `w`.

    Each section's entries are built only when the chain reaches it. The
    product's entries are broadcast against `w`; a parameter column of K
    sets gives `(K, F)` arrays.
    """
    total = _chain(AbcdMatrix(*_section_entries(t, p, w)) for t, p in sections)
    return AbcdMatrix(*np.broadcast_arrays(total.a, total.b, total.c, total.d, w)[:4])


def netlist_abcd_array(netlist: Netlist, frequencies: np.ndarray) -> AbcdMatrix:
    """Cascaded ABCD of the netlist over frequency, by the walk the fitter uses too."""
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    return _cascade(((s.topology, s.params) for s in netlist.sections), w)


def _checked_s(convert):
    """The S-parameter array `convert()` returns, every entry of it finite.

    Overflow inside the chain or the conversion, and a branch impedance or
    admittance of exactly zero, show up as a non-finite S-parameter, which
    is reported here instead of as numpy warnings.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = convert()
    if not np.isfinite(s).all():
        raise NonFiniteResult(
            "S-parameters are not finite; a section value overflows"
            " or a branch impedance or admittance is zero"
        )
    return s


def _batch_s11(sections, w, z01: float, z02: float) -> np.ndarray:
    """Checked s11 of (topology, params) pairs whose parameters may be (K, 1) columns.

    The same section walk as the sweep's; the fitter reads s11 alone, so
    s21 and s22 are not computed.
    """
    return _checked_s(lambda: _s11(_cascade(sections, w), z01, z02))


_SWEEP_BLOCK = 4096  # frequencies per pass of `sweep`, keeping its temporaries small


def sweep(netlist: Netlist, grid: SweepGrid) -> SParameterTrace:
    """Simulate the netlist over the grid, returning the full S set.

    Every section is reciprocal, so s12 is s21: the trace's s12 and s21
    share one read-only array.
    """
    freqs = grid.frequencies()
    z01 = netlist.input_port_impedance
    z02 = netlist.output_port_impedance
    s = np.empty((3, len(freqs)), dtype=complex)

    def convert():
        for k in range(0, len(freqs), _SWEEP_BLOCK):
            block = slice(k, k + _SWEEP_BLOCK)
            s[0, block], s[1, block], s[2, block] = _abcd_to_s(
                netlist_abcd_array(netlist, freqs[block]), z01, z02
            )
        return s

    s11, s21, s22 = _checked_s(convert)
    return SParameterTrace(freqs, s11, s21, s21, s22, (z01, z02))
