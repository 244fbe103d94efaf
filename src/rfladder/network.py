"""Frequency-domain two-port analysis of a netlist.

Every section maps to a 2x2 chain (ABCD) matrix; a cascade is the
left-to-right matrix product with the input side first. S-parameters
use real, possibly distinct, reference impedances at the two ports.
Each topology is one list of steps: a series impedance z, [[1, z],
[0, 1]], changes only b and d of the chain so far; a shunt admittance
y, [[1, 0], [y, 1]], only a and c; only a line takes a full 2x2
product. The engine carries the four chain entries as scalars or as
arrays over frequency, so a single-frequency call and a sweep share one
step list per topology, one walk and one S conversion. The walk,
`_walk`, is the one way from a ladder and angular frequencies to chain
entries: the sweep's blocks, the fitter's blocks, `section_abcd` and
`netlist_abcd_array` all call it alike. It runs over a ladder that
`_compiled` gives each free value's slot once: a `(K, n)` array of
values enters its sections as `(K, 1)` columns, adding a leading axis
of K parameter sets to every array; the sweep's ladder has no slots.
A chain has one form throughout, the 4-tuple (a, b, c, d), which
`AbcdMatrix` only names. Its entries keep the shapes their arithmetic
gives them: the S conversion broadcasts them into the block it writes,
and only `netlist_abcd_array`, which returns them, broadcasts them to
full arrays. Every section topology is reciprocal (AD - BC = 1), so
the sweep's s12 is its s21, one read-only array; the public scalar
`abcd_to_s` keeps s12 = s21 * det for any matrix a caller passes.
Every evaluation fills one result in blocks of 4,096 chain entries, K
times frequencies, with one finiteness check at the end: whole-grid
temporaries cost more in allocation and page faults than in arithmetic,
while blocks this size are reused from the heap. Each sum or difference
of the walk and the conversion is written into the operand its caller
just made, where numpy takes it as the result's array (`_into`),
operands in their order: entries may share arrays, no value column or
line table is written, and no bit changes. The sweep (K = 1) fills s11,
s21 and s22; the fitter s11 dB alone. `magnitude_db` and its inverse
`magnitude_from_db` are the package's one dB formula. A `SweepGrid`
keeps its last ladder's line cos θ and sin θ, so a Monte-Carlo run over
R, L and C behind one feed line computes that line's transcendentals
once; every evaluation but a sweep, in each block.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import InputError, NonFiniteResult, NonPositiveFrequency, NumericalError, require
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


class AbcdMatrix(NamedTuple):
    """Chain matrix of one two-port: b in ohms, c in siemens; scalars or arrays."""

    a: complex
    b: complex
    c: complex
    d: complex

    def determinant(self) -> complex:
        return self.a * self.d - self.b * self.c


_ONE, _ZERO = 1.0, 0.0  # the identity's entries: a walk skips them, costing no array operation
IDENTITY = AbcdMatrix(_ONE, _ZERO, _ZERO, _ONE)
_UFUNCS = {operator.add: np.add, operator.sub: np.subtract}


def _into(op, x, y, into_y=False):
    """op(x, y) into x (y when `into_y`), just made by its caller, where numpy takes it as `out`."""
    try:
        return _UFUNCS[op](x, y, out=y if into_y else x)
    except (TypeError, ValueError):  # refused before any write: a scalar, narrower dtype or shape
        return op(x, y)  # the Python operator, so that scalars stay Python numbers


def _plus(x, u, v):
    """x + u*v, where x or u may be the identity's constant and cost nothing."""
    if u is _ZERO:
        return x
    if u is _ONE:
        return v if x is _ZERO else x + v
    return u * v if x is _ZERO else _into(operator.add, x, u * v, into_y=True)


def _product(m, n):
    """Left-to-right product of two chain matrices, each given as (a, b, c, d)."""
    a, b, c, d = m
    na, nb, nc, nd = n
    return (
        _plus(_plus(_ZERO, a, na), b, nc),
        _plus(_plus(_ZERO, a, nb), b, nd),
        _plus(_plus(_ZERO, c, na), d, nc),
        _plus(_plus(_ZERO, c, nb), d, nd),
    )


def _series(m, z):
    """Chain `m` followed by a series impedance z, [[1, z], [0, 1]]."""
    a, b, c, d = m
    return a, _plus(b, a, z), c, _plus(d, c, z)


def _shunt(m, y):
    """Chain `m` followed by a shunt admittance y, [[1, 0], [y, 1]]."""
    a, b, c, d = m
    return _plus(a, b, y), b, _plus(c, d, y), d


# each element's impedance and admittance at jw, in R, L, C order
_IMPEDANCES = (
    ("R", lambda r, jw: r), ("L", lambda l, jw: jw * l), ("C", lambda c, jw: 1.0 / (jw * c))
)
_ADMITTANCES = (
    ("R", lambda r, jw: 1.0 / r), ("L", lambda l, jw: 1.0 / (jw * l)), ("C", lambda c, jw: jw * c)
)


def _branch(p, jw, forms):
    """Sum of `forms` over the elements present in `p`, in order."""
    return functools.reduce(operator.add, [form(p[key], jw) for key, form in forms if key in p])


def _section_steps(topology: str, p, w, jw, lines):
    """One section as the steps of a chain walk at angular frequencies `w` (jw = 1j*w).

    Each step is a (function, value) pair mapping the chain so far to the
    chain through it. A parameter given as a `(K, 1)` column broadcasts,
    adding a leading batch axis of K parameter sets. A line takes its
    cos θ and sin θ from the iterator `lines` while it yields, else
    computes them.
    """
    if topology == "series_rl_shunt_c":
        return (_series, _branch(p, jw, _IMPEDANCES[:2])), (_shunt, jw * p["C"])  # R + jwL, jwC
    if topology == "series_rlc":
        return ((_series, _branch(p, jw, _IMPEDANCES)),)
    if topology == "shunt_series_rlc":
        return ((_shunt, 1.0 / _branch(p, jw, _IMPEDANCES)),)
    if topology == "shunt_parallel_rlc":
        return ((_shunt, _branch(p, jw, _ADMITTANCES)),)
    if topology == "tline":
        z0 = p["z0"]
        cos, sin = next(lines, None) or _cos_sin(p, w)
        cos = cos.astype(complex)  # once, for both a and d
        return ((_product, (cos, 1j * z0 * sin, 1j / z0 * sin, cos)),)


def _cos_sin(p, w):
    """cos θ and sin θ of a line with parameters `p` at angular frequencies `w`."""
    theta = w * np.sqrt(p["eps_eff"]) * p["len"] / SPEED_OF_LIGHT
    return np.cos(theta), np.sin(theta)


def section_abcd(section: Section, frequency: float) -> AbcdMatrix:
    """Chain matrix of one section at a single frequency."""
    require("frequency", frequency, NonPositiveFrequency)
    return AbcdMatrix(*map(complex, _walk(_compiled((section,)), 2.0 * np.pi * frequency)))


def cascade(matrices) -> AbcdMatrix:
    """Left-to-right product of chain matrices (input side first)."""
    matrices = list(matrices)
    if not matrices:
        raise EmptyCascade("cascade of zero matrices")
    return AbcdMatrix(*functools.reduce(_product, matrices))


def input_impedance(m: AbcdMatrix, load: complex) -> complex:
    """Impedance seen at the input with the output terminated in `load`."""
    a, b, c, d = m
    denom = c * load + d
    if denom == 0:
        raise SingularTermination("C*ZL + D vanished")
    return (a * load + b) / denom


def reflection(z_in: complex, z_ref: float) -> complex:
    """Reflection coefficient (z_in - z_ref) / (z_in + z_ref)."""
    require("reference impedance", z_ref, NonPositiveImpedance)
    denom = z_in + z_ref
    if denom == 0:
        raise DegenerateDenominator("z_in + z_ref vanished")
    return (z_in - z_ref) / denom


def _terms(m: AbcdMatrix, z01: float, z02: float):
    """s11's numerator, a*z02, c*z01*z02, d*z01 and the denominator, checked to be nonzero."""
    a, b, c, d = m
    az, czz, dz = a * z02, c * z01 * z02, d * z01
    t = az + b
    denom = _into(operator.add, t + czz, dz)
    if not np.all(denom):
        raise DegenerateDenominator("conversion denominator vanished")
    return _into(operator.sub, t - czz, dz), az, czz, dz, denom


def _s11(m: AbcdMatrix, z01: float, z02: float):
    """s11 of chain entries."""
    numerator, *_, denom = _terms(m, z01, z02)
    return numerator / denom


def _abcd_to_s(m: AbcdMatrix, z01: float, z02: float, out=(None, None, None)):
    """(s11, s21, s22) of chain entries, written into the three rows of `out` when given."""
    numerator, az, czz, dz, denom = _terms(m, z01, z02)
    s11 = np.divide(numerator, denom, out=out[0])
    s21 = np.divide(2.0 * math.sqrt(z01 * z02), denom, out=out[1])
    s22 = _into(operator.add, _into(operator.sub, m[1] - az, czz), dz)
    return s11, s21, np.divide(s22, denom, out=out[2])


def abcd_to_s(m: AbcdMatrix, z01: float, z02: float):
    """Convert a chain matrix to (s11, s12, s21, s22) with real references.

    s12 = s21 * det, so a non-reciprocal matrix converts correctly too.
    """
    require("reference impedances", z01, NonPositiveImpedance)
    require("reference impedances", z02, NonPositiveImpedance)
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
    """Linear frequency grid, hertz; one read-only frequency array serves all its sweeps.

    The grid also keeps one memo: the read-only cos θ and sin θ of the
    lines of the last ladder swept on it, 16 bytes per point per line of
    that ladder (`_line_tables`). Only lines: theirs is the one step that
    costs transcendentals. The memo is no field, so it enters no
    comparison, hash, repr, copy or pickle: those rebuild their own.
    """

    start: float
    stop: float
    points: int

    def __post_init__(self):
        for end in ("start", "stop"):
            object.__setattr__(self, end, require(f"grid {end}", getattr(self, end), InvalidGrid))
        if not self.start < self.stop:
            raise InvalidGrid("need start < stop")
        try:
            object.__setattr__(self, "points", operator.index(self.points))
        except TypeError:
            raise InvalidGrid(f"points must be an integer, got {self.points!r}") from None
        if self.points < 2:
            raise InvalidGrid("need at least 2 points")

    def __getstate__(self):  # the fields alone, restored into __dict__ past `frozen`
        return asdict(self)

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

    def _line_tables(self, ladder) -> list:
        """Read-only (cos θ, sin θ) over the grid for each line of a compiled ladder.

        The grid keeps the last ladder's tables, keyed by the exact bits of
        every line's eps_eff and len, and serves them again while those
        are the same.
        """
        lines = [p for topology, p, _ in ladder if topology == "tline"]
        # every value is a float, whose hex tells -0.0 from 0.0: their sines differ
        key = [p[name].hex() for p in lines for name in ("eps_eff", "len")]
        memo = self.__dict__.get("_lines")
        if memo is None or memo[0] != key:
            w = 2.0 * np.pi * self._frequencies
            # an overflowing line's non-finite table is reported by `_filled`, as any overflow
            with np.errstate(over="ignore", invalid="ignore"):
                tables = [_cos_sin(p, w) for p in lines]
            for table in tables:
                for a in table:
                    a.flags.writeable = False
            memo = self.__dict__["_lines"] = (key, tables)  # outside the dataclass fields
        return memo[1]


DB_FLOOR = -300.0  # reported dB of an exact-zero reflection


def magnitude_db(values: np.ndarray) -> np.ndarray:
    """20*log10|x| with zeros clamped to the -300 dB floor."""
    mag = np.maximum(np.abs(values), magnitude_from_db(DB_FLOOR))
    out = mag if isinstance(mag, np.ndarray) else None  # the log and x20 go where mag is
    return np.multiply(20.0, np.log10(mag, out=out), out=out)


def magnitude_from_db(db):
    """The magnitude |x| of a dB value: the inverse of `magnitude_db` above its floor."""
    return 10.0 ** (db / 20.0)


@dataclass(frozen=True, eq=False)
class SParameterTrace:
    """Samples over frequency, held in read-only views of the caller's arrays where the dtype fits.

    Not copies: `sweep` and the readers own their arrays, and a copy adds 1.1 MB per 20,001 points.
    """

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
        if (self.s21 is None) != (self.s22 is None) or (self.s12 is not None and self.s21 is None):
            raise InputError("s21 and s22 must be given together, and s12 only with them")
        if len(f) and not f[0] > 0:
            raise InputError("frequencies must be positive")
        if len(f) > 1 and not np.all(f[1:] > f[:-1]):
            raise InputError("frequencies must be strictly increasing")
        if len(f) and not math.isfinite(f[-1]):  # increasing, so only the last can be infinite
            raise InputError("frequencies must be finite")
        refs = self.reference_impedances
        if len(refs) != 2:
            raise InputError("reference impedances must be two, one per port")
        name, (z1, z2) = "reference impedances", refs
        held = require(name, z1, InputError), require(name, z2, InputError)
        object.__setattr__(self, "reference_impedances", held)

    def __len__(self) -> int:
        return len(self.frequencies)

    def s11_db(self) -> np.ndarray:
        return magnitude_db(self.s11)


def _compiled(sections, free=()):
    """`(topology, params, slots)` per section; a slot `(parameter, column)` puts the free
    value `free[column]`, found by (section name, parameter), into its section."""
    column = {slot: j for j, slot in enumerate(free)}
    return [(s.topology, s.params,
             [(p, column[s.name, p]) for p in s.params if (s.name, p) in column] if free else ())
            for s in sections]


def _walk(ladder, w, values=None, lines=()):
    """Chain entries (a, b, c, d) of a compiled ladder at angular frequencies `w`.

    A slot takes its column j of `values` as `values[:, j, None]`. Each
    section is walked as its steps: a series impedance updates b and d, a
    shunt admittance a and c, and only a line takes a full 2x2 product.
    `lines` may give the ladder's lines, in order, their (cos θ, sin θ)
    at `w`. An entry keeps the shape its arithmetic gives it: a constant
    of the identity, a scalar, or an array over frequency, `(K, F)` for K
    rows.
    """
    jw = 1j * w
    m = IDENTITY
    lines = iter(lines)
    for topology, params, slots in ladder:
        if slots:
            params = {**params, **{p: values[:, j, None] for p, j in slots}}
        for step, value in _section_steps(topology, params, w, jw, lines):
            m = step(m, value)
    return m


def netlist_abcd_array(netlist: Netlist, frequencies: np.ndarray) -> AbcdMatrix:
    """Cascaded ABCD of the netlist by the one walk, each entry of the frequencies' shape."""
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    return AbcdMatrix(*np.broadcast_arrays(*_walk(_compiled(netlist.sections), w), w)[:4])


_BLOCK = 4096  # chain entries, parameter sets x frequencies, per block of a blocked fill


def _filled(out: np.ndarray, rows: int, fill) -> np.ndarray:
    """`out`, filled by `fill(block, out[..., block])`, `_BLOCK // rows` frequencies a block, each
    sum written into the operand its caller just made, where numpy takes it as the result's array.

    Overflow inside the chain or the conversion, and a branch impedance or
    admittance of exactly zero, show up as a non-finite entry, which is
    reported here instead of as numpy warnings.
    """
    step = max(1, _BLOCK // rows)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(0, out.shape[-1], step):
            block = slice(k, k + step)
            fill(block, out[..., block])
    if not np.isfinite(out.view(float)).all():
        raise NonFiniteResult(
            "S-parameters are not finite; a section value overflows"
            " or a branch impedance or admittance is zero"
        )
    return out


def _batch_s11_db(ladder, values, w, z01: float, z02: float) -> np.ndarray:
    """Checked s11 dB, `(K, F)`, of a compiled ladder for K rows of free values.

    The same section walk as the sweep's, each block at once to s11 and
    dB: the fitter reads s11 alone, so s21 and s22 are not computed.
    """

    def fill(block, out):
        out[:] = magnitude_db(_s11(_walk(ladder, w[block], values), z01, z02))

    return _filled(np.empty((len(values), len(w))), len(values), fill)


def sweep(netlist: Netlist, grid: SweepGrid) -> SParameterTrace:
    """Simulate the netlist over the grid, returning the full S set.

    Every section is reciprocal, so s12 is s21: the trace's s12 and s21
    share one read-only array.
    """
    freqs = grid.frequencies()
    z01 = netlist.input_port_impedance
    z02 = netlist.output_port_impedance
    ladder = _compiled(netlist.sections)
    tables = grid._line_tables(ladder)

    def fill(block, out):
        lines = [(cos[block], sin[block]) for cos, sin in tables]
        _abcd_to_s(_walk(ladder, 2.0 * np.pi * freqs[block], lines=lines), z01, z02, out)

    s11, s21, s22 = _filled(np.empty((3, len(freqs)), complex), 1, fill)
    return SParameterTrace(freqs, s11, s21, s21, s22, (z01, z02))
