"""Touchstone version-1 reader/writer plus the trace CSV format.

One-port (.s1p) and two-port (.s2p) files are supported in RI, MA and
DB value formats. Version 1 carries a single reference resistance, so
a run with a different output-port reference records it in a structured
comment (``! PORT2_REF_OHMS <value>``) that the reader honors.
The reader checks the text line by line, then converts all rows into a
trace at once; the writer formats whole columns. Numbers are written as
the shortest decimal that parses back to the identical float, which
makes output byte-stable and RI round trips exact.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import InputError, LocatedError
from .network import DB_FLOOR, SParameterTrace
from .sinum import format_bare

FREQUENCY_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
VALUE_FORMATS = ("RI", "MA", "DB")

PORT2_REF_COMMENT = "PORT2_REF_OHMS"

CSV_HEADER = "freq_hz,s11_re,s11_im,s11_db"


class TouchstoneError(InputError):
    pass


class BadOptionLine(LocatedError, TouchstoneError):
    pass


class NonMonotoneFrequency(LocatedError, TouchstoneError):
    pass


class MalformedRow(LocatedError, TouchstoneError):
    pass


def _parse_option_line(line: str, lineno: int):
    tokens = line[1:].split()
    unit = "ghz"
    fmt = "ma"
    resistance = 50.0
    parameter = "s"
    i = 0
    while i < len(tokens):
        token = tokens[i].lower()
        if token in FREQUENCY_UNITS:
            unit = token
        elif token in ("s", "y", "z", "g", "h"):
            parameter = token
        elif token in ("ri", "ma", "db"):
            fmt = token
        elif token == "r":
            if i + 1 >= len(tokens):
                raise BadOptionLine("R needs a resistance value", lineno)
            try:
                resistance = float(tokens[i + 1])
            except ValueError:
                raise BadOptionLine(f"bad reference resistance {tokens[i + 1]!r}", lineno) from None
            i += 1
        else:
            raise BadOptionLine(f"unknown option token {tokens[i]!r}", lineno)
        i += 1
    if parameter != "s":
        raise BadOptionLine(f"only S-parameter files are supported, got {parameter!r}", lineno)
    if not (resistance > 0 and math.isfinite(resistance)):
        raise BadOptionLine("reference resistance must be finite and > 0", lineno)
    return unit, fmt.upper(), resistance


def read_touchstone(text: str) -> SParameterTrace:
    """Parse one-port or two-port version-1 text into a trace; errors name their line."""
    unit_fmt_res = None
    port2_ref = None
    rows = []
    linenos = []
    option_lineno = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("!")
        comment = comment.strip()
        if comment.startswith(PORT2_REF_COMMENT):
            try:
                port2_ref = float(comment[len(PORT2_REF_COMMENT):])
            except ValueError:
                port2_ref = math.nan
            if not (port2_ref > 0 and math.isfinite(port2_ref)):
                raise MalformedRow(f"bad {PORT2_REF_COMMENT} comment", lineno)
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if unit_fmt_res is not None:
                raise BadOptionLine("second option line", lineno)
            unit_fmt_res = _parse_option_line(line, lineno)
            option_lineno = lineno
            continue
        if unit_fmt_res is None:
            raise BadOptionLine("data before the option line", lineno)
        fields = line.split()
        try:
            values = tuple(float(f) for f in fields)
        except ValueError:
            raise MalformedRow(f"non-numeric field in {line!r}", lineno) from None
        if not all(map(math.isfinite, values)):
            raise MalformedRow(f"non-finite field in {line!r}", lineno)
        if len(values) not in (3, 9):
            raise MalformedRow(
                f"expected 3 (one-port) or 9 (two-port) numbers, got {len(values)}", lineno
            )
        if rows and len(values) != len(rows[0]):
            raise MalformedRow("row width changed mid-file", lineno)
        if rows and values[0] <= rows[-1][0]:
            raise NonMonotoneFrequency(
                f"frequency {values[0]} not above previous {rows[-1][0]}", lineno
            )
        if not values[0] > 0:
            raise MalformedRow(f"frequency {values[0]} must be > 0", lineno)
        rows.append(values)
        linenos.append(lineno)

    if unit_fmt_res is None:
        raise BadOptionLine("missing option line", 1)
    if not rows:
        raise MalformedRow("no data rows", option_lineno)
    unit, fmt, resistance = unit_fmt_res
    data = np.array(rows).T
    x, y = data[1::2], data[2::2]  # one row per port, in file order: S11 (S21 S12 S22)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        freqs = data[0] * FREQUENCY_UNITS[unit]
        if fmt == "RI":
            s = x + 1j * y
        else:
            magnitude = x if fmt == "MA" else 10.0 ** (x / 20.0)
            s = magnitude * np.exp(1j * np.radians(y))
    ok = np.isfinite(freqs) & np.isfinite(s).all(axis=0)
    ok[1:] &= freqs[1:] > freqs[:-1]
    if not ok.all():
        raise MalformedRow(
            "value overflows or frequencies collide after unit or dB conversion",
            linenos[ok.argmin()],
        )
    z2 = port2_ref if port2_ref is not None else resistance
    return SParameterTrace(freqs, *s, reference_impedances=(resistance, z2))


def _columns(samples: np.ndarray, fmt: str) -> tuple[list[float], list[float]]:
    """One port's samples as the format's two field columns."""
    if fmt == "RI":
        return samples.real.tolist(), samples.imag.tolist()
    values = samples.tolist()
    mags = [abs(v) for v in values]
    # per-sample libm calls: numpy's abs/arctan2/log10 differ in the last ulp
    angles = [math.degrees(cmath.phase(v)) if m else 0.0 for v, m in zip(values, mags)]
    if fmt == "MA":
        return mags, angles
    return [max(20.0 * math.log10(m), DB_FLOOR) if m else DB_FLOOR for m in mags], angles


def write_touchstone(trace: SParameterTrace, fmt: str = "RI") -> str:
    """Render a trace as a version-1 file (frequencies in Hz).

    Two-port data is written whenever the trace carries s21 and s22;
    a missing s12 falls back to s21 (all networks this package builds
    are reciprocal).
    """
    if fmt not in VALUE_FORMATS:
        raise TouchstoneError(f"unknown format {fmt!r}; expected one of {VALUE_FORMATS}")
    z01, z02 = trace.reference_impedances
    lines = []
    if z02 != z01:
        lines.append(f"! {PORT2_REF_COMMENT} {format_bare(z02)}")
    lines.append(f"# Hz S {fmt} R {format_bare(z01)}")
    ports = [trace.s11]
    if trace.s21 is not None and trace.s22 is not None:
        s12 = trace.s12 if trace.s12 is not None else trace.s21
        ports += [trace.s21, s12, trace.s22]
    columns = [column for samples in ports for column in _columns(samples, fmt)]
    for row in zip(trace.frequencies.tolist(), *columns):
        lines.append(" ".join(map(format_bare, row)))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: SParameterTrace) -> str:
    """CSV with 9 significant digits: freq_hz, s11_re, s11_im, s11_db."""
    columns = (trace.frequencies, trace.s11.real, trace.s11.imag, trace.s11_db())
    lines = [CSV_HEADER]
    for f, re, im, db in zip(*(column.tolist() for column in columns)):
        lines.append(f"{f:.9g},{re:.9g},{im:.9g},{db:.9g}")
    return "\n".join(lines) + "\n"
