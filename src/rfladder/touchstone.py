"""Touchstone version-1 reader/writer plus the trace CSV format.

One-port (.s1p) and two-port (.s2p) files are supported in RI, MA and
DB value formats. Version 1 carries a single reference resistance, so
a run with a different output-port reference records it in a structured
comment (``! PORT2_REF_OHMS <value>``) that the reader honors.
Numbers are written as the shortest decimal that parses back to the
identical float, which makes output byte-stable and value round trips
exact.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class TouchstoneDocument:
    """Raw parsed content of one file before conversion to a trace."""

    frequency_unit: str
    format: str
    reference_resistance: float
    port2_reference: float | None
    rows: tuple[tuple[float, ...], ...]
    ports: int


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


def _pair_to_complex(x: float, y: float, fmt: str) -> complex:
    if fmt == "RI":
        return complex(x, y)
    if fmt == "MA":
        return cmath.rect(x, math.radians(y))
    return cmath.rect(10.0 ** (x / 20.0), math.radians(y))


def parse_touchstone(text: str) -> TouchstoneDocument:
    """Parse file text into a raw document; errors carry line numbers."""
    unit_fmt_res = None
    port2_ref = None
    rows = []
    ports = None
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
        if len(values) == 3:
            row_ports = 1
        elif len(values) == 9:
            row_ports = 2
        else:
            raise MalformedRow(
                f"expected 3 (one-port) or 9 (two-port) numbers, got {len(values)}", lineno
            )
        if ports is None:
            ports = row_ports
        elif ports != row_ports:
            raise MalformedRow("row width changed mid-file", lineno)
        if rows and values[0] <= rows[-1][0]:
            raise NonMonotoneFrequency(
                f"frequency {values[0]} not above previous {rows[-1][0]}", lineno
            )
        rows.append(values)

    if unit_fmt_res is None:
        raise BadOptionLine("missing option line", option_lineno or 1)
    if not rows:
        raise MalformedRow("no data rows", option_lineno or 1)
    unit, fmt, resistance = unit_fmt_res
    return TouchstoneDocument(unit, fmt, resistance, port2_ref, tuple(rows), ports)


def document_to_trace(doc: TouchstoneDocument) -> SParameterTrace:
    """Convert a raw document to a trace in Hz with complex samples."""
    scale = FREQUENCY_UNITS[doc.frequency_unit]
    freqs = np.array([row[0] * scale for row in doc.rows])
    s11 = np.array([_pair_to_complex(row[1], row[2], doc.format) for row in doc.rows])
    s21 = s12 = s22 = None
    if doc.ports == 2:
        # version-1 two-port row order: f S11 S21 S12 S22
        s21 = np.array([_pair_to_complex(row[3], row[4], doc.format) for row in doc.rows])
        s12 = np.array([_pair_to_complex(row[5], row[6], doc.format) for row in doc.rows])
        s22 = np.array([_pair_to_complex(row[7], row[8], doc.format) for row in doc.rows])
    z2 = doc.port2_reference if doc.port2_reference is not None else doc.reference_resistance
    return SParameterTrace(
        freqs, s11, s21, s12, s22, (doc.reference_resistance, z2)
    )


def read_touchstone(text: str) -> SParameterTrace:
    """Parse one-port or two-port version-1 content into a trace."""
    return document_to_trace(parse_touchstone(text))


def _complex_fields(value: complex, fmt: str) -> tuple[str, str]:
    if fmt == "RI":
        return format_bare(value.real), format_bare(value.imag)
    mag = abs(value)
    angle = math.degrees(cmath.phase(value)) if mag else 0.0
    if fmt == "MA":
        return format_bare(mag), format_bare(angle)
    db = 20.0 * math.log10(mag) if mag else DB_FLOOR
    return format_bare(max(db, DB_FLOOR)), format_bare(angle)


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
    two_port = trace.s21 is not None and trace.s22 is not None
    s12 = trace.s12 if trace.s12 is not None else trace.s21
    for k, f in enumerate(trace.frequencies):
        fields = [format_bare(float(f))]
        fields += _complex_fields(complex(trace.s11[k]), fmt)
        if two_port:
            fields += _complex_fields(complex(trace.s21[k]), fmt)
            fields += _complex_fields(complex(s12[k]), fmt)
            fields += _complex_fields(complex(trace.s22[k]), fmt)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: SParameterTrace) -> str:
    """CSV with 9 significant digits: freq_hz, s11_re, s11_im, s11_db."""
    db = trace.s11_db()
    lines = [CSV_HEADER]
    for k, f in enumerate(trace.frequencies):
        s = trace.s11[k]
        lines.append(f"{f:.9g},{s.real:.9g},{s.imag:.9g},{db[k]:.9g}")
    return "\n".join(lines) + "\n"
