"""Touchstone version-1 reader/writer plus the trace CSV format.

One-port (.s1p) and two-port (.s2p) files are supported in RI, MA and
DB value formats. Version 1 carries a single reference resistance, so
a run with a different output-port reference records it in a structured
comment (``! PORT2_REF_OHMS <value>``) that the reader honors.
Both directions work on whole columns. The reader's line loop only
sorts lines into comments, the option line and data lines, converting
each data line's fields to a tuple of floats; one pass puts them all in
one `(rows, width)` array, and the row checks (3 or 9 numbers, one
width, finite, positive increasing frequencies) run as array masks over
it. Only when one fails are the rows checked again one at a time, so
every error keeps the line and message of the first bad line. The
writer renders the values in blocks of rows with
`sinum.format_bare_column`, one `repr` per block. Numbers are written
as the shortest decimal that parses back to the identical float, which
makes output byte-stable and RI round trips exact. MA and DB columns
come from the same numpy formulas as the analysis (`np.abs`,
`network.magnitude_db` with its -300 dB floor, `np.angle` in degrees and
0 for a zero sample), so they may differ in the last digit from files
that earlier per-sample versions wrote; RI output is unchanged.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import InputError, LocatedError
from .network import SParameterTrace, magnitude_db
from .sinum import format_bare, format_bare_column

FREQUENCY_UNITS = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
VALUE_FORMATS = ("RI", "MA", "DB")

PORT2_REF_COMMENT = "PORT2_REF_OHMS"

CSV_HEADER = "freq_hz,s11_re,s11_im,s11_db"

# rows formatted per block, to bound the field strings alive at once: formatting a
# 1,201-point two-port file whole raised the writer's peak allocation from 1.0 to 1.4 MB
_WRITE_ROWS = 256


class TouchstoneError(InputError):
    pass


class BadOptionLine(LocatedError, TouchstoneError):
    pass


class NonMonotoneFrequency(LocatedError, TouchstoneError):
    pass


class MalformedRow(LocatedError, TouchstoneError):
    pass


def _parse_option_line(line: str, lineno: int):
    unit = "ghz"
    fmt = "ma"
    resistance = 50.0
    parameter = "s"
    tokens = iter(line[1:].split())
    for token in tokens:
        lowered = token.lower()
        if lowered in FREQUENCY_UNITS:
            unit = lowered
        elif lowered in ("s", "y", "z", "g", "h"):
            parameter = lowered
        elif lowered in ("ri", "ma", "db"):
            fmt = lowered
        elif lowered == "r":
            value = next(tokens, None)
            if value is None:
                raise BadOptionLine("R needs a resistance value", lineno)
            try:
                resistance = float(value)
            except ValueError:
                raise BadOptionLine(f"bad reference resistance {value!r}", lineno) from None
        else:
            raise BadOptionLine(f"unknown option token {token!r}", lineno)
    if parameter != "s":
        raise BadOptionLine(f"only S-parameter files are supported, got {parameter!r}", lineno)
    if not (resistance > 0 and math.isfinite(resistance)):
        raise BadOptionLine("reference resistance must be finite and > 0", lineno)
    return unit, fmt.upper(), resistance


def read_touchstone(text: str) -> SParameterTrace:
    """Parse one-port or two-port version-1 text into a trace; errors name their line."""
    lines = text.splitlines()
    rows, linenos = [], []
    try:
        options, port2_ref, option_lineno = _sort_lines(lines, rows, linenos)
    except TouchstoneError:
        _data(lines, rows, linenos)  # a bad row above the failed line comes first
        raise
    data = _data(lines, rows, linenos).T
    unit, fmt, resistance = options
    if not linenos:
        raise MalformedRow("no data rows", option_lineno)
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


def _sort_lines(lines, rows, linenos):
    """Sort lines into comments, the option line and data lines.

    Appends the numbers of each data line to `rows` as a tuple and the
    line's number to `linenos`, and returns the options, the port-2
    reference and the option line's number. A data line is converted as
    it is split, so the text of its fields is not kept.
    """
    options = port2_ref = option_lineno = None
    for lineno, raw in enumerate(lines, start=1):
        line, bang, comment = raw.partition("!")
        if bang:
            comment = comment.strip()
            if comment.startswith(PORT2_REF_COMMENT):
                try:
                    port2_ref = float(comment[len(PORT2_REF_COMMENT):])
                except ValueError:
                    port2_ref = math.nan
                if not (port2_ref > 0 and math.isfinite(port2_ref)):
                    raise MalformedRow(f"bad {PORT2_REF_COMMENT} comment", lineno)
        fields = line.split()
        if not fields:
            continue
        if fields[0][0] == "#":
            if options is not None:
                raise BadOptionLine("second option line", lineno)
            options = _parse_option_line(line.strip(), lineno)
            option_lineno = lineno
            continue
        if options is None:
            raise BadOptionLine("data before the option line", lineno)
        try:
            # a tuple per row: one flat list grown to a whole 1,201-row two-port
            # file raised the CLI pipeline's peak resident memory by 0.5-0.9 MB
            rows.append(tuple(map(float, fields)))
        except ValueError:
            raise MalformedRow(f"non-numeric field in {line.strip()!r}", lineno) from None
        linenos.append(lineno)
    if options is None:
        raise BadOptionLine("missing option line", 1)
    return options, port2_ref, option_lineno


def _data(lines, rows, linenos) -> np.ndarray:
    """The data rows as one `(rows, width)` array, checked a whole column at a time.

    A row must have 3 or 9 numbers, as many as the first row, all finite,
    and a positive frequency above the previous row's. When a check
    fails, the rows are checked again one at a time, so the error raised
    is the one a line-by-line reader meets first.
    """
    widths = list(map(len, rows))
    width = widths[0] if rows else 3
    flat = np.fromiter(chain.from_iterable(rows), float, sum(widths))
    if width in (3, 9) and widths.count(width) == len(rows):
        data = flat.reshape(len(rows), width)
        f = data[:, 0]
        if np.isfinite(flat).all() and (f[1:] > f[:-1]).all() and (f[:1] > 0).all():
            return data
    _raise_first_bad_row(lines, rows, linenos)


def _raise_first_bad_row(lines, rows, linenos):
    """Raise the error of the first data row that fails a check, checks in order."""
    width = previous = None
    for row, lineno in zip(rows, linenos):
        if not all(map(math.isfinite, row)):
            line = lines[lineno - 1].partition("!")[0].strip()
            raise MalformedRow(f"non-finite field in {line!r}", lineno)
        if len(row) not in (3, 9):
            raise MalformedRow(
                f"expected 3 (one-port) or 9 (two-port) numbers, got {len(row)}", lineno
            )
        if width is not None and len(row) != width:
            raise MalformedRow("row width changed mid-file", lineno)
        if previous is not None and row[0] <= previous:
            raise NonMonotoneFrequency(f"frequency {row[0]} not above previous {previous}", lineno)
        if not row[0] > 0:
            raise MalformedRow(f"frequency {row[0]} must be > 0", lineno)
        width, previous = len(row), row[0]
    raise AssertionError("a data check failed, but no row fails it")


def _columns(samples: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """One port's samples as the format's two field columns."""
    if fmt == "RI":
        return samples.real, samples.imag
    with np.errstate(over="ignore"):  # an overflowing magnitude is refused as non-finite
        magnitude = np.abs(samples)
        values = magnitude if fmt == "MA" else magnitude_db(samples)
    return values, np.where(magnitude == 0, 0.0, np.angle(samples, deg=True))


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
    columns = [trace.frequencies] + [c for samples in ports for c in _columns(samples, fmt)]
    table = np.column_stack(columns)
    for k in range(0, len(table), _WRITE_ROWS):
        # the block's values in row order, so a non-finite one is met where a row loop meets it
        fields = iter(format_bare_column(table[k : k + _WRITE_ROWS].ravel()))
        lines.extend(map(" ".join, zip(*[fields] * len(columns))))
    return "\n".join(lines) + "\n"


def write_trace_csv(trace: SParameterTrace) -> str:
    """CSV with 9 significant digits: freq_hz, s11_re, s11_im, s11_db."""
    columns = (trace.frequencies, trace.s11.real, trace.s11.imag, trace.s11_db())
    lines = [CSV_HEADER]
    for f, re, im, db in zip(*(column.tolist() for column in columns)):
        lines.append(f"{f:.9g},{re:.9g},{im:.9g},{db:.9g}")
    return "\n".join(lines) + "\n"
