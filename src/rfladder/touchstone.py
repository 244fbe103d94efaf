"""Touchstone version-1 reader/writer plus the trace CSV format.

One-port (.s1p) and two-port (.s2p) files are supported in RI, MA and DB
value formats. Version 1 carries a single reference resistance, so a run
with a different output-port reference records it in a structured comment
(``! PORT2_REF_OHMS <value>``) that the reader honors; `_header` writes
that comment and the option line. Both directions work on whole columns.
The reader sorts every line once into comments, the option line and data
rows (a line's text before any ``!``) and converts all rows in one C-level
pass (`np.loadtxt`). `_trace` is its one array check: finite fields, then
finite samples and positive increasing frequencies after conversion. A
field `loadtxt` refuses (such as ``1_0``, which `float` takes), a short
result or a width other than 3 or 9 sends the rows to the per-row checker,
`_check_each_row`, which converts them with `float` one at a time. A
refusal on the fast path runs that checker before it is raised, so the
first bad line's own error wins, and otherwise the refusal itself; no
read runs the checker twice. The writer renders the values in blocks of
rows with `format_bare_column`, one `repr` per block, and joins each row
from the block's columns in file order; an s12 with s21's very bytes
(every sweep's) is not rendered again, its columns are s21's strings.
Numbers are written as the shortest decimal that parses back to the
identical float (integral ones as integers, so -0.0 as ``0``), which
makes output byte-stable and RI round trips exact; so `_read_back` gives
the trace a file reads back as from the writer's table and `_header`'s
lines, through the reader's own `_sort_lines` and conversion, without
the text. MA and DB columns come from the same numpy formulas as the
analysis (`np.abs`, `network.magnitude_db` with its -300 dB floor,
`np.angle` in degrees and 0 for a zero sample), and a DB read converts
back with `network.magnitude_from_db`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, LocatedError, require
from .network import SParameterTrace, magnitude_db, magnitude_from_db
from .sinum import format_bare

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
    require("reference resistance", resistance, BadOptionLine, lineno)
    return unit, fmt.upper(), resistance


def read_touchstone(text: str) -> SParameterTrace:
    """Parse one-port or two-port version-1 text into a trace; errors name their line."""
    rows, linenos = [], []
    try:
        options, port2_ref, option_lineno = _sort_lines(text.splitlines(), rows, linenos)
        if not rows:
            raise MalformedRow("no data rows", option_lineno)
        try:
            data = np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError:  # a field loadtxt refuses; `float` may still take it, as ``1_0``
            data = None
        if data is not None and len(data) == len(rows) and data.shape[1] in (3, 9):
            return _trace(data, linenos, options, port2_ref)
    except TouchstoneError:
        _check_each_row(rows, linenos)  # the first bad row's own error comes first
        raise
    return _trace(_check_each_row(rows, linenos), linenos, options, port2_ref)


def _trace(data: np.ndarray, linenos, options, port2_ref) -> SParameterTrace:
    """The trace of `(rows, width)` data rows, converted to Hz and complex samples.

    Refuses a non-finite field anywhere (a DB ``-inf`` converts to a finite
    zero sample; `read_touchstone`'s per-row checker names its row), or the
    first row with a frequency in Hz that is not finite, positive and above
    the last, or a sample that is not finite.
    """
    unit, fmt, resistance = options
    data = data.T
    x, y = data[1::2], data[2::2]  # one row per port, in file order: S11 (S21 S12 S22)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        freqs = data[0] * FREQUENCY_UNITS[unit]
        if fmt == "RI":
            s = x + 1j * y
        else:
            magnitude = x if fmt == "MA" else magnitude_from_db(x)
            s = magnitude * np.exp(1j * np.radians(y))
    ok = np.isfinite(freqs) & (freqs > 0) & np.isfinite(s).all(axis=0)
    ok[1:] &= freqs[1:] > freqs[:-1]
    if not (ok.all() and np.isfinite(data).all()):
        raise MalformedRow(
            "value overflows or frequencies collide after unit or dB conversion",
            linenos[ok.argmin()],
        )
    z2 = port2_ref if port2_ref is not None else resistance
    return SParameterTrace(freqs, *s, reference_impedances=(resistance, z2))


def _sort_lines(lines, rows, linenos):
    """Sort lines into comments, the option line and data lines.

    Appends each data line's text before any ``!`` to `rows`, stripped,
    and its number to `linenos`; returns the options, the port-2
    reference and the option line's number.
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
                require(PORT2_REF_COMMENT, port2_ref, MalformedRow, lineno)
        line = line.strip()
        if not line:
            continue
        if line[0] == "#":
            if options is not None:
                raise BadOptionLine("second option line", lineno)
            options = _parse_option_line(line, lineno)
            option_lineno = lineno
            continue
        if options is None:
            raise BadOptionLine("data before the option line", lineno)
        rows.append(line)
        linenos.append(lineno)
    if options is None:
        raise BadOptionLine("missing option line", 1)
    return options, port2_ref, option_lineno


def _check_each_row(rows, linenos) -> np.ndarray:
    """The rows converted with `float` one at a time, as a `(rows, width)` array.

    Raises the error of the first row that fails a check, checks in
    order: numeric, finite, 3 or 9 numbers, the first row's width, a
    frequency above the previous row's, a positive frequency.
    """
    values, width, previous = [], None, None
    for line, lineno in zip(rows, linenos):
        try:
            row = tuple(map(float, line.split()))
        except ValueError:
            raise MalformedRow(f"non-numeric field in {line!r}", lineno) from None
        if not all(map(math.isfinite, row)):
            raise MalformedRow(f"non-finite field in {line!r}", lineno)
        if len(row) not in (3, 9):
            raise MalformedRow(
                f"expected 3 (one-port) or 9 (two-port) numbers, got {len(row)}", lineno
            )
        if width is not None and len(row) != width:
            raise MalformedRow("row width changed mid-file", lineno)
        if previous is not None and row[0] <= previous:
            raise NonMonotoneFrequency(f"frequency {row[0]} not above previous {previous}", lineno)
        require("frequency", row[0], MalformedRow, lineno)
        width, previous = len(row), row[0]
        values.append(row)
    return np.array(values)


def check_finite(values: np.ndarray) -> None:
    """Raise `format_bare`'s `NonFiniteValue` for the first non-finite entry of a flat array."""
    finite = np.isfinite(values)
    if not finite.all():
        format_bare(values[finite.argmin()].item())  # raises with its message


def format_bare_column(values) -> list[str]:
    """`[format_bare(v) for v in values]`, checked and rendered a column at a time.

    One `repr` of the whole list gives every entry's shortest decimal;
    only the integral entries below 1e16 are then rewritten as integers.
    """
    column = np.asarray(values, dtype=float)
    check_finite(column)
    items = column.tolist()
    if not items:
        return []
    texts = repr(items)[1:-1].split(", ")
    for i in np.flatnonzero((column == np.trunc(column)) & (np.abs(column) < 1e16)).tolist():
        texts[i] = str(int(items[i]))
    return texts


def _columns(samples: np.ndarray, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """One port's samples as the format's two field columns."""
    if fmt == "RI":
        return samples.real, samples.imag
    with np.errstate(over="ignore"):  # an overflowing magnitude is refused as non-finite
        magnitude = np.abs(samples)
        values = magnitude if fmt == "MA" else magnitude_db(samples)
    return values, np.where(magnitude == 0, 0.0, np.angle(samples, deg=True))


def _table(trace: SParameterTrace, fmt: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """The file's distinct numeric columns, and the table column each file column shows.

    A two-port s12 with the very bytes of s21 (every sweep's; compared as
    bytes, as a -0.0 or a NaN tells apart what `==` does not) gets no
    columns of its own: the file shows s21's two in its place.
    """
    ports = [trace.s11]
    shown = (0, 1, 2)
    if trace.s21 is not None:
        s12 = trace.s12 if trace.s12 is not None else trace.s21
        if s12.tobytes() == trace.s21.tobytes():
            ports += [trace.s21, trace.s22]
            shown = (0, 1, 2, 3, 4, 3, 4, 5, 6)
        else:
            ports += [trace.s21, s12, trace.s22]
            shown = tuple(range(9))
    columns = [trace.frequencies] + [c for samples in ports for c in _columns(samples, fmt)]
    return np.column_stack(columns), shown


def _header(trace: SParameterTrace, fmt: str) -> list[str]:
    """The lines above the data: a port-2 reference comment where it differs, the option line."""
    z01, z02 = trace.reference_impedances
    comment = [f"! {PORT2_REF_COMMENT} {format_bare(z02)}"] if z02 != z01 else []
    return comment + [f"# Hz S {fmt} R {format_bare(z01)}"]


def write_touchstone(trace: SParameterTrace, fmt: str = "RI") -> str:
    """Render a trace as a version-1 file (frequencies in Hz).

    Two-port data is written whenever the trace carries s21 and s22;
    a missing s12 falls back to s21 (all networks this package builds
    are reciprocal).
    """
    if fmt not in VALUE_FORMATS:
        raise TouchstoneError(f"unknown format {fmt!r}; expected one of {VALUE_FORMATS}")
    lines = _header(trace, fmt)
    table, shown = _table(trace, fmt)
    distinct = table.shape[1]
    for k in range(0, len(table), _WRITE_ROWS):
        # the block's values in row order, so a non-finite one is met where a row loop meets it
        fields = format_bare_column(table[k : k + _WRITE_ROWS].ravel())
        lines.extend(map(" ".join, zip(*[fields[j::distinct] for j in shown])))
    return "\n".join(lines) + "\n"


def _read_back(trace: SParameterTrace, fmt: str) -> SParameterTrace | None:
    """The trace `read_touchstone` returns for `write_touchstone(trace, fmt)`, without the text.

    The reader's own `_sort_lines` and `_trace` take `_header`'s lines and the
    writer's table, -0.0 made +0.0 as the written ``0`` reads back; every other
    value is written as a decimal that parses back to it. None where that read
    raises: no rows, or a value the conversion overflows (a near-maximal DB entry).
    """
    table, shown = _table(trace, fmt)
    if not len(table):
        return None
    options, port2_ref, _ = _sort_lines(_header(trace, fmt), [], [])
    try:
        return _trace(table[:, shown] + 0.0, range(len(table)), options, port2_ref)
    except MalformedRow:
        return None


def write_trace_csv(trace: SParameterTrace) -> str:
    """CSV with 9 significant digits: freq_hz, s11_re, s11_im, s11_db; refuses non-finite values."""
    with np.errstate(over="ignore"):  # an overflowing dB value is refused as non-finite
        db = trace.s11_db()
    table = np.column_stack((trace.frequencies, trace.s11.real, trace.s11.imag, db))
    values = table.ravel()  # row order, so the first non-finite value is the one a row loop meets
    check_finite(values)
    return CSV_HEADER + "\n" + "%.9g,%.9g,%.9g,%.9g\n" * len(table) % tuple(values.tolist())
