"""Command-line front end tying extraction, simulation, analysis and fitting
into reproducible batch runs.

Exit codes: 0 success, 2 input or parse error, 3 numerical failure,
4 no band found (``bandwidth`` with an empty report). Every run prints
the tool version and a SHA-256 digest of each input file to stderr so
results can be traced back to their exact inputs. Output files are
written atomically (temp file, then rename). The argument parser is
built once per process, on the first `main` call, and reused by every
later call; argparse keeps no parsed values in it. Within one process, a
Touchstone input with the same bytes as one of the last two read or
written is not parsed (its digest is still printed); traces are
read-only. `simulate` holds, under the digest of the text it writes, the
trace that reading its file back gives, built from the writer's numbers
without the text, so a `bandwidth`, `compare` or `fit` on that file
parses nothing.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import tempfile

from . import __version__, analysis, elements, fitting, geometry, netlist, sinum, touchstone
from .errors import InputError, NumericalError, RfLadderError, domain, require
from .network import SweepGrid, sweep

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3
EXIT_NO_BAND = 4


def _read(path: str) -> tuple[str, str]:
    """The file's text, a leading byte-order mark dropped, and the logged digest of its bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        text = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(data).hexdigest()
    print(f"input {path} sha256={digest}", file=sys.stderr)
    return text, digest


# Traces by the digest of their file's bytes, the most recently used last: those
# parsed, and those `simulate` wrote. Two cover a batch of `compare` runs: the
# current design's file and the shared reference.
_TRACES: dict[str, touchstone.SParameterTrace] = {}


def _hold(digest: str, trace: touchstone.SParameterTrace) -> None:
    """Hold the trace of the bytes with this digest as the most recently used."""
    _TRACES.pop(digest, None)
    _TRACES[digest] = trace
    if len(_TRACES) > 2:
        del _TRACES[next(iter(_TRACES))]


def _read_trace(path: str) -> touchstone.SParameterTrace:
    """The Touchstone file's trace, parsed only if its bytes differ from the last two held."""
    text, digest = _read(path)
    trace = _TRACES.get(digest)
    if trace is None:
        trace = touchstone.read_touchstone(text)
    _hold(digest, trace)
    return trace


def _write_touchstone(path: str, trace: touchstone.SParameterTrace, fmt: str) -> None:
    """Write the trace's Touchstone file and hold the trace that reading the file gives."""
    text = touchstone.write_touchstone(trace, fmt)
    _write_output(path, text)
    held = touchstone._read_back(trace, fmt)
    if held is not None:  # else a read parses the file and raises as it would have
        _hold(hashlib.sha256(text.encode()).hexdigest(), held)


def _write_output(path: str, text: str) -> None:
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), prefix=".rfladder-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, 0o666 & ~umask)  # mkstemp made it 0600; use open()'s mode
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise InputError(f"cannot write {path}: {exc}") from None
        raise


def _number(text: str) -> float:
    """Finite number option value; argparse turns the error into exit 2."""
    try:
        return sinum.parse_scaled(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _parse_ports(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"wants 'in,out', got {text!r}")
    return _number(parts[0]), _number(parts[1])


def _cmd_extract(args) -> int:
    if args.geometry:
        doc = geometry.parse_geometry_file(_read(args.geometry)[0])
        substrate = doc.geometry.substrate
        cavities = list(doc.cavities)
    else:
        substrate = geometry.canonical_substrate()
        cavities = geometry.canonical_cavities()
    rows = elements.extract_all(cavities, substrate, args.frequency)
    _write_output(args.out, elements.elements_to_csv(cavities, rows))
    return EXIT_OK


def _cmd_microstrip(args) -> int:
    line = elements.microstrip(args.width, args.height, args.er)
    sys.stdout.write(sinum.key_value_text([
        ("eps_eff", line.effective_permittivity), ("z0_ohm", line.characteristic_impedance),
        ("width_to_height", line.width_to_height), ("branch", line.branch),
    ]))
    return EXIT_OK


def _cmd_build(args) -> int:
    rows = elements.elements_from_csv(_read(args.elements)[0])
    feed = None
    feed_rows = [row for row in rows if row.elements.inductance is None]
    if feed_rows:
        line = elements.microstrip(feed_rows[0].width, args.height, args.er)
        feed = netlist.FeedLine(
            line.characteristic_impedance,
            line.effective_permittivity,
            args.feed_len if args.feed_len is not None else feed_rows[0].length,
        )
    ladder = netlist.from_elements([row.elements for row in rows], feed, args.ports)
    _write_output(args.out, netlist.serialize(ladder))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    ladder = netlist.parse(_read(args.netlist)[0])
    grid = SweepGrid(args.fstart, args.fstop, args.points)
    trace = sweep(ladder, grid)
    if args.out.endswith(".s1p"):
        trace = touchstone.SParameterTrace(
            trace.frequencies, trace.s11, reference_impedances=trace.reference_impedances
        )
    _write_touchstone(args.out, trace, args.format)
    if args.csv:
        _write_output(args.csv, touchstone.write_trace_csv(trace))
    return EXIT_OK


def _cmd_bandwidth(args) -> int:
    trace = _read_trace(args.input)
    report = analysis.band_report(trace, args.threshold)
    sys.stdout.write(analysis.band_report_text(report))
    if args.csv:
        _write_output(args.csv, analysis.bands_csv(report))
    return EXIT_OK if report.bands else EXIT_NO_BAND


def _cmd_compare(args) -> int:
    trace_a = _read_trace(args.a)
    trace_b = _read_trace(args.b)
    report = analysis.compare_traces(trace_a, trace_b, args.threshold)
    sys.stdout.write(analysis.similarity_text(report))
    return EXIT_OK


def _parse_vary(text: str) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in text.split(","):
        name, sep, param = item.strip().partition(".")
        if not sep or not name or not param:
            raise InputError(f"--vary wants 'section.param[,...]', got {item!r}")
        pairs.append((name, param))
    return tuple(pairs)


def _cmd_fit(args) -> int:
    ladder = netlist.parse(_read(args.netlist)[0])
    target = _read_trace(args.target)
    free = _parse_vary(args.vary)
    require("--bounds-factor", args.bounds_factor, InputError)
    bounds = []
    for sname, pname in free:
        value = ladder.section(sname).params.get(pname)
        if value is None:
            raise InputError(f"section {sname!r} has no parameter {pname!r}")
        low = max(value / args.bounds_factor, domain(pname)[0])
        bounds.append((low, value * args.bounds_factor))
    if (args.fstart is None) != (args.fstop is None):
        raise InputError("--fstart and --fstop must be given together")
    problem = fitting.FitProblem(
        netlist=ladder,
        free_parameters=free,
        bounds=tuple(bounds),
        target=target,
        grid=None if args.fstart is None else SweepGrid(args.fstart, args.fstop, args.points),
        max_iterations=args.max_iter,
        tolerance=args.tol,
        seed=args.seed,
        restarts=args.restarts,
    )
    result = fitting.fit(problem)
    sys.stdout.write(fitting.fit_result_text(result))
    _write_output(args.out, netlist.serialize(result.netlist))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfladder",
        description="Ladder-circuit modeling of patch antennas: extract elements, "
        "simulate reflection, analyze bands, fit parameters.",
    )
    parser.add_argument("--version", action="version", version=f"rfladder {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute R/L/C per cavity and write the elements CSV")
    p.add_argument("--geometry", help="geometry file (defaults to the built-in reference antenna)")
    p.add_argument("--frequency", type=_number, default=elements.DEFAULT_EVALUATION_FREQUENCY,
                   help="resistance evaluation frequency in Hz (default %(default)s)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("microstrip", help="print eps_eff, Z0 and the formula branch for a strip")
    p.add_argument("--width", type=_number, required=True, help="strip width in meters")
    p.add_argument("--height", type=_number, required=True, help="substrate height in meters")
    p.add_argument("--er", type=_number, required=True, help="substrate relative permittivity")
    p.set_defaults(func=_cmd_microstrip)

    p = sub.add_parser("build", help="turn an elements CSV into the default ladder netlist")
    p.add_argument("--elements", required=True, help="elements CSV from 'extract'")
    p.add_argument("--ports", type=_parse_ports,
                   default=",".join(map(sinum.format_bare, netlist.DEFAULT_PORTS)),
                   help="in,out port impedances (default %(default)s)")
    p.add_argument("--er", type=_number, default=geometry.CANONICAL_RELATIVE_PERMITTIVITY,
                   help="substrate permittivity for the feed line (default %(default)s)")
    p.add_argument("--height", type=_number, default=geometry.CANONICAL_SUBSTRATE_THICKNESS,
                   help="substrate height in meters for the feed line (default %(default)s)")
    p.add_argument("--feed-len", type=_number, default=None,
                   help="feed line length in meters (default: the feed cavity length)")
    p.add_argument("--out", required=True, help="output netlist path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("simulate", help="sweep a netlist and write Touchstone (and CSV) output")
    p.add_argument("--netlist", required=True)
    p.add_argument("--fstart", type=_number, default=0.1e9, help="Hz (default %(default)s)")
    p.add_argument("--fstop", type=_number, default=6e9, help="Hz (default %(default)s)")
    p.add_argument("--points", type=int, default=1201, help="default %(default)s")
    p.add_argument("--out", required=True, help=".s1p writes one-port data, anything else two-port")
    p.add_argument("--csv", help="also write the trace CSV here")
    p.add_argument("--format", default="RI", choices=touchstone.VALUE_FORMATS)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bandwidth", help="report bands below a reflection threshold")
    p.add_argument("--input", required=True, help="Touchstone file")
    p.add_argument("--threshold", type=_number, default=-10.0,
                   help="band threshold in dB (default %(default)s)")
    p.add_argument("--csv", help="also write one band per row here")
    p.set_defaults(func=_cmd_bandwidth)

    p = sub.add_parser("compare", help="similarity report between two traces")
    p.add_argument("--a", required=True, help="first Touchstone file (defines the grid)")
    p.add_argument("--b", required=True, help="second Touchstone file")
    p.add_argument("--threshold", type=_number, default=-10.0,
                   help="agreement threshold in dB (default %(default)s)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("fit", help="adjust netlist values until the sweep matches a target trace")
    p.add_argument("--netlist", required=True)
    p.add_argument("--target", required=True, help="target Touchstone file")
    p.add_argument("--vary", required=True, help="comma list of section.param to free")
    p.add_argument("--max-iter", type=int, default=500, help="default %(default)s")
    p.add_argument("--tol", type=_number, default=1e-10,
                   help="stop once a step cuts the cost by less than this fraction"
                   " or moves no log-value further (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="seed for restarts (default %(default)s)")
    p.add_argument("--restarts", type=int, default=0,
                   help="extra seeded starts inside the bounds (default %(default)s)")
    p.add_argument("--bounds-factor", type=_number, default=10.0,
                   help="bounds are value/F .. value*F, a low one raised to its parameter's"
                   " least value in errors.DOMAINS (default %(default)s)")
    p.add_argument("--fstart", type=_number, help="Hz (default: the target's own samples)")
    p.add_argument("--fstop", type=_number, help="Hz (default: the target's own samples)")
    p.add_argument("--points", type=int, default=201,
                   help="fit grid points when --fstart/--fstop given (default %(default)s)")
    p.add_argument("--out", required=True, help="fitted netlist path")
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    print(f"rfladder {__version__}", file=sys.stderr)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except RfLadderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
