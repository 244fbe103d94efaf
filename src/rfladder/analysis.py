"""Trace analysis: operating bands, mismatch efficiency, VSWR, similarity.

A band is a maximal frequency interval where the reflection magnitude
stays at or below a dB threshold; a sample exactly at the threshold is
in band. Edges are interpolated linearly in (frequency, dB) between the
bracketing samples, because thresholds are specified in dB, and always
lie between those two samples. Each report reads one dB array per trace,
and refuses a trace whose s11 dB is not finite at some sample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import sinum
from .elements import NonPositiveElement
from .errors import InputError, require
from .network import SParameterTrace, magnitude_from_db, vswr


class EmptyTrace(InputError):
    pass


class BandOutsideTrace(InputError):
    pass


class NoOverlap(InputError):
    pass


class ReferenceMismatch(InputError):
    pass


@dataclass(frozen=True)
class BandReport:
    """Bands below threshold plus figures of merit over the widest one."""

    bands: tuple[tuple[float, float], ...]
    threshold_db: float
    widest_band: int | None
    mismatch_efficiency_percent: float | None
    max_vswr_in_band: float | None


@dataclass(frozen=True)
class SimilarityReport:
    """How closely two reflection traces agree around a dB threshold."""

    band_agreement_percent: float
    mean_abs_db_deviation: float
    common_grid_points: int


def _db(trace: SParameterTrace) -> np.ndarray:
    """The trace's s11 dB, refused unless every sample is finite."""
    if len(trace) == 0:
        raise EmptyTrace("trace has no samples")
    db = trace.s11_db()
    if not math.isfinite(db.max()):  # no dB is below the floor, so this is NaN or +inf
        f = trace.frequencies[np.flatnonzero(~np.isfinite(db))[0]]
        raise InputError(f"s11 dB is not finite at {f} Hz")
    return db


def _bands(f: np.ndarray, db: np.ndarray, threshold_db: float) -> list[tuple[float, float]]:
    if not math.isfinite(threshold_db):
        raise InputError(f"threshold_db must be finite, got {threshold_db}")
    # each run of in-band samples starts and ends where the padded mask flips
    flips = np.flatnonzero(np.diff(np.concatenate(([False], db <= threshold_db, [False]))))
    first, last = flips[0::2], flips[1::2] - 1
    edges = []
    for inside, out in ((first, first - 1), (last, last + 1)):
        edge = f[inside]  # a run touching the grid edge keeps that sample
        k = (out >= 0) & (out < len(f))
        i, o = inside[k], out[k]
        x = f[o] + (threshold_db - db[o]) * (f[i] - f[o]) / (db[i] - db[o])
        # rounding can carry a crossing past a sample that sits at the threshold
        edge[k] = np.clip(x, f[np.minimum(i, o)], f[np.maximum(i, o)])
        edges.append(edge.tolist())
    return list(zip(*edges))


def find_bands(trace: SParameterTrace, threshold_db: float) -> list[tuple[float, float]]:
    """Maximal intervals with s11 dB <= threshold, edges interpolated."""
    return _bands(trace.frequencies, _db(trace), threshold_db)


def _interp(x: float, f: np.ndarray, db: np.ndarray) -> float:
    """np.interp(x, f, db), read from the two samples around x.

    np.interp copies a read-only `f` whole, as trace arrays are; its result
    depends only on the bracketing pair, so the slices give the same bits.
    """
    j = max(0, min(int(np.searchsorted(f, x, side="right")), len(f) - 1) - 1)
    return np.interp(x, f[j:j + 2], db[j:j + 2])


def _band_samples(f: np.ndarray, db: np.ndarray, band: tuple[float, float]):
    """In-band frequencies and dB values, with interpolated edge points."""
    f_lo, f_hi = band
    if not f[0] <= f_lo <= f_hi <= f[-1]:  # a NaN edge fails it too
        raise BandOutsideTrace(f"band {band} outside trace span ({f[0]}, {f[-1]})")
    inner = (f > f_lo) & (f < f_hi)
    xs = np.concatenate(([f_lo], f[inner], [f_hi]))
    ys = np.concatenate(
        ([_interp(f_lo, f, db)], db[inner], [_interp(f_hi, f, db)])
    )
    return xs, ys


def _efficiency(xs: np.ndarray, ys: np.ndarray) -> float:
    power = 1.0 - magnitude_from_db(ys) ** 2
    if xs[-1] == xs[0]:
        return float(100.0 * power[0])
    return float(100.0 * np.trapezoid(power, xs) / (xs[-1] - xs[0]))


def mismatch_efficiency(trace: SParameterTrace, band: tuple[float, float]) -> float:
    """Band-averaged percentage of incident power not reflected.

    Trapezoidal average of 1 - |s11|^2 over the band, interpolating the
    trace (in dB) at the band edges.
    """
    return _efficiency(*_band_samples(trace.frequencies, _db(trace), band))


def resonant_frequency(inductance: float, capacitance: float) -> float:
    """Series-resonance frequency 1 / (2*pi*sqrt(L*C)), in hertz."""
    require("inductance", inductance, NonPositiveElement)
    require("capacitance", capacitance, NonPositiveElement)
    return 1.0 / (2.0 * math.pi * math.sqrt(inductance * capacitance))


def _resample(f: np.ndarray, b: SParameterTrace):
    """The points of grid `f` inside b's span, and b's dB resampled onto them.

    On an identical grid the selection is None and b's dB passes through
    without interpolating.
    """
    db_b = _db(b)
    if len(f) == len(b) and np.array_equal(f, b.frequencies):
        return None, db_b
    lo = max(f[0], b.frequencies[0])
    hi = min(f[-1], b.frequencies[-1])
    if lo > hi:
        raise NoOverlap("frequency spans do not overlap")
    keep = (f >= lo) & (f <= hi)
    if not np.any(keep):
        raise NoOverlap("no grid points of the first trace inside the overlap")
    return keep, np.interp(f[keep], b.frequencies, db_b)


def compare_traces(
    a: SParameterTrace, b: SParameterTrace, threshold_db: float
) -> SimilarityReport:
    """Agreement of two traces resampled (linearly in dB) onto a's grid.

    Agreement counts the grid points where both traces sit on the same
    side of the threshold; the deviation is the mean |dB difference|.
    The two must share their port-1 reference, or their dB would compare
    reflections against different resistances; port 2 is not compared, as
    a one-port trace has none.
    """
    if not math.isfinite(threshold_db):
        raise InputError(f"threshold_db must be finite, got {threshold_db}")
    za, zb = a.reference_impedances[0], b.reference_impedances[0]
    if za != zb:
        raise ReferenceMismatch(f"port-1 references differ: {za} ohm and {zb} ohm")
    f, db_a = a.frequencies, _db(a)
    keep, db_b = _resample(f, b)
    if keep is not None:  # a's grid points inside b's span
        f, db_a = f[keep], db_a[keep]
    same_side = (db_a <= threshold_db) == (db_b <= threshold_db)
    return SimilarityReport(
        band_agreement_percent=float(100.0 * np.mean(same_side)),
        mean_abs_db_deviation=float(np.mean(np.abs(db_a - db_b))),
        common_grid_points=int(len(f)),
    )


def band_report(trace: SParameterTrace, threshold_db: float) -> BandReport:
    """Bands plus efficiency and worst VSWR over the widest band."""
    f, db = trace.frequencies, _db(trace)
    bands = tuple(_bands(f, db, threshold_db))
    if not bands:
        return BandReport(bands, threshold_db, None, None, None)
    widest = max(range(len(bands)), key=lambda k: bands[k][1] - bands[k][0])
    xs, ys = _band_samples(f, db, bands[widest])
    worst = float(np.max(ys))
    max_vswr = vswr(magnitude_from_db(worst))
    return BandReport(bands, threshold_db, widest, _efficiency(xs, ys), max_vswr)


def band_report_text(report: BandReport) -> str:
    """Flat key=value rendering of a band report."""
    pairs = [("threshold_db", report.threshold_db), ("bands", len(report.bands))]
    for k, (lo, hi) in enumerate(report.bands):
        pairs += [(f"band{k}_low_hz", lo), (f"band{k}_high_hz", hi)]
    if report.widest_band is not None:
        pairs += [("widest_band", report.widest_band),
                  ("mismatch_efficiency_percent", report.mismatch_efficiency_percent),
                  ("max_vswr_in_band", report.max_vswr_in_band)]
    return sinum.key_value_text(pairs)


def bands_csv(report: BandReport) -> str:
    """One band per row: index, low edge, high edge."""
    lines = ["band,f_low_hz,f_high_hz"]
    for k, (lo, hi) in enumerate(report.bands):
        lines.append(f"{k},{sinum.format_bare(lo)},{sinum.format_bare(hi)}")
    return "\n".join(lines) + "\n"


def similarity_text(report: SimilarityReport) -> str:
    """Flat key=value rendering of a similarity report."""
    return sinum.key_value_text(asdict(report).items())
