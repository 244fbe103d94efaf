"""Trace analysis: operating bands, mismatch efficiency, VSWR, similarity.

A band is a maximal frequency interval where the reflection magnitude
stays at or below a dB threshold; a sample exactly at the threshold is
in band. Edges are interpolated linearly in (frequency, dB) between the
bracketing samples, because thresholds are specified in dB, and always
lie between those two samples. Each report reads one dB array per trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sinum
from .elements import NonPositiveElement
from .errors import InputError
from .network import SParameterTrace, vswr


class EmptyTrace(InputError):
    pass


class BandOutsideTrace(InputError):
    pass


class NoOverlap(InputError):
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
    if len(trace) == 0:
        raise EmptyTrace("trace has no samples")
    return trace.s11_db()


def _bands(f: np.ndarray, db: np.ndarray, threshold_db: float) -> list[tuple[float, float]]:
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


def _band_samples(f: np.ndarray, db: np.ndarray, band: tuple[float, float]):
    """In-band frequencies and dB values, with interpolated edge points."""
    f_lo, f_hi = band
    if f_lo > f_hi or f_lo < f[0] or f_hi > f[-1]:
        raise BandOutsideTrace(f"band {band} outside trace span ({f[0]}, {f[-1]})")
    inner = (f > f_lo) & (f < f_hi)
    xs = np.concatenate(([f_lo], f[inner], [f_hi]))
    ys = np.concatenate(
        ([np.interp(f_lo, f, db)], db[inner], [np.interp(f_hi, f, db)])
    )
    return xs, ys


def _efficiency(xs: np.ndarray, ys: np.ndarray) -> float:
    power = 1.0 - (10.0 ** (ys / 20.0)) ** 2
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
    if not inductance > 0:
        raise NonPositiveElement("inductance")
    if not capacitance > 0:
        raise NonPositiveElement("capacitance")
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


def _overlap(a: SParameterTrace, b: SParameterTrace):
    """a's grid points inside b's span, a's dB there, and b's dB resampled onto them."""
    f, db_a = a.frequencies, _db(a)
    keep, db_b = _resample(f, b)
    if keep is None:
        return f, db_a, db_b
    return f[keep], db_a[keep], db_b


def compare_traces(
    a: SParameterTrace, b: SParameterTrace, threshold_db: float
) -> SimilarityReport:
    """Agreement of two traces resampled (linearly in dB) onto a's grid.

    Agreement counts the grid points where both traces sit on the same
    side of the threshold; the deviation is the mean |dB difference|.
    """
    f, db_a, db_b = _overlap(a, b)
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
    max_vswr = vswr(10.0 ** (worst / 20.0))
    return BandReport(bands, threshold_db, widest, _efficiency(xs, ys), max_vswr)


def band_report_text(report: BandReport) -> str:
    """Flat key=value rendering of a band report."""
    lines = [
        f"threshold_db = {sinum.format_bare(report.threshold_db)}",
        f"bands = {len(report.bands)}",
    ]
    for k, (lo, hi) in enumerate(report.bands):
        lines.append(f"band{k}_low_hz = {sinum.format_bare(lo)}")
        lines.append(f"band{k}_high_hz = {sinum.format_bare(hi)}")
    if report.widest_band is not None:
        lines.append(f"widest_band = {report.widest_band}")
        lines.append(
            "mismatch_efficiency_percent = "
            f"{sinum.format_bare(report.mismatch_efficiency_percent)}"
        )
        lines.append(f"max_vswr_in_band = {sinum.format_bare(report.max_vswr_in_band)}")
    return "\n".join(lines) + "\n"


def bands_csv(report: BandReport) -> str:
    """One band per row: index, low edge, high edge."""
    lines = ["band,f_low_hz,f_high_hz"]
    for k, (lo, hi) in enumerate(report.bands):
        lines.append(f"{k},{sinum.format_bare(lo)},{sinum.format_bare(hi)}")
    return "\n".join(lines) + "\n"


def similarity_text(report: SimilarityReport) -> str:
    """Flat key=value rendering of a similarity report."""
    return (
        f"band_agreement_percent = {sinum.format_bare(report.band_agreement_percent)}\n"
        f"mean_abs_db_deviation = {sinum.format_bare(report.mean_abs_db_deviation)}\n"
        f"common_grid_points = {report.common_grid_points}\n"
    )
