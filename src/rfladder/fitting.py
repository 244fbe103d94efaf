"""Derivative-free least-squares adjustment of netlist parameters.

The optimizer is a bounded Nelder-Mead working on the logs of the free
parameters: R/L/C values span decades and must stay positive, and the
log transform gives both properties for free. Residuals live in dB
because that is how reflection requirements are stated. Every candidate
vector is clamped into its bounds before evaluation, so the search can
never leave the feasible box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sinum
from .analysis import _overlap
from .errors import InputError
from .netlist import Netlist, NetlistError, Section
from .network import SParameterTrace, SweepGrid, sweep


class InvalidBounds(InputError):
    pass


class NoFreeParameters(InputError):
    pass


class UnknownParameter(InputError):
    pass


@dataclass(frozen=True)
class Mask:
    """Ceiling specification: s11 dB must not exceed `ceiling_db` inside each interval."""

    intervals: tuple[tuple[float, float, float], ...]  # (f_low, f_high, ceiling_db)

    def __post_init__(self):
        prev_hi = None
        for lo, hi, _ in self.intervals:
            if not lo < hi:
                raise InvalidBounds(f"mask interval ({lo}, {hi}) is empty")
            if prev_hi is not None and lo <= prev_hi:
                raise InvalidBounds("mask intervals must be disjoint and sorted")
            prev_hi = hi


def cost(netlist: Netlist, target, grid: SweepGrid) -> float:
    """Mean squared dB deviation from a trace, or mean squared mask violation."""
    trace = sweep(netlist, grid)
    if isinstance(target, Mask):
        f = trace.frequencies
        db = trace.s11_db()
        acc = 0.0
        count = 0
        for lo, hi, ceiling in target.intervals:
            sel = (f >= lo) & (f <= hi)
            violation = np.maximum(0.0, db[sel] - ceiling)
            acc += float(np.sum(violation * violation))
            count += int(np.sum(sel))
        return acc / count if count else 0.0
    _, db, target_db = _overlap(trace, target)
    delta = db - target_db
    return float(np.mean(delta * delta))


@dataclass(frozen=True)
class FitProblem:
    """A netlist, which of its values may move, and what to match."""

    netlist: Netlist
    free_parameters: tuple[tuple[str, str], ...]  # (section name, parameter name)
    bounds: tuple[tuple[float, float], ...]
    target: SParameterTrace | Mask
    grid: SweepGrid
    max_iterations: int = 400
    tolerance: float = 1e-10
    seed: int = 0
    restarts: int = 0

    def __post_init__(self):
        if not self.free_parameters:
            raise NoFreeParameters("no free parameters to fit")
        if len(self.bounds) != len(self.free_parameters):
            raise InvalidBounds("need one (low, high) pair per free parameter")
        for lo, hi in self.bounds:
            if not 0 < lo < hi < math.inf:
                raise InvalidBounds(f"bounds ({lo}, {hi}) must satisfy 0 < low < high < inf")
        if min(self.max_iterations, self.restarts, self.seed) < 0:
            raise InputError("max_iterations, restarts and seed must not be negative")
        for sname, pname in self.free_parameters:
            try:
                section = self.netlist.section(sname)
            except NetlistError:
                raise UnknownParameter(f"no section named {sname!r}") from None
            if pname not in section.params:
                raise UnknownParameter(f"section {sname!r} has no parameter {pname!r}")


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    netlist: Netlist


def _with_values(netlist: Netlist, free, values) -> Netlist:
    updates: dict[str, dict[str, float]] = {}
    for (sname, pname), value in zip(free, values):
        updates.setdefault(sname, {})[pname] = float(value)
    sections = []
    for section in netlist.sections:
        if section.name in updates:
            params = dict(section.params)
            params.update(updates[section.name])
            sections.append(Section(section.name, section.topology, params))
        else:
            sections.append(section)
    return Netlist(netlist.input_port_impedance, netlist.output_port_impedance, tuple(sections))


_SIMPLEX_STEP = 0.15  # initial vertex offset in log space (~16 % in value)
_COLLAPSE = 1e-9  # log-space simplex diameter treated as fully converged


def _nelder_mead(func, x0, lo, hi, max_iterations, tolerance):
    """Standard reflect/expand/contract/shrink loop on clamped vectors.

    Returns (best_x, best_f, iterations, converged). Convergence means
    the simplex cost spread fell below `tolerance` relative to the best
    cost, or the simplex collapsed geometrically.
    """
    n = len(x0)

    def clamp(x):
        return np.clip(x, lo, hi)

    xs = [clamp(np.array(x0, dtype=float))]
    for k in range(n):
        vertex = xs[0].copy()
        if vertex[k] + _SIMPLEX_STEP <= hi[k]:
            vertex[k] += _SIMPLEX_STEP
        else:
            vertex[k] -= _SIMPLEX_STEP
        vertex = clamp(vertex)
        if vertex[k] == xs[0][k]:  # bounds narrower than the step
            vertex[k] = 0.5 * (lo[k] + hi[k])
        xs.append(vertex)
    fs = [func(x) for x in xs]

    iterations = 0
    converged = False
    while iterations < max_iterations:
        order = np.argsort(fs, kind="stable")
        xs = [xs[k] for k in order]
        fs = [fs[k] for k in order]
        spread = fs[-1] - fs[0]
        size = max(float(np.max(np.abs(x - xs[0]))) for x in xs[1:])
        if spread <= tolerance * max(abs(fs[0]), tolerance) or size <= _COLLAPSE:
            converged = True
            break
        iterations += 1

        centroid = np.mean(xs[:-1], axis=0)
        reflected = clamp(centroid + (centroid - xs[-1]))
        f_r = func(reflected)
        if f_r < fs[0]:
            expanded = clamp(centroid + 2.0 * (reflected - centroid))
            f_e = func(expanded)
            if f_e < f_r:
                xs[-1], fs[-1] = expanded, f_e
            else:
                xs[-1], fs[-1] = reflected, f_r
            continue
        if f_r < fs[-2]:
            xs[-1], fs[-1] = reflected, f_r
            continue
        if f_r < fs[-1]:
            contracted = clamp(centroid + 0.5 * (reflected - centroid))
        else:
            contracted = clamp(centroid + 0.5 * (xs[-1] - centroid))
        f_c = func(contracted)
        if f_c < min(f_r, fs[-1]):
            xs[-1], fs[-1] = contracted, f_c
            continue
        for k in range(1, len(xs)):
            xs[k] = clamp(xs[0] + 0.5 * (xs[k] - xs[0]))
            fs[k] = func(xs[k])

    best = int(np.argmin(fs))
    return xs[best], fs[best], iterations, converged


def fit(problem: FitProblem) -> FitResult:
    """Run the bounded search; deterministic for a given problem and seed."""
    free = problem.free_parameters
    start_netlist = problem.netlist
    lo_values = np.array([b[0] for b in problem.bounds])
    hi_values = np.array([b[1] for b in problem.bounds])
    start_values = np.clip(
        [start_netlist.section(s).params[p] for s, p in free], lo_values, hi_values
    )

    def result_for(values, initial, final, iterations, converged):
        return FitResult(
            parameters={f"{s}.{p}": float(v) for (s, p), v in zip(free, values)},
            initial_cost=initial,
            final_cost=final,
            iterations=iterations,
            converged=converged,
            netlist=_with_values(start_netlist, free, values),
        )

    initial_cost = cost(
        _with_values(start_netlist, free, start_values), problem.target, problem.grid
    )
    if problem.max_iterations == 0:
        return result_for(start_values, initial_cost, initial_cost, 0, False)

    def objective(x):
        return cost(_with_values(start_netlist, free, np.exp(x)), problem.target, problem.grid)

    lo = np.log(lo_values)
    hi = np.log(hi_values)
    x0 = np.clip(np.log(start_values), lo, hi)
    rng = np.random.default_rng(problem.seed)
    best_x, best_f, total_iterations, best_converged = None, math.inf, 0, False
    for run in range(1 + problem.restarts):
        start = x0 if run == 0 else rng.uniform(lo, hi)
        x, f, iterations, converged = _nelder_mead(
            objective, start, lo, hi, problem.max_iterations, problem.tolerance
        )
        total_iterations += iterations
        if f < best_f or best_x is None:
            best_x, best_f, best_converged = x, f, converged

    if best_f < initial_cost:
        return result_for(
            np.exp(best_x), initial_cost, best_f, total_iterations, best_converged
        )
    # the search never strictly improved on the starting point
    return result_for(
        start_values, initial_cost, initial_cost, total_iterations, best_converged
    )


def fit_result_text(result: FitResult) -> str:
    """Flat key=value rendering of a fit result."""
    lines = [
        f"initial_cost = {sinum.format_bare(result.initial_cost)}",
        f"final_cost = {sinum.format_bare(result.final_cost)}",
        f"iterations = {result.iterations}",
        f"converged = {str(result.converged).lower()}",
    ]
    for key, value in result.parameters.items():
        lines.append(f"{key} = {sinum.format_bare(value)}")
    return "\n".join(lines) + "\n"
