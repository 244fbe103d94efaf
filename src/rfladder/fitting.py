"""Bounded least-squares adjustment of netlist parameters.

Both optimizers work on the logs of the free parameters: R/L/C values
span decades and must stay positive, and the log transform gives both
properties for free. Residuals live in dB because that is how
reflection requirements are stated. Every candidate vector is clamped
into its bounds before evaluation, so a search never leaves the
feasible box.

A trace target is fitted by Levenberg-Marquardt (Levenberg 1944,
Marquardt 1963) on the dB residuals, with a forward-difference
Jacobian. A mask target keeps Nelder-Mead (1965): its cost has kinks
where the ceiling is met, which a Jacobian does not model.

A problem is compiled once per fit: the angular frequencies, where each
free parameter enters its section, and the target's dB on the fit grid
(or each mask interval's selection) are fixed up front, and one
objective call scores a batch of parameter sets in one vectorized
sweep. A Levenberg-Marquardt iteration is one such call: the trial point
and its n difference probes. The restarts run only when the first run
ended above the float floor, the cost at which the residuals are
rounding. Searches run in lockstep, every search's pending points scored
in one call per step: the 1 + `restarts` Nelder-Mead searches, and the
Levenberg-Marquardt restarts, where the first to reach the floor ends
the sequence. Each search evaluates exactly the points it would evaluate
alone, so results, and the errors raised, are identical to running the
searches one after another, each Levenberg-Marquardt restart only while
every earlier run ended above the floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import sinum
from .analysis import _resample
from .errors import InputError, RfLadderError
from .netlist import Netlist, NetlistError, NonPositiveParameter, Section, in_domain
from .network import SParameterTrace, SweepGrid, _batch_s11, magnitude_db, sweep


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


def _trace_residual(trace: SParameterTrace, f: np.ndarray):
    """Map `(K, F)` s11 dB on grid `f` to the `(K, M)` dB residuals against `trace`.

    Returns the map and the target's dB on the M grid points it keeps.
    """
    keep, target_db = _resample(f, trace)

    def residual(db):
        return (db if keep is None else np.compress(keep, db, axis=-1)) - target_db

    return residual, target_db


def _mean_square(residuals):
    return np.mean(residuals * residuals, axis=-1)


def _scorer(target, f: np.ndarray):
    """Map `(K, F)` s11 dB on grid `f` to the K costs `cost` defines.

    Selections use `np.compress`, which keeps each row contiguous, so a
    row sums in the same pairwise order as a single trace does and every
    cost is bit-identical whatever K is.
    """
    if isinstance(target, Mask):
        windows = [((f >= lo) & (f <= hi), ceiling) for lo, hi, ceiling in target.intervals]
        count = sum(int(np.sum(sel)) for sel, _ in windows)

        def score(db):
            acc = np.zeros(len(db))
            for sel, ceiling in windows:  # summed in interval order
                violation = np.maximum(0.0, np.compress(sel, db, axis=-1) - ceiling)
                acc += np.sum(violation * violation, axis=-1)
            return acc / count if count else acc

        return score
    residual, _ = _trace_residual(target, f)
    return lambda db: _mean_square(residual(db))


def cost(netlist: Netlist, target, grid: SweepGrid) -> float:
    """Mean squared dB deviation from a trace, or mean squared mask violation."""
    trace = sweep(netlist, grid)
    return float(_scorer(target, trace.frequencies)(trace.s11_db()[None])[0])


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
        for (sname, pname), (lo, _) in zip(self.free_parameters, self.bounds):
            if not in_domain(pname, lo):
                raise InvalidBounds(
                    f"low bound {lo} of {sname}.{pname} is outside the parameter's domain"
                    " (eps_eff >= 1, len >= 0, others > 0)"
                )


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    netlist: Netlist
    # why the best search stopped: "tolerance", "step" or "damping" (Levenberg-Marquardt),
    # "tolerance" or "collapsed" (Nelder-Mead), all converged; "max_iterations" or
    # "no_search" (max_iterations is 0), not converged
    stop_reason: str


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
_FD_STEP = 2.0**-26  # forward-difference step in log space (~1.5e-8 in value)
_DAMPING = 1e-3  # LM's first damping, relative to the largest diagonal entry of J^T J
_MAX_DAMPING = 1e16  # damping, so relative, past which no step is left to try
_FLOOR_ULPS = 64.0  # residual, in epsilons of 1 + |target dB|, that counts as an exact fit
# stop reasons of a search that ended by its own rule, not by the iteration limit
_CONVERGED = ("tolerance", "collapsed", "step", "damping")
_BATCH_ELEMENTS = 1 << 16  # rows x frequencies per sweep, bounding memory for many restarts


class _Objective:
    """A problem's cost of K rows of log-parameters, compiled once.

    Holds the angular frequencies, where each free column enters its
    section, and the target scorer. Calling it checks every free column
    against its parameter's domain, as building each candidate's
    sections would, and scores all rows in one sweep. For a trace target
    `residuals` returns the dB residual rows instead, and `floor` is the
    cost below which rounding, not the parameters, sets the residuals.
    """

    def __init__(self, problem: FitProblem, start_values: np.ndarray):
        net = problem.netlist
        self._ports = (net.input_port_impedance, net.output_port_impedance)
        f = problem.grid.frequencies()
        self._w = 2.0 * np.pi * f
        column = {slot: j for j, slot in enumerate(problem.free_parameters)}
        self._sections = []
        for s in net.sections:
            slots = [(p, column[s.name, p]) for p in s.params if (s.name, p) in column]
            self._sections.append((s.topology, s.params, slots))
        # in section and parameter order, the order Section validation meets them
        self._checks = [(p, j) for _, _, slots in self._sections for p, j in slots]
        # sweep the start before resampling the target, so errors come in cost()'s order
        start_db = self.s11_db(start_values[None])
        if isinstance(problem.target, Mask):
            self._score = _scorer(problem.target, f)
        else:
            self._residual, target_db = _trace_residual(problem.target, f)
            self._score = lambda db: _mean_square(self._residual(db))
            eps = np.finfo(float).eps
            self.floor = float(_mean_square(_FLOOR_ULPS * eps * (1.0 + np.abs(target_db))))
        self.initial_cost = float(self._score(start_db)[0])

    def s11_db(self, values: np.ndarray) -> np.ndarray:
        """s11 dB, shape `(K, F)`, of K rows of free-parameter values."""
        lows, highs = values.min(axis=0).tolist(), values.max(axis=0).tolist()
        for pname, j in self._checks:
            if not (in_domain(pname, lows[j]) and in_domain(pname, highs[j])):
                raise NonPositiveParameter(pname)
        sections = []
        for topology, params, slots in self._sections:
            if slots:
                params = {**params, **{p: values[:, j, None] for p, j in slots}}
            sections.append((topology, params))
        return magnitude_db(_batch_s11(sections, self._w, *self._ports))

    def _rows(self, x: np.ndarray, of) -> np.ndarray:
        rows = max(1, _BATCH_ELEMENTS // len(self._w))
        return np.concatenate(
            [of(self.s11_db(np.exp(x[k : k + rows]))) for k in range(0, len(x), rows)]
        )

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._rows(x, self._score)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """dB residual rows, shape `(K, M)`, of K rows of log-parameters (trace targets)."""
        return self._rows(x, self._residual)


def _nm_steps(x0, lo, hi, max_iterations, tolerance):
    """Standard reflect/expand/contract/shrink loop on clamped vectors, as a coroutine.

    Yields lists of points and receives a list of their costs. The
    initial simplex and a shrink are one yield each. Returns (best_x,
    best_f, iterations, stop_reason): "tolerance" when the simplex cost
    spread fell below `tolerance` relative to the best cost,
    "collapsed" when the simplex collapsed geometrically, else
    "max_iterations".
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
    fs = yield xs

    iterations = 0
    reason = "max_iterations"
    while iterations < max_iterations:
        order = np.argsort(fs, kind="stable")
        xs = [xs[k] for k in order]
        fs = [fs[k] for k in order]
        if fs[-1] - fs[0] <= tolerance * max(abs(fs[0]), tolerance):
            reason = "tolerance"
            break
        if np.max(np.abs(np.array(xs[1:]) - xs[0])) <= _COLLAPSE:
            reason = "collapsed"
            break
        iterations += 1

        centroid = np.mean(xs[:-1], axis=0)
        reflected = clamp(centroid + (centroid - xs[-1]))
        (f_r,) = yield [reflected]
        if f_r < fs[0]:
            expanded = clamp(centroid + 2.0 * (reflected - centroid))
            (f_e,) = yield [expanded]
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
        (f_c,) = yield [contracted]
        if f_c < min(f_r, fs[-1]):
            xs[-1], fs[-1] = contracted, f_c
            continue
        xs[1:] = [clamp(xs[0] + 0.5 * (x - xs[0])) for x in xs[1:]]
        fs[1:] = yield xs[1:]

    best = int(np.argmin(fs))
    return xs[best], fs[best], iterations, reason


def _lm_steps(x0, lo, hi, max_iterations, tolerance, floor):
    """Levenberg-Marquardt on clamped vectors, as a coroutine.

    Every iteration yields one trial point followed by its n
    forward-difference probes and receives their residual rows, so a
    trial and the Jacobian at it cost one batch. A parameter on a bound
    that the gradient pushes outward is held there for the step. The
    damping follows Nielsen's rule: a step that lowers the cost is taken
    and scales the damping by max(1/3, 1 - (2*gain - 1)**3), where gain
    is the actual over the predicted decrease; a refused step multiplies
    it by a factor that doubles with each refusal in a row.

    Returns (best_x, best_f, iterations, stop_reason): "tolerance" when
    the cost is at `floor` or a taken step lowered it by no more than
    `tolerance` relative, "step" when a taken step moved no
    log-parameter by more than `tolerance` or no parameter can move
    downhill, "damping" when the damping passed its limit without a
    lower cost, else "max_iterations".
    """
    n = len(x0)

    def probed(x):
        signs = np.where(x + _FD_STEP <= hi, 1.0, -1.0)
        probes = np.clip(x + np.diag(signs * _FD_STEP), lo, hi)
        rows = np.asarray((yield [x, *probes]))
        steps = np.diagonal(probes) - x
        jac = np.divide(rows[1:] - rows[0], steps[:, None], out=np.zeros((n, rows.shape[1])),
                        where=steps[:, None] != 0)  # transposed: one row per parameter
        return float(_mean_square(rows[:1])[0]), rows[0], jac

    x = np.clip(np.array(x0, dtype=float), lo, hi)
    f, r, jac = yield from probed(x)
    damping = _DAMPING * np.max(np.sum(jac * jac, axis=1))
    growth = 2.0
    iterations = 0
    reason = "max_iterations"
    while iterations < max_iterations and f > floor:
        gradient = jac @ r
        normal = jac @ jac.T
        # a parameter on a bound that the gradient pushes outward stays there
        held = ((x <= lo) & (gradient > 0)) | ((x >= hi) & (gradient < 0))
        downhill = np.where(held, 0.0, -gradient)
        if not downhill.any():
            reason = "step"  # no parameter left that can lower the cost
            break
        iterations += 1
        system = normal + damping * np.eye(n)
        if held.any():
            system[held] = system[:, held] = 0.0
            system[held, held] = 1.0
        try:
            trial = np.clip(x + np.linalg.solve(system, downhill), lo, hi)
        except np.linalg.LinAlgError:  # singular to working precision: refuse, damp harder
            trial = x
        step = trial - x
        predicted = -step @ (2.0 * gradient + normal @ step) / len(r)
        f_t, r_t, jac_t = yield from probed(trial)
        if f_t < f:
            decrease = f - f_t
            gain = decrease / predicted if decrease < predicted else 1.0
            factor = max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            damping = max(damping * factor, np.finfo(float).tiny)
            growth = 2.0
            x, f, r, jac = trial, f_t, r_t, jac_t
            if decrease <= tolerance * (f + decrease):
                reason = "tolerance"
                break
            if np.max(np.abs(step)) <= tolerance:
                reason = "step"
                break
        else:
            damping *= growth
            growth *= 2.0
            if damping > _MAX_DAMPING * np.max(np.diagonal(normal)):
                reason = "damping"
                break
    if f <= floor:
        reason = "tolerance"
    return x, f, iterations, reason


def _lockstep(costs, runs, last=lambda result: False):
    """Drive search coroutines together and return each one's result, in order.

    Every round scores the pending points of all live runs in one
    `costs` call and sends each run its rows of the result: costs for
    `_nm_steps`, residual rows for `_lm_steps`. When that call raises,
    the points are scored one at a time: the first that raises stops its
    run and every later run, and its error is raised once the earlier
    runs finish, as it would be if the runs went one after another. A
    run whose result satisfies `last` ends the sequence: the runs after
    it are dropped with their results and errors, as if never started.
    """
    results = [None] * len(runs)
    pending = {k: next(run) for k, run in enumerate(runs)}
    error = None
    while pending:
        batch = np.array([x for points in pending.values() for x in points])
        try:
            values = list(costs(batch))
        except RfLadderError:
            values = []
            owners = [k for k, points in pending.items() for _ in points]
            for k, x in zip(owners, batch):
                try:
                    values.append(costs(x[None])[0])
                except RfLadderError as exc:
                    error = exc
                    pending = {j: points for j, points in pending.items() if j < k}
                    break
        start = 0
        for k, points in list(pending.items()):
            rows = values[start : start + len(points)]
            start += len(points)
            if k not in pending:  # dropped this round by an earlier run's `last`
                continue
            try:
                pending[k] = runs[k].send(rows)
            except StopIteration as stop:
                results[k] = stop.value
                del pending[k]
                if last(stop.value):
                    pending = {j: points for j, points in pending.items() if j < k}
                    del results[k + 1 :]
                    error = None  # raised by a later run, if any
    if error is not None:
        raise error
    return results


def _nelder_mead(func, x0, lo, hi, max_iterations, tolerance):
    """One search scoring one point per `func` call.

    Returns (best_x, best_f, iterations, converged).
    """
    x, f, iterations, reason = _lockstep(
        lambda batch: np.array([func(x) for x in batch]),
        [_nm_steps(x0, lo, hi, max_iterations, tolerance)],
    )[0]
    return x, f, iterations, reason in _CONVERGED


def fit(problem: FitProblem) -> FitResult:
    """Run the bounded search; deterministic for a given problem and seed."""
    free = problem.free_parameters
    start_netlist = problem.netlist
    lo_values = np.array([b[0] for b in problem.bounds])
    hi_values = np.array([b[1] for b in problem.bounds])
    start_values = np.clip(
        [start_netlist.section(s).params[p] for s, p in free], lo_values, hi_values
    )
    objective = _Objective(problem, start_values)
    initial_cost = objective.initial_cost

    def result_for(values, final, iterations, reason):
        return FitResult(
            parameters={f"{s}.{p}": float(v) for (s, p), v in zip(free, values)},
            initial_cost=initial_cost,
            final_cost=final,
            iterations=iterations,
            converged=reason in _CONVERGED,
            netlist=_with_values(start_netlist, free, values),
            stop_reason=reason,
        )

    if problem.max_iterations == 0:
        return result_for(start_values, initial_cost, 0, "no_search")

    lo = np.log(lo_values)
    hi = np.log(hi_values)
    x0 = np.clip(np.log(start_values), lo, hi)
    rng = np.random.default_rng(problem.seed)
    starts = [x0] + [rng.uniform(lo, hi) for _ in range(problem.restarts)]
    settings = (problem.max_iterations, problem.tolerance)
    if isinstance(problem.target, Mask):
        # a mask's cost has kinks where the ceiling is met: Nelder-Mead, all runs in lockstep
        results = _lockstep(objective, [_nm_steps(x, lo, hi, *settings) for x in starts])
    else:
        # restarts run only when run 0 ended above the float floor, then in lockstep;
        # the first of them to reach the floor ends the sequence
        floor = objective.floor
        runs = [_lm_steps(x, lo, hi, *settings, floor) for x in starts]
        results = _lockstep(objective.residuals, runs[:1])
        if results[0][1] > floor:
            results += _lockstep(objective.residuals, runs[1:], last=lambda run: run[1] <= floor)
    total_iterations = sum(iterations for _, _, iterations, _ in results)
    best_x, best_f, _, best_reason = results[0]
    for x, f, _, reason in results[1:]:
        if f < best_f:
            best_x, best_f, best_reason = x, f, reason

    if best_f < initial_cost:
        return result_for(np.exp(best_x), float(best_f), total_iterations, best_reason)
    # the search never strictly improved on the starting point
    return result_for(start_values, initial_cost, total_iterations, best_reason)


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
