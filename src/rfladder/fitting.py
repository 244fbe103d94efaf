"""Bounded least-squares adjustment of netlist parameters.

The search works on the logs of the free parameters: R/L/C values span
decades and must stay positive, and the log transform gives both
properties for free. Residuals live in dB because that is how
reflection requirements are stated. Every candidate vector is clamped
into its bounds before evaluation, so a search never leaves the
feasible box.

Every target is one residual map: a trace gives `db - target_db` on
the grid points it overlaps, a mask gives the hinge
`max(0, db - ceiling)` at each point an interval covers, and the cost is
the mean square of those residuals. The squared hinge has a continuous
first derivative, zero where the ceiling is met, so one optimizer serves
both: Levenberg-Marquardt (Levenberg 1944, Marquardt 1963) with a
forward-difference Jacobian.

A problem is compiled once per fit: the angular frequencies, the
network's ladder with a slot for each free parameter, and the residual
map on the fit grid are fixed up front, and the bounds are checked once
against each parameter's domain. One objective call evaluates a batch
of K parameter sets in one blocked pass, 4096 // K frequencies a block.
`cost` is the same objective at the netlist's own values, with no free
parameters, after the target checks `FitProblem` makes, so a candidate
is scored one way whether it is a fit's or a caller's. A
Levenberg-Marquardt iteration is one such call: the trial point and its
n difference probes. Its n-vectors (the point, the bounds, the probes,
the held set and the downhill direction) are Python floats, since n is
a handful and a numpy call on so few entries costs more than its
arithmetic; the mean square, the gradient, the normal matrix, the solve
and the predicted decrease stay numpy. A refused step keeps the point,
so it reuses that point's gradient and normal matrix. The restarts run
in seed order, each only while every earlier run ended above the float
floor, the cost at which the residuals are rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sinum
from .analysis import ReferenceMismatch, _db, _resample
from .errors import _LARGEST, InputError, require
from .netlist import Netlist, NetlistError, NonPositiveParameter, Section
from .network import SParameterTrace, SweepGrid, _batch_s11_db, _compiled
from .network import sweep  # unused here; benchmarks/tracing.py wraps fitting.sweep by name


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
        held = []  # the floats the checks saw, not the caller's numbers
        for lo, hi, ceiling in self.intervals:
            lo = require("mask start", lo, InvalidBounds)
            hi = require("mask stop", hi, InvalidBounds)
            if not lo < hi:
                raise InvalidBounds(f"mask interval ({lo}, {hi}) is empty")
            if not abs(ceiling) <= _LARGEST:  # the bound of `require`, which has no least here
                raise InvalidBounds(f"mask ceiling {ceiling} is not finite")
            if held and lo <= held[-1][1]:
                raise InvalidBounds("mask intervals must be disjoint and sorted")
            held.append((lo, hi, float(ceiling)))
        object.__setattr__(self, "intervals", tuple(held))


def _residual_map(target, f: np.ndarray):
    """Map `(K, F)` s11 dB on grid `f` to the `(K, M)` residuals `cost` averages.

    A trace gives `db - target_db` on the M grid points it overlaps; a
    mask gives `max(0, db - ceiling)` at the M points its intervals
    cover, in grid order, which is interval order. Returns the map and
    the reference dB at those points: the target's dB or the ceiling.
    The map subtracts in place, into `db` itself on the trace's own grid,
    else into the selection. Selections use `np.compress`, which keeps
    each row contiguous, so a row sums in the same pairwise order as a
    single trace does and every residual and cost is bit-identical
    whatever K is.
    """
    if isinstance(target, Mask):
        ceiling = np.full(len(f), np.nan)
        for lo, hi, level in target.intervals:
            ceiling[(f >= lo) & (f <= hi)] = level
        keep = ~np.isnan(ceiling)
        reference_db = ceiling[keep]
    else:
        keep, reference_db = _resample(f, target)
    hinge = isinstance(target, Mask)

    def residual(db):
        r = db if keep is None else np.compress(keep, db, axis=-1)
        r -= reference_db
        return np.maximum(r, 0.0, out=r) if hinge else r

    return residual, reference_db


def _mean_square(residuals):
    # a row with no points (a mask that covers no grid point) costs 0
    return np.sum(residuals * residuals, axis=-1) / max(residuals.shape[-1], 1)


def _check_target(netlist: Netlist, target) -> None:
    """Refuse a trace target whose s11 dB is not finite, or with another port-1 reference."""
    if isinstance(target, SParameterTrace):
        _db(target)
        z_target, z_in = target.reference_impedances[0], netlist.input_port_impedance
        if z_target != z_in:  # port 1 only: a measured one-port trace has no port 2
            raise ReferenceMismatch(
                f"target trace's port-1 reference {z_target} ohm differs from"
                f" the netlist's input port {z_in} ohm"
            )


def cost(netlist: Netlist, target, grid: SweepGrid) -> float:
    """Mean squared dB deviation from a trace, or mean squared mask violation.

    The compiled objective with no free parameters, after `FitProblem`'s target checks.
    """
    _check_target(netlist, target)
    return _Objective(netlist, (), target, grid, np.empty(0)).initial_cost


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
        # copies, so a later change to the caller's lists cannot reach the checked problem
        object.__setattr__(self, "free_parameters", tuple(map(tuple, self.free_parameters)))
        held = []
        for (sname, pname), (lo, hi) in zip(self.free_parameters, self.bounds):
            lo = require(f"low bound of {sname}.{pname}", lo, InvalidBounds)
            hi = require(f"high bound of {sname}.{pname}", hi, InvalidBounds)
            if not 0 < lo < hi:  # the search runs on logs, so a low bound of 0 has none
                raise InvalidBounds(f"bounds ({lo}, {hi}) of {sname}.{pname} need 0 < low < high")
            held.append((lo, hi))
        object.__setattr__(self, "bounds", tuple(held))
        if min(self.max_iterations, self.restarts, self.seed) < 0:
            raise InputError("max_iterations, restarts and seed must not be negative")
        object.__setattr__(self, "tolerance", require("tolerance", self.tolerance, InputError))
        _check_target(self.netlist, self.target)
        for k, (sname, pname) in enumerate(self.free_parameters):
            try:
                section = self.netlist.section(sname)
            except NetlistError:
                raise UnknownParameter(f"no section named {sname!r}") from None
            if pname not in section.params:
                raise UnknownParameter(f"section {sname!r} has no parameter {pname!r}")
            if (sname, pname) in self.free_parameters[:k]:
                raise InputError(f"free parameter {sname}.{pname} is given more than once")


@dataclass(frozen=True)
class FitResult:
    parameters: dict[str, float]
    initial_cost: float
    final_cost: float
    iterations: int
    converged: bool
    netlist: Netlist
    # why the best search stopped: "tolerance" (cost at the float floor or a relative
    # decrease below tolerance), "step" (a step below tolerance, or no parameter can
    # move downhill) or "damping" (no damping found a lower cost), all converged;
    # "max_iterations" or "no_search" (max_iterations is 0), not converged
    stop_reason: str


def _with_values(netlist: Netlist, free, values) -> Netlist:
    updates: dict[str, dict[str, float]] = {}
    for (sname, pname), value in zip(free, values):
        updates.setdefault(sname, {})[pname] = value
    sections = []
    for section in netlist.sections:
        if section.name in updates:
            params = dict(section.params)
            params.update(updates[section.name])
            sections.append(Section(section.name, section.topology, params))
        else:
            sections.append(section)
    return Netlist(netlist.input_port_impedance, netlist.output_port_impedance, tuple(sections))


_FD_STEP = 2.0**-26  # forward-difference step in log space (~1.5e-8 in value)
_DAMPING = 1e-3  # LM's first damping, relative to the largest diagonal entry of J^T J
_MAX_DAMPING = 1e16  # damping, so relative, past which no step is left to try
_TINY = np.finfo(float).tiny  # the damping's least value
_FLOOR_ULPS = 64.0  # residual, in epsilons of 1 + |reference dB|, that counts as an exact fit
# stop reasons of a search that ended by its own rule, not by the iteration limit
_CONVERGED = ("tolerance", "step", "damping")


class _Objective:
    """A problem's residuals of K rows of log-parameters, compiled once.

    Holds the angular frequencies, the compiled ladder with a slot for
    each free column, and the residual map; `residuals` maps all rows in
    one sweep. Values are not checked against their domains here: `fit`
    checks its bounds once. `floor` is the cost below which rounding,
    not the parameters, sets the residuals.
    """

    def __init__(self, netlist: Netlist, free, target, grid: SweepGrid, start_values: np.ndarray):
        self._ports = (netlist.input_port_impedance, netlist.output_port_impedance)
        f = grid.frequencies()
        self._w = 2.0 * np.pi * f
        self._ladder = _compiled(netlist.sections, free)
        start_db = self.s11_db(start_values[None])
        self._residual, reference_db = _residual_map(target, f)
        eps = np.finfo(float).eps
        self.floor = float(_mean_square(_FLOOR_ULPS * eps * (1.0 + np.abs(reference_db))))
        self.initial_cost = float(_mean_square(self._residual(start_db))[0])

    def s11_db(self, values: np.ndarray) -> np.ndarray:
        """s11 dB, shape `(K, F)`, of K rows of free-parameter values."""
        return _batch_s11_db(self._ladder, values, self._w, *self._ports)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Residual rows, shape `(K, M)`, of K rows of log-parameters."""
        return self._residual(self.s11_db(np.exp(x)))


def _model(x, bounds, r, jac):
    """LM's model at x: gradient and normal matrix, the held indices and the downhill direction.

    A parameter on a bound that the gradient pushes outward is held there
    for the step, and its downhill entry is 0.
    """
    gradient = jac @ r
    normal = jac @ jac.T
    g = gradient.tolist()
    held = [i for i, (v, (l, h), gi) in enumerate(zip(x, bounds, g))
            if (v <= l and gi > 0) or (v >= h and gi < 0)]
    downhill = [0.0 if i in held else -gi for i, gi in enumerate(g)]
    return gradient, normal, held, downhill


def _lm(residuals, x0, lo, hi, max_iterations, tolerance, floor):
    """Levenberg-Marquardt on clamped vectors.

    Every iteration maps one trial point and its n forward-difference
    probes in one `residuals` call, so a trial and the Jacobian at it
    cost one batch. A parameter on a bound that the gradient pushes
    outward is held there for the step. The damping follows Nielsen's
    rule: a step that lowers the cost is taken and scales the damping by
    max(1/3, 1 - (2*gain - 1)**3), where gain is the actual over the
    predicted decrease; a refused step multiplies it by a factor that
    doubles with each refusal in a row.

    Returns (best_x, best_f, iterations, stop_reason): "tolerance" when
    the cost is at `floor` or a taken step lowered it by no more than
    `tolerance` relative, "step" when a taken step moved no
    log-parameter by more than `tolerance` or no parameter can move
    downhill, "damping" when the damping passed its limit without a
    lower cost, else "max_iterations".
    """
    n = len(x0)
    bounds = list(zip(np.asarray(lo, float).tolist(), np.asarray(hi, float).tolist()))
    eye = np.eye(n)

    def probed(x):
        probes = [min(max(v + (_FD_STEP if v + _FD_STEP <= h else -_FD_STEP), l), h)
                  for v, (l, h) in zip(x, bounds)]
        flat = x * (n + 1)
        flat[n::n + 1] = probes  # row 1 + i is x with its entry i probed
        rows = residuals(np.array(flat).reshape(n + 1, n))
        steps = [p - v for p, v in zip(probes, x)]
        column = np.array(steps)[:, None]
        jac = np.divide(rows[1:] - rows[0], column, out=np.zeros((n, rows.shape[1])),
                        where=column != 0)  # transposed: one row per parameter
        return float(_mean_square(rows[:1])[0]), rows[0], jac

    x = [min(max(v, l), h) for v, (l, h) in zip(np.asarray(x0, float).tolist(), bounds)]
    f, r, jac = probed(x)
    damping = _DAMPING * np.max(np.sum(jac * jac, axis=1))
    growth = 2.0
    iterations = 0
    reason = "max_iterations"
    moved = True  # a refused step leaves x, and so its model, as they were
    while iterations < max_iterations and f > floor:
        if moved:
            gradient, normal, held, downhill = _model(x, bounds, r, jac)
            if not any(downhill):
                reason = "step"  # no parameter left that can lower the cost
                break
            moved = False
        iterations += 1
        system = normal + damping * eye
        if held:
            system[held] = system[:, held] = 0.0
            system[held, held] = 1.0
        try:
            delta = np.linalg.solve(system, downhill).tolist()
            trial = [min(max(v + d, l), h) for v, d, (l, h) in zip(x, delta, bounds)]
        except np.linalg.LinAlgError:  # singular to working precision: refuse, damp harder
            trial = x
        f_t, r_t, jac_t = probed(trial)
        if f_t < f:
            step = [t - v for t, v in zip(trial, x)]
            s = np.array(step)
            predicted = -s @ (2.0 * gradient + normal @ s) / len(r)
            decrease = f - f_t
            gain = decrease / predicted if decrease < predicted else 1.0
            factor = max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            damping = max(damping * factor, _TINY)
            growth = 2.0
            x, f, r, jac = trial, f_t, r_t, jac_t
            moved = True
            if decrease <= tolerance * (f + decrease):
                reason = "tolerance"
                break
            if max(map(abs, step)) <= tolerance:
                reason = "step"
                break
        else:
            damping *= growth
            growth *= 2.0
            if damping > _MAX_DAMPING * normal.diagonal().max():
                reason = "damping"
                break
    if f <= floor:
        reason = "tolerance"
    return np.array(x), f, iterations, reason


def fit(problem: FitProblem) -> FitResult:
    """Run the bounded search; deterministic for a given problem and seed."""
    free = problem.free_parameters
    start_netlist = problem.netlist
    lo_values = np.array([b[0] for b in problem.bounds])
    hi_values = np.array([b[1] for b in problem.bounds])
    start_values = np.clip(
        [start_netlist.section(s).params[p] for s, p in free], lo_values, hi_values
    )

    def check(*ends):
        for (s, p), *values in zip(free, *ends):
            for v in values:
                require(f"{s}.{p}", v, NonPositiveParameter)

    # every value evaluated lies between the bounds or the exps of their logs, the clamp's
    # ends; the bounds are checked first, so no log is taken of one outside its domain
    check(lo_values, hi_values)
    lo, hi = np.log(lo_values), np.log(hi_values)
    check(np.exp(lo), np.exp(hi))
    objective = _Objective(start_netlist, free, problem.target, problem.grid, start_values)
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

    rng = np.random.default_rng(problem.seed)
    runs = []
    for k in range(problem.restarts + 1):
        start = rng.uniform(lo, hi) if k else np.log(start_values)  # drawn as its run begins
        runs.append(_lm(objective.residuals, start, lo, hi, problem.max_iterations,
                        problem.tolerance, objective.floor))
        if runs[-1][1] <= objective.floor:  # rounding sets the residuals: no start does better
            break
    total_iterations = sum(iterations for _, _, iterations, _ in runs)
    best_x, best_f, _, best_reason = min(runs, key=lambda run: run[1])  # the first of equal costs

    if best_f < initial_cost:
        return result_for(np.exp(best_x), float(best_f), total_iterations, best_reason)
    # the search never strictly improved on the starting point
    return result_for(start_values, initial_cost, total_iterations, best_reason)


def fit_result_text(result: FitResult) -> str:
    """Flat key=value rendering of a fit result."""
    return sinum.key_value_text([
        ("initial_cost", result.initial_cost), ("final_cost", result.final_cost),
        ("iterations", result.iterations), ("converged", str(result.converged).lower()),
        *result.parameters.items(),
    ])
