import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import ZERO_BRANCH_CASES, random_netlist, recovery_problem, reference_ladder
from rfladder import fitting as ft
from rfladder import network as nw
from rfladder.analysis import NoOverlap, ReferenceMismatch, band_report
from rfladder.errors import InputError, NonFiniteResult, RfLadderError
from rfladder.netlist import Netlist, NonPositiveParameter, Section, parse
from rfladder.network import SParameterTrace, SweepGrid, sweep

GRID = SweepGrid(0.5e9, 6e9, 201)


def two_section_ladder(l1=3e-9, c1=1e-12, l2=8e-9, c2=2.5e-12):
    return Netlist(
        50.0,
        4.5,
        (
            Section("s1", "series_rl_shunt_c", {"R": 5.0, "L": l1, "C": c1}),
            Section("s2", "series_rl_shunt_c", {"R": 12.0, "L": l2, "C": c2}),
        ),
    )


def test_cost_zero_against_own_sweep():
    net = two_section_ladder()
    target = sweep(net, GRID)
    assert ft.cost(net, target, GRID) == 0.0


def test_cost_flat_mask_violation():
    # a flat -5 dB reflection against a -10 dB ceiling violates by 5 dB everywhere
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"R": 1e9}),))
    trace = sweep(net, GRID)
    level = trace.s11_db()[0]
    mask = ft.Mask(((GRID.start, GRID.stop, level - 5.0),))
    assert ft.cost(net, mask, GRID) == pytest.approx(25.0, rel=1e-6)


def test_cost_zero_below_mask():
    net = two_section_ladder()
    mask = ft.Mask(((GRID.start, GRID.stop, 60.0),))
    assert ft.cost(net, mask, GRID) == 0.0


def test_cost_mask_counts_only_covered_points():
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"R": 1e9}),))
    trace = sweep(net, GRID)
    level = trace.s11_db()[0]
    half = ft.Mask(((GRID.start, 0.5 * (GRID.start + GRID.stop), level - 5.0),))
    assert ft.cost(net, half, GRID) == pytest.approx(25.0, rel=1e-6)
    outside = ft.Mask(((7e9, 8e9, -10.0),))
    assert ft.cost(net, outside, GRID) == 0.0


def test_cost_trace_target_interpolates():
    net = two_section_ladder()
    dense = sweep(net, SweepGrid(0.5e9, 6e9, 801))
    assert ft.cost(net, dense, GRID) == pytest.approx(0.0, abs=1e-18)


def test_cost_no_overlap():
    net = two_section_ladder()
    target = sweep(net, SweepGrid(8e9, 9e9, 11))
    with pytest.raises(NoOverlap):
        ft.cost(net, target, GRID)


def test_cost_refuses_the_trace_targets_fit_problem_refuses():
    # scored, a 75 ohm trace against a 50 ohm input gives a finite cost that compares
    # nothing (0.161 dB^2 for the same ladder's), and a NaN sample gives a NaN cost
    net = two_section_ladder()
    at_75 = sweep(dataclasses.replace(net, input_port_impedance=75.0), GRID)
    with pytest.raises(ReferenceMismatch, match="port-1 reference 75.0 ohm differs .* 50.0"):
        ft.cost(net, at_75, GRID)
    target = sweep(net, GRID)
    s11 = target.s11.copy()
    s11[7] = complex(math.nan, 0.0)
    with pytest.raises(InputError, match="non-finite s11"):
        ft.cost(net, SParameterTrace(target.frequencies, s11), GRID)


def test_mask_validation():
    with pytest.raises(ft.InvalidBounds):
        ft.Mask(((2e9, 1e9, -10.0),))
    with pytest.raises(ft.InvalidBounds):
        ft.Mask(((1e9, 2e9, -10.0), (1.5e9, 3e9, -10.0)))
    for ceiling in (math.nan, math.inf, -math.inf):
        with pytest.raises(ft.InvalidBounds, match="not finite"):
            ft.Mask(((1e9, 2e9, -10.0), (3e9, 4e9, ceiling)))


def test_problem_validation():
    net = two_section_ladder()
    target = sweep(net, GRID)
    with pytest.raises(ft.NoFreeParameters):
        ft.FitProblem(net, (), (), target, GRID)
    with pytest.raises(ft.InvalidBounds):
        ft.FitProblem(net, (("s1", "L"),), (), target, GRID)
    with pytest.raises(ft.InvalidBounds):
        ft.FitProblem(net, (("s1", "L"),), ((0.0, 1.0),), target, GRID)
    with pytest.raises(ft.UnknownParameter):
        ft.FitProblem(net, (("nope", "L"),), ((1e-10, 1e-8),), target, GRID)
    with pytest.raises(ft.UnknownParameter):
        ft.FitProblem(net, (("s1", "len"),), ((1e-10, 1e-8),), target, GRID)
    with pytest.raises(ft.InvalidBounds):
        ft.FitProblem(net, (("s1", "L"),), ((1e-10, math.inf),), target, GRID)
    with pytest.raises(InputError, match=r"s1\.C is given more than once"):
        ft.FitProblem(net, (("s1", "C"), ("s1", "L"), ("s1", "C")), ((1e-13, 1e-11),) * 3,
                      target, GRID)
    for field in ("max_iterations", "restarts", "seed"):
        with pytest.raises(InputError):
            ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), target, GRID, **{field: -1})
    for tolerance in (math.nan, math.inf, -1.0):
        with pytest.raises(InputError, match="tolerance .* must be finite and not negative"):
            ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), target, GRID, tolerance=tolerance)
    ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), target, GRID, tolerance=0.0)
    s11 = target.s11.copy()
    s11[7] = complex(math.nan, 0.0)
    with pytest.raises(InputError, match="non-finite s11"):
        ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),),
                      SParameterTrace(target.frequencies, s11), GRID)
    at_75 = SParameterTrace(target.frequencies, target.s11, reference_impedances=(75.0, 4.5))
    with pytest.raises(InputError, match="port-1 reference 75.0 ohm differs .* input port 50.0"):
        ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), at_75, GRID)
    # port 2 is not compared: a measured one-port trace has none
    at_50 = SParameterTrace(target.frequencies, target.s11, reference_impedances=(50.0, 50.0))
    ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), at_50, GRID)
    line = _tline()
    with pytest.raises(ft.InvalidBounds, match="t.eps_eff"):
        ft.FitProblem(line, (("t", "eps_eff"),), ((0.13, 13.0),), sweep(line, GRID), GRID)
    ft.FitProblem(line, (("t", "eps_eff"),), ((1.0, 13.0),), sweep(line, GRID), GRID)


def _tline(eps_eff=1.3):
    return Netlist(50.0, 50.0, (Section("t", "tline", {"z0": 30.0, "eps_eff": eps_eff, "len": 0.05}),))


def _recovery_problem(seed=0, perturbation=1.3, max_iterations=600):
    truth = two_section_ladder()
    target = sweep(truth, GRID)
    start = two_section_ladder(l1=3e-9 * perturbation, c1=1e-12 * perturbation)
    free = (("s1", "L"), ("s1", "C"))
    bounds = tuple(
        (start.section(s).params[p] / 10.0, start.section(s).params[p] * 10.0)
        for s, p in free
    )
    return ft.FitProblem(start, free, bounds, target, GRID,
                         max_iterations=max_iterations, seed=seed)


def test_fit_recovers_perturbed_parameters():
    result = ft.fit(_recovery_problem())
    assert result.final_cost < 1e-6
    assert result.parameters["s1.L"] == pytest.approx(3e-9, rel=0.05)
    assert result.parameters["s1.C"] == pytest.approx(1e-12, rel=0.05)
    assert result.converged
    assert result.final_cost <= result.initial_cost
    # the fitted netlist carries the recovered values
    assert result.netlist.section("s1").params["L"] == result.parameters["s1.L"]


def test_fit_zero_iterations():
    problem = _recovery_problem(max_iterations=0)
    result = ft.fit(problem)
    assert result.iterations == 0
    assert result.converged is False
    assert result.final_cost == result.initial_cost
    assert result.stop_reason == "no_search"


def _unreachable_target():
    # the first section's R differs, and R is not free, so no fit reaches zero cost
    net = two_section_ladder()
    sections = (dataclasses.replace(net.sections[0], params={"R": 7.0, "L": 3e-9, "C": 1e-12}),
                net.sections[1])
    return sweep(dataclasses.replace(net, sections=sections), GRID)


def test_fit_stop_reasons():
    # trace targets: Levenberg-Marquardt
    result = ft.fit(_recovery_problem(max_iterations=5))
    assert (result.stop_reason, result.converged, result.iterations) == ("max_iterations", False, 5)
    result = ft.fit(_recovery_problem())  # reaches the float floor
    assert (result.stop_reason, result.converged) == ("tolerance", True)
    result = ft.fit(dataclasses.replace(_recovery_problem(), tolerance=1e-3))
    assert (result.stop_reason, result.converged) == ("step", True)
    # no relative stop on an unreachable target: it ends when no damping finds a lower cost
    loose = dataclasses.replace(_recovery_problem(), target=_unreachable_target(), tolerance=0.0)
    result = ft.fit(loose)
    assert (result.stop_reason, result.converged) == ("damping", True)
    assert result.final_cost > 0.1
    # every candidate meets the mask, so the cost spread is zero at once
    met = dataclasses.replace(
        _recovery_problem(), target=ft.Mask(((GRID.start, GRID.stop, 60.0),))
    )
    result = ft.fit(met)
    assert (result.stop_reason, result.converged, result.iterations) == ("tolerance", True, 0)
    # no candidate meets the mask and there is no relative stop: it ends as the unreachable
    # trace does, when no damping finds a lower cost
    unmet = dataclasses.replace(
        _recovery_problem(), target=ft.Mask(((GRID.start, GRID.stop, -10.0),)), tolerance=0.0
    )
    result = ft.fit(unmet)
    assert (result.stop_reason, result.converged, result.iterations) == ("damping", True, 42)


def test_fit_mask_outside_the_grid():
    # no grid point is covered: the residual rows are empty and cost 0, not NaN
    outside = dataclasses.replace(_recovery_problem(), target=ft.Mask(((7e9, 8e9, -10.0),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = ft.fit(outside)
    assert (result.final_cost, result.stop_reason, result.iterations) == (0.0, "tolerance", 0)
    assert result.initial_cost == 0.0 and result.converged


def test_fit_already_optimal_start():
    truth = two_section_ladder()
    target = sweep(truth, GRID)
    free = (("s1", "L"), ("s1", "C"))
    bounds = tuple(
        (truth.section(s).params[p] / 10.0, truth.section(s).params[p] * 10.0)
        for s, p in free
    )
    result = ft.fit(ft.FitProblem(truth, free, bounds, target, GRID))
    assert result.initial_cost == 0.0
    assert result.final_cost <= result.initial_cost
    assert result.converged


def test_fit_deterministic():
    a = ft.fit(_recovery_problem(seed=3))
    b = ft.fit(_recovery_problem(seed=3))
    assert a == b


def test_fit_restarts_deterministic_and_not_worse():
    base = _recovery_problem(seed=5)
    multi = ft.FitProblem(
        base.netlist, base.free_parameters, base.bounds, base.target, base.grid,
        max_iterations=base.max_iterations, seed=5, restarts=2,
    )
    a = ft.fit(multi)
    b = ft.fit(multi)
    assert a == b
    assert a.final_cost <= ft.fit(base).final_cost + 1e-12


def test_optimizer_respects_bounds():
    lo = np.array([-1.0, -2.0])
    hi = np.array([1.0, 0.5])
    seen = []

    def residuals(points):
        seen.append(points.copy())
        return np.column_stack([points[:, 0] - 5.0, points[:, 1] + 9.0])  # optimum far outside

    x, _, _, reason = ft._lm(residuals, np.array([0.0, 0.0]), lo, hi, 200, 1e-12, 0.0)
    rows = np.concatenate(seen)
    assert np.all(rows >= lo) and np.all(rows <= hi)
    assert x.tolist() == [1.0, -2.0]  # pinned at the boundary
    assert reason == "step"  # no parameter left that can move downhill


def test_optimizer_best_cost_monotone():
    # the accepted best after k iterations never worsens as k grows
    def residuals(points):
        wave = np.sin(40 * points).sum(axis=1, keepdims=True)
        return (points - 0.3) * np.sqrt(1 + 0.1 * wave**2)

    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    start = np.array([-1.0, 0.9, 1.4])
    bests = [ft._lm(residuals, start, lo, hi, k, 0.0, 0.0)[1]
             for k in (0, 1, 2, 5, 10, 20, 40, 80, 160)]
    assert bests == sorted(bests, reverse=True)
    assert bests[-1] < bests[0]


def test_fit_result_text():
    result = ft.fit(_recovery_problem(max_iterations=0))
    text = ft.fit_result_text(result)
    assert "initial_cost = " in text
    assert "converged = false" in text
    assert "s1.L = " in text


def _random_rows(rng, problem, k):
    lo = np.log([b[0] for b in problem.bounds])
    hi = np.log([b[1] for b in problem.bounds])
    return rng.uniform(lo, hi, size=(k, len(lo)))


def _swept_cost(netlist, target):
    """The cost of a full sweep's s11 dB on GRID: the oracle the compiled objective must equal."""
    trace = sweep(netlist, GRID)
    residual, _ = ft._residual_map(target, trace.frequencies)
    return float(ft._mean_square(residual(trace.s11_db()[None]))[0])


@pytest.mark.parametrize("target_kind", ["same_grid", "other_grid", "mask"])
def test_compiled_objective_equals_cost_row_by_row(target_kind):
    rng = np.random.default_rng(11)
    for _ in range(12):
        net = random_netlist(rng)
        slots = [(s.name, p) for s in net.sections for p in s.params]
        rng.shuffle(slots)
        free = tuple(slots[: int(rng.integers(1, min(4, len(slots)) + 1))])
        values = [net.section(s).params[p] for s, p in free]
        bounds = tuple(
            (max(v / 3, 1.0) if p == "eps_eff" else v / 3, v * 3) for (_, p), v in zip(free, values)
        )
        # another ladder's trace, taken from the same input port the fit sees
        z_in = {"input_port_impedance": net.input_port_impedance}
        target = {
            "same_grid": lambda: sweep(dataclasses.replace(random_netlist(rng), **z_in), GRID),
            "other_grid": lambda: sweep(dataclasses.replace(random_netlist(rng), **z_in),
                                        SweepGrid(0.2e9, 4e9, 157)),
            "mask": lambda: ft.Mask(((0.5e9, 2e9, -3.0), (2.5e9, 5.5e9, -6.0))),
        }[target_kind]()
        problem = ft.FitProblem(net, free, bounds, target, GRID)
        objective = ft._Objective(net, free, target, GRID, np.array(values))
        assert objective.initial_cost == ft.cost(net, target, GRID) == _swept_cost(net, target)
        rows = _random_rows(rng, problem, 7)
        batched = ft._mean_square(objective.residuals(rows))
        for x, value in zip(rows, batched):
            assert value == _swept_cost(ft._with_values(net, free, np.exp(x)), target)


def test_compiled_objective_splits_large_batches():
    # a mask's hinge rows, violations only, split across sweeps as a trace's rows do
    problem = dataclasses.replace(
        _recovery_problem(), target=ft.Mask(((0.8e9, 2e9, -9.0), (2.5e9, 5.5e9, -3.0)))
    )
    objective = _objective_for(problem)
    rows = _random_rows(np.random.default_rng(3), problem, 2 * nw._BLOCK // GRID.points + 1)
    residuals = objective.residuals(rows)
    assert residuals.tolist() == [objective.residuals(x[None])[0].tolist() for x in rows]
    assert np.all(residuals >= 0.0) and np.any(residuals > 0.0) and np.any(residuals == 0.0)


def _log_starts(problem):
    """Log bounds and the 1 + restarts log start vectors `fit` draws."""
    lo_values, hi_values = np.array(problem.bounds).T
    lo, hi = np.log(lo_values), np.log(hi_values)
    free = problem.free_parameters
    start = np.clip([problem.netlist.section(s).params[p] for s, p in free], lo_values, hi_values)
    rng = np.random.default_rng(problem.seed)
    starts = [np.clip(np.log(start), lo, hi)]
    return lo, hi, starts + [rng.uniform(lo, hi) for _ in range(problem.restarts)]


# criterion-10 trials fitted by Levenberg-Marquardt when it took over trace
# targets: (parameters, final_cost, iterations, converged); trial 10's first
# run and trial 31's first three end in local minima, so their restarts run
CRITERION_10_PINNED = {
    0: ({"s0.L": 4.65043891453501e-09, "s0.C": 7.629941112847394e-13},
        4.1585982475987486e-30, 14, True),
    3: ({"s0.C": 1.975714755624083e-12, "s0.L": 4.852497637904993e-09},
        1.4529936047381774e-29, 9, True),
    7: ({"s0.L": 6.328861939595387e-09, "s0.C": 7.525116042348487e-13},
        1.8829945461603632e-29, 15, True),
    10: ({"s1.C": 1.1714252889036878e-12, "s1.L": 7.61453782387967e-09,
          "s0.L": 1.0354313092366713e-08, "s0.C": 3.848770233328075e-12},
         6.846041835798188e-28, 182, True),
    31: ({"s1.L": 7.136225261936611e-09, "s0.L": 6.5506814540781365e-09,
          "s2.L": 9.222973403371882e-09, "s0.C": 2.048465295416504e-12},
         2.535859731473136e-28, 341, True),
}


@pytest.mark.parametrize("trial", sorted(CRITERION_10_PINNED))
def test_criterion_10_trials_unchanged(trial):
    problem, truth = recovery_problem(trial)
    result = ft.fit(problem)
    assert (
        result.parameters, result.final_cost, result.iterations, result.converged
    ) == CRITERION_10_PINNED[trial]
    for key, value in result.parameters.items():
        section, param = key.split(".")
        assert value == pytest.approx(truth.section(section).params[param], rel=1e-6)


def _noisy_target_problem(trial):
    """Criterion-10 trial `trial` against its target times 1 + 2 % complex Gaussian noise."""
    problem = recovery_problem(trial)[0]
    target = problem.target
    noise = np.array([1.0, 1j]) @ np.random.default_rng(trial).standard_normal((2, len(target)))
    noisy = SParameterTrace(target.frequencies, target.s11 * (1.0 + 0.02 * noise))
    return dataclasses.replace(problem, target=noisy)


# (parameters, final_cost, iterations, stop_reason) of a noisy-target fit: no run
# reaches the float floor, so every one of the three restarts runs
NOISY_TARGET_PINNED = (
    {"s0.C": 2.9774600743190055e-12, "s0.L": 2.785261283024257e-09,
     "s1.C": 1.8574015055352634e-12, "s2.L": 2.6131624476886283e-09},
    0.026290948081201214, 152, "tolerance",
)


def test_noisy_target_fit_unchanged():
    problem = _noisy_target_problem(1)
    result = ft.fit(problem)
    assert (
        result.parameters, result.final_cost, result.iterations, result.stop_reason
    ) == NOISY_TARGET_PINNED
    assert result.final_cost == ft.cost(result.netlist, problem.target, problem.grid)


def test_fit_reports_overflow_in_a_restart():
    # run 0 ends above the floor on the unreachable target, so the restarts run; with
    # seed 4 the first starts at L = 6e289, far up the log-uniform span, where the cost
    # still falls as L grows, and steps on until w*L overflows
    problem = ft.FitProblem(two_section_ladder(), (("s1", "L"),), ((1e-12, 1e308),),
                            _unreachable_target(), GRID, max_iterations=300, seed=4, restarts=3)
    with pytest.raises(NonFiniteResult):
        ft.fit(problem)
    result = ft.fit(dataclasses.replace(problem, restarts=0))
    assert 0.0 < result.final_cost < result.initial_cost


class _Left(RfLadderError):
    pass


class _Right(RfLadderError):
    pass


def test_lm_raises_what_residuals_raises():
    # each step about doubles |x| + 0.05: from 0.1 the run leaves (-0.9, 0.9) in its
    # third iteration, from -0.8 in its first
    def residuals(points):
        if np.any(points > 0.9):
            raise _Right()
        if np.any(points < -0.9):
            raise _Left()
        return 1.0 / (np.abs(points) + 0.05)

    lo, hi = np.array([-2.0]), np.array([2.0])
    with pytest.raises(_Right):
        ft._lm(residuals, np.array([0.1]), lo, hi, 50, 0.0, 0.0)
    assert ft._lm(residuals, np.array([0.1]), lo, hi, 2, 0.0, 0.0)[0][0] < 0.9
    with pytest.raises(_Left):
        ft._lm(residuals, np.array([-0.8]), lo, hi, 1, 0.0, 0.0)


def test_fit_checks_each_candidate_against_its_domain():
    # bounds that bypass FitProblem's check still meet the per-candidate check
    line = _tline()
    mask = ft.Mask(((GRID.start, GRID.stop, -10.0),))
    problem = ft.FitProblem(line, (("t", "eps_eff"),), ((1.0, 13.0),), mask, GRID, restarts=2)
    object.__setattr__(problem, "bounds", ((0.13, 13.0),))
    with pytest.raises(NonPositiveParameter, match="eps_eff"):
        ft.fit(problem)


def _objective_for(problem):
    start = [problem.netlist.section(s).params[p] for s, p in problem.free_parameters]
    return ft._Objective(problem.netlist, problem.free_parameters, problem.target, problem.grid,
                         np.clip(start, *np.array(problem.bounds).T))


@pytest.mark.parametrize(
    "case", ["trial_1", "trial_31", "other_grid", "partial_overlap", "unreachable"]
)
def test_lm_final_cost_is_the_cost_of_the_result(case):
    if case.startswith("trial_"):
        problem = recovery_problem(int(case[6:]))[0]
    elif case == "unreachable":
        problem = dataclasses.replace(_recovery_problem(), target=_unreachable_target())
    else:
        grid = SweepGrid(0.2e9, 7e9, 801) if case == "other_grid" else SweepGrid(1e9, 8e9, 333)
        problem = dataclasses.replace(_recovery_problem(), target=sweep(two_section_ladder(), grid))
    result = ft.fit(problem)
    assert result.final_cost < result.initial_cost
    assert result.initial_cost == ft.cost(problem.netlist, problem.target, problem.grid)
    assert result.final_cost == ft.cost(result.netlist, problem.target, problem.grid)


def test_lm_fit_deterministic_per_seed():
    problem = recovery_problem(31)[0]  # runs all its restarts
    assert ft.fit(problem) == ft.fit(problem)
    other = ft.fit(dataclasses.replace(problem, seed=5))
    assert other == ft.fit(dataclasses.replace(problem, seed=5))
    assert other != ft.fit(problem)


@pytest.mark.parametrize("side", ["below", "above"])
def test_lm_rows_stay_within_bounds(side, monkeypatch):
    # the generating values lie outside the box, so the search ends on a bound
    problem = _recovery_problem(perturbation=1.25 if side == "below" else 0.8)
    start = [problem.netlist.section(s).params[p] for s, p in problem.free_parameters]
    bounds = tuple((v / 1.1, v * 1.1) for v in start)
    problem = dataclasses.replace(problem, bounds=bounds, restarts=2)
    lo, hi = np.log(np.array(bounds)).T
    seen = []
    residuals = ft._Objective.residuals

    def recording(self, x):
        seen.append(x.copy())
        return residuals(self, x)

    monkeypatch.setattr(ft._Objective, "residuals", recording)
    result = ft.fit(problem)
    rows = np.concatenate(seen)
    # a trial and its probes per run, for each run in the call
    assert all(len(x) % (len(bounds) + 1) == 0 for x in seen)
    assert np.all(rows >= lo) and np.all(rows <= hi)
    values = np.array(list(result.parameters.values()))
    edge = np.array(bounds)[:, 0 if side == "below" else 1]
    assert np.any(np.isclose(values, edge, rtol=1e-12, atol=0.0))


def test_lm_probes_stay_inside_bounds_narrower_than_the_step():
    line = _tline(eps_eff=1.0)
    problem = ft.FitProblem(line, (("t", "eps_eff"),), ((1.0, 1.0 + 1e-9),),
                            sweep(_tline(), GRID), GRID)
    assert 1.0 <= ft.fit(problem).parameters["t.eps_eff"] <= 1.0 + 1e-9


def test_residuals_split_large_batches():
    problem = _recovery_problem()
    objective = _objective_for(problem)
    rows = _random_rows(np.random.default_rng(3), problem, 2 * nw._BLOCK // GRID.points + 1)
    residuals = objective.residuals(rows)
    assert residuals.shape == (len(rows), GRID.points)
    assert residuals.tolist() == [objective.residuals(x[None])[0].tolist() for x in rows]


@pytest.mark.parametrize("target_kind, bound", [
    ("same_grid", 1.5), ("other_grid", 2.5), ("mask", 2.5),
])
def test_residuals_peak_below_their_bound(target_kind, bound):
    # s11 dB is made a block at a time, so no (K, F) complex buffer outlives a block, and
    # the residual map subtracts in place: into the dB rows on the fit's own grid, else
    # into the one selection of them
    grid = SweepGrid(0.5e9, 6e9, 20_001)
    target = {
        "same_grid": lambda: sweep(two_section_ladder(), grid),
        "other_grid": lambda: sweep(two_section_ladder(), SweepGrid(0.2e9, 7e9, 20_001)),
        "mask": lambda: ft.Mask(((0.8e9, 2e9, -9.0), (2.5e9, 5.5e9, -3.0))),
    }[target_kind]()
    problem = dataclasses.replace(_recovery_problem(), target=target, grid=grid)
    objective = _objective_for(problem)
    rows = _random_rows(np.random.default_rng(5), problem, 16)
    tracemalloc.start()
    try:
        residuals = objective.residuals(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residuals.shape == (16, 15_273 if target_kind == "mask" else grid.points)
    assert peak < bound * residuals.nbytes


def _restart_mask_problem():
    # runs 0 and 1 stop just above the floor, short of the ceiling; run 2 meets it
    net = reference_ladder()
    free = tuple((f"c{k}", p) for k in range(2, 6) for p in ("R", "L"))
    bounds = tuple((v / 2, v * 2) for v in (net.section(s).params[p] for s, p in free))
    mask = ft.Mask(((0.8e9, 4.2e9, -8.0),))
    return ft.FitProblem(net, free, bounds, mask, GRID, seed=2, restarts=3)


@pytest.mark.parametrize("trial", [0, 27, 31, "mask"])
def test_restart_runs_only_after_runs_above_the_floor(trial):
    # fit returns what runs in seed order give when each starts only if every
    # earlier one ended above the floor
    problem = _restart_mask_problem() if trial == "mask" else recovery_problem(trial)[0]
    objective = _objective_for(problem)
    lo, hi, starts = _log_starts(problem)
    runs = []
    for x0 in starts:
        if runs and runs[-1][1] <= objective.floor:
            break
        runs.append(ft._lm(objective.residuals, x0, lo, hi, problem.max_iterations,
                           problem.tolerance, objective.floor))
    assert len(runs) == {0: 1, 27: 3, 31: 4, "mask": 3}[trial]
    assert all(f > objective.floor for _, f, _, _ in runs[:-1])
    best = min(runs, key=lambda run: run[1])  # the first of equal costs, as fit keeps
    result = ft.fit(problem)
    assert result.final_cost == best[1] <= objective.floor
    assert list(result.parameters.values()) == np.exp(best[0]).tolist()
    assert result.iterations == sum(run[2] for run in runs)


class _CountingGenerator:
    """Wraps a numpy Generator and counts its `uniform` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0

    def uniform(self, *args):
        self.draws += 1
        return self._rng.uniform(*args)


@pytest.mark.parametrize("trial,draws", [(0, 0), (31, 3)])
def test_fit_draws_each_restart_start_as_its_run_begins(trial, draws, monkeypatch):
    # trial 0's first run reaches the floor, so none of its 3 restart starts is drawn
    problem = recovery_problem(trial)[0]
    assert problem.restarts == 3
    generators, default_rng = [], np.random.default_rng

    def counting_rng(seed):
        generators.append(_CountingGenerator(default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(ft.np.random, "default_rng", counting_rng)
    result = ft.fit(problem)
    assert [g.draws for g in generators] == [draws]
    assert (result.parameters, result.final_cost, result.iterations, result.converged) == (
        CRITERION_10_PINNED[trial])


def test_fit_keeps_the_first_of_equal_costs(monkeypatch):
    problem = dataclasses.replace(_recovery_problem(), restarts=3)
    initial_cost = ft.fit(dataclasses.replace(problem, max_iterations=0)).initial_cost
    lo = np.log([low for low, _ in problem.bounds])
    # runs 1 and 2 tie below run 0, all above the floor, so run 3 also runs
    canned = [(lo + 0.1, initial_cost / 2, 3, "step"), (lo + 0.2, initial_cost / 4, 5, "damping"),
              (lo + 0.3, initial_cost / 4, 7, "tolerance"), (lo + 0.4, initial_cost / 3, 11, "step")]
    monkeypatch.setattr(ft, "_lm", lambda *args: canned.pop(0))
    result = ft.fit(problem)
    assert not canned
    assert list(result.parameters.values()) == np.exp(lo + 0.2).tolist()
    assert (result.final_cost, result.iterations, result.stop_reason) == (
        initial_cost / 4, 26, "damping")


@pytest.mark.parametrize("text,fstart,fstop,points", ZERO_BRANCH_CASES)
def test_fit_of_a_zero_branch_is_not_finite(text, fstart, fstop, points):
    net = parse(text)
    (section,) = net.sections
    grid = SweepGrid(fstart, fstop, points)
    target = SParameterTrace(grid.frequencies(), np.full(points, 0.5 + 0j))
    problem = ft.FitProblem(net, ((section.name, "L"),), ((1e-10, 1e-8),), target, grid)
    with pytest.raises(NonFiniteResult, match="impedance or admittance is zero"):
        ft.fit(problem)


def test_lm_probe_past_overflow_raises_non_finite():
    # w*L is finite at the start but not one forward-difference step above it
    start = np.finfo(float).max / (2.0 * np.pi * GRID.stop) * (1.0 - 5e-9)
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"L": start}),))
    problem = ft.FitProblem(net, (("s", "L"),), ((1e-12, 1e308),), sweep(net, GRID), GRID)
    with pytest.raises(NonFiniteResult):
        ft.fit(problem)
    # on the upper bound the probe steps down instead
    result = ft.fit(dataclasses.replace(problem, bounds=((start / 10.0, start),)))
    assert (result.final_cost, result.iterations) == (0.0, 0)


def test_lm_checks_each_candidate_against_its_domain():
    # the target is the line at eps_eff 0.5, below the domain the forced bounds open
    line = Netlist(50.0, 50.0, (Section("t", "tline", {"z0": 30.0, "eps_eff": 1.3, "len": 0.005}),))
    shorter = Section("t", "tline", {"z0": 30.0, "eps_eff": 1.0, "len": 0.005 * math.sqrt(0.5)})
    target = sweep(dataclasses.replace(line, sections=(shorter,)), GRID)
    problem = ft.FitProblem(line, (("t", "eps_eff"),), ((1.0, 13.0),), target, GRID)
    result = ft.fit(problem)  # held on its low bound
    assert (result.parameters["t.eps_eff"], result.stop_reason) == (1.0, "step")
    object.__setattr__(problem, "bounds", ((0.13, 13.0),))
    with pytest.raises(NonPositiveParameter, match="eps_eff"):
        ft.fit(problem)


# Mask fits of the reference ladder, pinned as Levenberg-Marquardt on the hinge
# residuals gives them, and the costs Nelder-Mead reached on the same problems
# when it fitted masks
MASK_GRID = SweepGrid(0.3e9, 6e9, 201)
MASK_LM_PINNED = {
    "band": (
        {"c1.R": 3.4473537154674503, "c1.L": 1.8777177830512026e-09,
         "c1.C": 7.395853290568922e-13, "c2.R": 44.70000000000001,
         "c2.L": 4.2375026523623525e-09, "c2.C": 2.042634693125642e-12,
         "c3.R": 31.108203814769485, "c3.L": 2.4660412550287853e-09,
         "c3.C": 1.7405482554404243e-12, "c4.R": 43.36342393077705,
         "c4.L": 5.0867472476832276e-09, "c4.C": 2.255692731484845e-12,
         "c5.R": 36.445748842047564, "c5.L": 9.751823290466259e-09,
         "c5.C": 4.200146011354368e-12},
        0.0, 11, "tolerance",
    ),
    "two_intervals": (
        {"c0.eps_eff": 3.252509487301407, "c0.len": 0.05737810601766261,
         "c2.L": 2.5149523230949913e-09, "c5.R": 69.70952033348539},
        0.024607272893148065, 449, "tolerance",
    ),
}
MASK_NELDER_MEAD_COST = {"band": 0.0, "two_intervals": 0.024745759728582152}


def _mask_problem(kind):
    net = reference_ladder()
    if kind == "band":
        # every R/L/C within x/2 of the table under -10 dB over 780-4220 MHz
        free = tuple((f"c{k}", p) for k in range(1, 6) for p in ("R", "L", "C"))
        mask, seed, restarts = ft.Mask(((780e6, 4220e6, -10.0),)), 0, 2
    else:
        free = (("c0", "eps_eff"), ("c0", "len"), ("c2", "L"), ("c5", "R"))
        mask, seed, restarts = ft.Mask(((0.8e9, 2.0e9, -12.0), (3.0e9, 4.0e9, -8.0))), 1, 1
    values = [net.section(s).params[p] for s, p in free]
    bounds = tuple(
        (max(v / 2, 1.0) if p == "eps_eff" else v / 2, v * 2) for (_, p), v in zip(free, values)
    )
    return ft.FitProblem(net, free, bounds, mask, MASK_GRID, seed=seed, restarts=restarts)


@pytest.mark.parametrize("kind", sorted(MASK_LM_PINNED))
def test_mask_fits_pinned(kind):
    problem = _mask_problem(kind)
    result = ft.fit(problem)
    assert (
        result.parameters, result.final_cost, result.iterations, result.stop_reason
    ) == MASK_LM_PINNED[kind]
    assert result.final_cost <= MASK_NELDER_MEAD_COST[kind]
    assert result.initial_cost == ft.cost(problem.netlist, problem.target, MASK_GRID)
    assert result.final_cost == ft.cost(result.netlist, problem.target, MASK_GRID)
    if kind == "band":
        # the mask holds on its grid: every sample in 780-4220 MHz lies in one -10 dB band
        f = MASK_GRID.frequencies()
        inside = f[(f >= 780e6) & (f <= 4220e6)]
        bands = band_report(sweep(result.netlist, MASK_GRID), -10.0).bands
        assert any(lo <= inside[0] and inside[-1] <= hi for lo, hi in bands)
