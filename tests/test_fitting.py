import dataclasses
import math

import numpy as np
import pytest

from conftest import random_netlist, recovery_problem
from rfladder import fitting as ft
from rfladder.analysis import NoOverlap
from rfladder.errors import InputError, NonFiniteResult, RfLadderError
from rfladder.netlist import Netlist, NonPositiveParameter, Section
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


def test_mask_validation():
    with pytest.raises(ft.InvalidBounds):
        ft.Mask(((2e9, 1e9, -10.0),))
    with pytest.raises(ft.InvalidBounds):
        ft.Mask(((1e9, 2e9, -10.0), (1.5e9, 3e9, -10.0)))


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
    for field in ("max_iterations", "restarts", "seed"):
        with pytest.raises(InputError):
            ft.FitProblem(net, (("s1", "L"),), ((1e-10, 1e-8),), target, GRID, **{field: -1})
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


def test_fit_stop_reasons():
    assert ft.fit(_recovery_problem(max_iterations=5)).stop_reason == "max_iterations"
    result = ft.fit(_recovery_problem())
    assert (result.stop_reason, result.converged) == ("collapsed", True)
    # every candidate meets the mask, so the cost spread is zero at once
    met = dataclasses.replace(
        _recovery_problem(), target=ft.Mask(((GRID.start, GRID.stop, 60.0),))
    )
    result = ft.fit(met)
    assert (result.stop_reason, result.converged, result.iterations) == ("tolerance", True, 0)


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

    def func(x):
        seen.append(x.copy())
        return float((x[0] - 5.0) ** 2 + (x[1] + 9.0) ** 2)  # optimum far outside

    x, f, iterations, _ = ft._nelder_mead(func, np.array([0.0, 0.0]), lo, hi, 200, 1e-12)
    assert all(np.all(v >= lo - 1e-15) and np.all(v <= hi + 1e-15) for v in seen)
    assert x[0] == pytest.approx(1.0, abs=1e-6)  # pinned at the boundary
    assert x[1] == pytest.approx(-2.0, abs=1e-6)


def test_optimizer_best_cost_monotone():
    # the accepted best after k iterations never worsens as k grows
    def func(x):
        return float(np.sum((x - 0.3) ** 2) * (1 + 0.1 * np.sin(40 * x).sum() ** 2))

    lo, hi = np.full(3, -2.0), np.full(3, 2.0)
    start = np.array([-1.0, 0.9, 1.4])
    bests = [
        ft._nelder_mead(func, start, lo, hi, k, 0.0)[1]
        for k in (0, 1, 2, 5, 10, 20, 40, 80, 160)
    ]
    assert bests == sorted(bests, reverse=True)


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
        target = {
            "same_grid": lambda: sweep(random_netlist(rng), GRID),
            "other_grid": lambda: sweep(random_netlist(rng), SweepGrid(0.2e9, 4e9, 157)),
            "mask": lambda: ft.Mask(((0.5e9, 2e9, -3.0), (2.5e9, 5.5e9, -6.0))),
        }[target_kind]()
        problem = ft.FitProblem(net, free, bounds, target, GRID)
        objective = ft._Objective(problem, np.array(values))
        assert objective.initial_cost == ft.cost(net, target, GRID)
        rows = _random_rows(rng, problem, 7)
        batched = objective(rows)
        for x, value in zip(rows, batched):
            assert value == ft.cost(ft._with_values(net, free, np.exp(x)), target, GRID)


def test_compiled_objective_splits_large_batches():
    problem = _recovery_problem()
    start = np.array([problem.netlist.section(s).params[p] for s, p in problem.free_parameters])
    objective = ft._Objective(problem, start)
    rows = _random_rows(np.random.default_rng(3), problem, 2 * ft._BATCH_ELEMENTS // GRID.points)
    assert objective(rows).tolist() == [objective(x[None]).item() for x in rows]


def test_fit_restarts_equal_sequential_runs():
    problem = dataclasses.replace(_recovery_problem(seed=4), restarts=3)
    free = problem.free_parameters
    lo_values, hi_values = np.array(problem.bounds).T
    lo, hi = np.log(lo_values), np.log(hi_values)
    start = np.clip([problem.netlist.section(s).params[p] for s, p in free], lo_values, hi_values)
    rng = np.random.default_rng(problem.seed)
    starts = [np.clip(np.log(start), lo, hi)] + [rng.uniform(lo, hi) for _ in range(3)]

    def objective(x):
        return ft.cost(ft._with_values(problem.netlist, free, np.exp(x)), problem.target, GRID)

    runs = [
        ft._nelder_mead(objective, x0, lo, hi, problem.max_iterations, problem.tolerance)
        for x0 in starts
    ]
    best = 0
    for k, (_, f, _, _) in enumerate(runs):
        if f < runs[best][1]:
            best = k
    x, f, _, converged = runs[best]
    result = ft.fit(problem)
    assert f < result.initial_cost
    assert result.final_cost == f
    assert list(result.parameters.values()) == np.exp(x).tolist()
    assert result.iterations == sum(run[2] for run in runs)
    assert result.converged == converged


# criterion-10 trials fitted before the objective was compiled and the
# restarts run in lockstep: (parameters, final_cost, iterations, converged)
CRITERION_10_PINNED = {
    0: ({"s0.C": 7.629941115446061e-13, "s0.L": 4.650438914538033e-09},
        3.66460965917573e-25, 326, True),
    3: ({"s0.C": 1.9757147562363984e-12, "s0.L": 4.8524976378924945e-09},
        9.901765133326599e-24, 324, True),
    7: ({"s0.C": 7.525116040539465e-13, "s0.L": 6.328861939592643e-09},
        9.576845820347302e-26, 378, True),
}


@pytest.mark.parametrize("trial", sorted(CRITERION_10_PINNED))
def test_criterion_10_trials_unchanged(trial):
    result = ft.fit(recovery_problem(trial)[0])
    assert (
        result.parameters, result.final_cost, result.iterations, result.converged
    ) == CRITERION_10_PINNED[trial]


def test_fit_reports_overflow_in_a_restart():
    # run 0 stays put at the target; the restart with seed 4 climbs until L*w overflows
    net = Netlist(50.0, 50.0, (Section("s", "series_rlc", {"L": 1e-9, "R": 5.0}),))
    problem = ft.FitProblem(net, (("s", "L"),), ((1e-12, 1e308),), sweep(net, GRID), GRID,
                            max_iterations=300, seed=4, restarts=3)
    with pytest.raises(NonFiniteResult):
        ft.fit(problem)
    assert ft.fit(dataclasses.replace(problem, restarts=0)).final_cost == 0.0


class _Left(RfLadderError):
    pass


class _Right(RfLadderError):
    pass


def test_lockstep_raises_the_error_the_sequential_order_meets_first():
    # both runs walk outward; run 1 leaves (-0.9, 0.9) first, run 0 later
    def costs(points):
        if np.any(points > 0.9):
            raise _Right()
        if np.any(points < -0.9):
            raise _Left()
        return -np.abs(points[:, 0])

    lo, hi = np.array([-2.0]), np.array([2.0])
    with pytest.raises(_Right):
        ft._nelder_mead(lambda x: costs(x[None])[0], np.array([0.1]), lo, hi, 50, 0.0)
    with pytest.raises(_Left):
        ft._nelder_mead(lambda x: costs(x[None])[0], np.array([-0.8]), lo, hi, 1, 0.0)
    runs = [ft._nm_steps(np.array([x0]), lo, hi, 50, 0.0) for x0 in (0.1, -0.8)]
    with pytest.raises(_Right):
        ft._lockstep(costs, runs)


def test_fit_checks_each_candidate_against_its_domain():
    # bounds that bypass FitProblem's check still meet the per-candidate check
    line = _tline()
    problem = ft.FitProblem(line, (("t", "eps_eff"),), ((1.0, 13.0),), sweep(line, GRID), GRID,
                            restarts=2)
    object.__setattr__(problem, "bounds", ((0.13, 13.0),))
    with pytest.raises(NonPositiveParameter, match="eps_eff"):
        ft.fit(problem)
