import math

import numpy as np
import pytest

from conftest import log_uniform
from rfladder import fitting as ft
from rfladder.analysis import NoOverlap
from rfladder.errors import InputError
from rfladder.netlist import Netlist, Section
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
