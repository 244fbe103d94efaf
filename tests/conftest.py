"""Shared fixtures and corpus generators for the test suite."""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import rfladder
from rfladder import cli, fitting
from rfladder.geometry import canonical_cavities, canonical_geometry, serialize_geometry
from rfladder.netlist import Netlist, Section, parse
from rfladder.network import SweepGrid, sweep

RLC_TOPOLOGIES = (
    "series_rlc",
    "shunt_series_rlc",
    "shunt_parallel_rlc",
    "series_rl_shunt_c",
)

# Reference per-cavity element values (pF / nH / ohm columns).
REFERENCE_ELEMENTS = (
    # (W mm, d mm, C pF, L nH, R ohm); None marks the feed cavity dashes
    (3.2, 60.0, 0.0014, None, None),
    (18.0, 7.0, 0.417, 2.39, 3.3),
    (27.0, 7.5, 1.09, 3.28, 22.35),
    (36.0, 8.5, 1.69, 3.9, 20.0),
    (51.0, 10.5, 2.1, 5.15, 37.5),
    (62.0, 24.0, 4.2, 10.0, 35.5),
)


# Well-formed netlists with a branch of exactly zero impedance or admittance on their
# grid, as (netlist text, fstart, fstop, points): the series LC of the first resonates
# at exactly 1 GHz, and j*w*L of the second underflows to 0 at its first frequency.
ZERO_BRANCH_CASES = (
    pytest.param("port in z0=50\nport out z0=50\n"
                 "section s topology=shunt_series_rlc L=1n C=25.330295910584442p\n",
                 1e9, 2e9, 2, id="resonance"),
    pytest.param("port in z0=50\nport out z0=50\n"
                 "section p topology=shunt_parallel_rlc L=1n C=1p\n",
                 5e-324, 6e9, 1201, id="underflow"),
)


def assert_bitwise_equal(held, parsed):
    """Two traces with the same reference impedances and the same bytes in every array."""
    assert held.reference_impedances == parsed.reference_impedances
    assert [type(z) for z in held.reference_impedances] == [float, float]
    assert [type(z) for z in parsed.reference_impedances] == [float, float]
    for name in ("frequencies", "s11", "s21", "s12", "s22"):
        a, b = getattr(held, name), getattr(parsed, name)
        assert (a is None) == (b is None), name
        assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes()), name


def assert_same_text(actual: str, expected: str) -> None:
    """`assert actual == expected`, failing with the first differing line and both line counts.

    pytest reports two unequal strings with an `ndiff` of them, which takes
    minutes when many lines of a whole file differ.
    """
    __tracebackhide__ = True
    if actual == expected:
        return
    a, b = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
    k = next((k for k, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    raise AssertionError(
        f"texts differ first at line {k + 1}: {a[k:k + 1]!r} != {b[k:k + 1]!r}"
        f" ({len(a)} lines against {len(b)})"
    )


@pytest.fixture
def geometry():
    return canonical_geometry()


@pytest.fixture
def cavities():
    return canonical_cavities()


@pytest.fixture(scope="session")
def criterion_9_sweep(tmp_path_factory):
    """The criterion-9 ladder (extracted from the canonical geometry) over 1,201 points."""
    path = tmp_path_factory.mktemp("criterion_9")
    (path / "antenna.geo").write_text(
        serialize_geometry(canonical_geometry(), canonical_cavities())
    )
    assert cli.main(["extract", "--geometry", str(path / "antenna.geo"),
                     "--frequency", "2.5e9", "--out", str(path / "elements.csv")]) == 0
    assert cli.main(["build", "--elements", str(path / "elements.csv"),
                     "--ports", "50,4.5", "--out", str(path / "ladder.net")]) == 0
    return sweep(parse((path / "ladder.net").read_text()), SweepGrid(0.1e9, 6e9, 1201))


def reference_ladder() -> Netlist:
    """Ladder built from the reference element table plus the feed line."""
    sections = [
        Section(
            "c0",
            "tline",
            {"z0": 50.70748624138301, "eps_eff": 3.32599074017086, "len": 0.06},
        )
    ]
    for k, (_, _, c_pf, l_nh, r_ohm) in enumerate(REFERENCE_ELEMENTS[1:], start=1):
        sections.append(
            Section(
                f"c{k}",
                "series_rl_shunt_c",
                {"R": r_ohm, "L": l_nh * 1e-9, "C": c_pf * 1e-12},
            )
        )
    return Netlist(50.0, 4.5, tuple(sections))


def rfladder_calls(run) -> int:
    """Python frames entered in the package's own code while `run()` runs.

    Counted with `sys.setprofile`, so numpy's own Python frames, which vary
    with its version, are left out.
    """
    package = os.path.dirname(rfladder.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def random_section(rng: np.random.Generator, name: str, lossless: bool) -> Section:
    """One random section with values spanning the reference-table decades."""
    topologies = RLC_TOPOLOGIES + ("tline",)
    topology = topologies[rng.integers(len(topologies))]
    if topology == "tline":
        params = {
            "z0": log_uniform(rng, 4.5, 80.0),
            "eps_eff": float(rng.uniform(1.0, 4.4)),
            "len": log_uniform(rng, 1e-3, 0.1),
        }
    elif topology == "series_rl_shunt_c":
        params = {"L": log_uniform(rng, 1e-9, 2e-8), "C": log_uniform(rng, 1e-15, 5e-12)}
        if not lossless and rng.random() < 0.7:
            params["R"] = log_uniform(rng, 1.0, 50.0)
    else:
        keys = ["L", "C"] if lossless else ["R", "L", "C"]
        chosen = [k for k in keys if rng.random() < 0.6]
        if not chosen:
            chosen = [keys[rng.integers(len(keys))]]
        draw = {
            "R": lambda: log_uniform(rng, 1.0, 50.0),
            "L": lambda: log_uniform(rng, 1e-9, 2e-8),
            "C": lambda: log_uniform(rng, 1e-15, 5e-12),
        }
        params = {k: draw[k]() for k in chosen}
    return Section(name, topology, params)


def random_netlist(rng: np.random.Generator, lossless: bool = False) -> Netlist:
    sections = tuple(
        random_section(rng, f"s{k}", lossless) for k in range(int(rng.integers(1, 9)))
    )
    return Netlist(log_uniform(rng, 5.0, 100.0), log_uniform(rng, 1.0, 100.0), sections)


def recovery_problem(seed: int) -> tuple[fitting.FitProblem, Netlist]:
    """Trial `seed` of criterion 10's synthetic-recovery corpus: (problem, generating ladder)."""
    rng = np.random.default_rng(1000 + seed)
    n_sections = int(rng.integers(1, 4))
    sections = []
    for k in range(n_sections):
        sections.append(
            Section(
                f"s{k}",
                "series_rl_shunt_c",
                {
                    "R": log_uniform(rng, 2.0, 40.0),
                    "L": log_uniform(rng, 2e-9, 1.2e-8),
                    "C": log_uniform(rng, 0.5e-12, 4e-12),
                },
            )
        )
    truth = Netlist(50.0, 4.5, tuple(sections))
    grid = SweepGrid(0.3e9, 6e9, 201)
    target = sweep(truth, grid)

    candidates = [(f"s{k}", p) for k in range(n_sections) for p in ("L", "C")]
    rng.shuffle(candidates)
    free = tuple(candidates[: min(4, len(candidates))])
    perturbed = [
        truth.section(s).params[p] * float(rng.uniform(0.5, 1.5)) for s, p in free
    ]
    start = fitting._with_values(truth, free, perturbed)
    bounds = tuple((v / 10.0, v * 10.0) for v in perturbed)
    # seeded multi-start: the documented escape hatch for local-search ruts
    problem = fitting.FitProblem(
        start, free, bounds, target, grid,
        max_iterations=800, tolerance=1e-14, seed=seed, restarts=3,
    )
    return problem, truth
