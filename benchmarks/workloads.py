"""The benchmark's three workloads: seeded inputs, one timed item, its check.

A workload is built from the seed before any timing (that is its
set-up), then runs items by index, once in each of ``passes`` passes.
``run`` is the timed part and calls only rfladder's public functions.
``check`` verifies the item's outputs against an independent in-process
computation and returns the problems found (empty when the item is
correct) and whether the item met its accuracy target.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from rfladder import analysis, cli, elements, fitting, geometry, netlist, network, touchstone

THRESHOLD_DB = -10.0
PORTS = (50.0, 4.5)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _key_values(text: str) -> dict[str, float]:
    """Parse the CLI's flat ``key = value`` reports."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = float(value)
    return out


def band_report_problems(printed: str, expected: analysis.BandReport) -> list[str]:
    """Differences between a printed band report and the expected one (rel 1e-9)."""
    got = _key_values(printed)
    if got.get("bands") != len(expected.bands):
        return [f"band count {got.get('bands')} != {len(expected.bands)}"]
    pairs = []
    for k, (lo, hi) in enumerate(expected.bands):
        pairs += [(f"band{k}_low_hz", lo), (f"band{k}_high_hz", hi)]
    if expected.bands:
        pairs += [
            ("widest_band", expected.widest_band),
            ("mismatch_efficiency_percent", expected.mismatch_efficiency_percent),
            ("max_vswr_in_band", expected.max_vswr_in_band),
        ]
    return [
        f"{key} = {got.get(key)} != {value!r}"
        for key, value in pairs
        if key not in got or not _close(got[key], value)
    ]


# ---------------------------------------------------------------- pipeline

# Acceptance criterion 9: the canonical antenna's -10 dB report.
SNAPSHOT_BAND = (100000000.0, 133613522.3029348)
SNAPSHOT_EFFICIENCY = 91.37441087748475
SNAPSHOT_MAX_VSWR = 1.924950591148529

PIPELINE_GRID = network.SweepGrid(0.1e9, 6e9, 1201)
PIPELINE_FORMATS = ("RI", "MA", "DB")


def ladder_from_geometry(text: str) -> netlist.Netlist:
    """The ladder that extract + build make from a geometry file, in process."""
    doc = geometry.parse_geometry_file(text)
    cavities = list(doc.cavities)
    rows = elements.extract_all(cavities, doc.geometry.substrate)
    line = elements.microstrip(
        cavities[0].width,
        geometry.CANONICAL_SUBSTRATE_THICKNESS,
        geometry.CANONICAL_RELATIVE_PERMITTIVITY,
    )
    feed = netlist.FeedLine(
        line.characteristic_impedance, line.effective_permittivity, cavities[0].length
    )
    return netlist.from_elements(rows, feed, PORTS)


class Pipeline:
    """CLI batch path: extract -> build -> simulate -> bandwidth -> compare.

    Item 0 is the canonical antenna; every other item perturbs each
    cavity's W and d by up to +-10 %. ``simulate`` cycles RI/MA/DB.
    """

    rate = 11.0  # item runs per second at the baseline on the reference machine
    passes = 15  # odd, so that an item's median is one of its runs

    def __init__(self, seed: int, items: int, workdir: Path):
        rng = np.random.default_rng(seed)
        base = geometry.canonical_cavities()
        antenna = geometry.canonical_geometry()
        self.geometry_texts = []
        self.argvs = []
        self.verified = {}  # item -> digest of outputs that passed the full check
        d = workdir
        self.s2p, self.csv = d / "sim.s2p", d / "sim.csv"
        self.ladder_path = d / "ladder.net"
        self.reference = network.sweep(
            ladder_from_geometry(geometry.serialize_geometry(antenna, base)), PIPELINE_GRID
        )
        (d / "reference.s2p").write_text(touchstone.write_touchstone(self.reference, "RI"))
        for k in range(items):
            cavities = base if k == 0 else [
                geometry.Cavity(
                    c.index,
                    c.width * float(rng.uniform(0.9, 1.1)),
                    c.length * float(rng.uniform(0.9, 1.1)),
                    c.thickness,
                    c.block_factor,
                )
                for c in base
            ]
            text = geometry.serialize_geometry(antenna, cavities)
            path = d / f"antenna-{k}.geo"
            path.write_text(text)
            self.geometry_texts.append(text)
            argv = [
                ["extract", "--geometry", path, "--out", d / "elements.csv"],
                ["build", "--elements", d / "elements.csv", "--out", self.ladder_path],
                ["simulate", "--netlist", self.ladder_path, "--fstart", "0.1e9",
                 "--fstop", "6e9", "--points", "1201", "--out", self.s2p, "--csv", self.csv,
                 "--format", self.format(k)],
                ["bandwidth", "--input", self.s2p, "--threshold", "-10"],
                ["compare", "--a", self.s2p, "--b", d / "reference.s2p", "--threshold", "-10"],
            ]
            self.argvs.append([[str(a) for a in args] for args in argv])

    @staticmethod
    def format(k: int) -> str:
        return PIPELINE_FORMATS[k % len(PIPELINE_FORMATS)]

    def warm_up(self) -> None:
        self.run(0)

    def run(self, k: int):
        codes, printed = [], []
        for argv in self.argvs[k]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
            printed.append(out.getvalue())
        return codes, printed

    def check(self, k: int, output) -> tuple[list[str], bool]:
        """Full check the first time; later passes must repeat those bytes."""
        codes, printed = output
        files = (self.ladder_path, self.s2p, self.csv)
        produced = hashlib.sha256(
            b"\0".join([repr(output).encode()] + [f.read_bytes() for f in files])
        ).digest()
        if self.verified.get(k) == produced:
            return [], True
        problems = self._problems(k, codes, printed)
        if not problems:
            self.verified[k] = produced
        return problems, not problems

    def _problems(self, k: int, codes, printed) -> list[str]:
        ladder = ladder_from_geometry(self.geometry_texts[k])
        trace = network.sweep(ladder, PIPELINE_GRID)
        report = analysis.band_report(trace, THRESHOLD_DB)
        problems = [
            f"{argv[0]} exited {code}"
            for argv, code in zip(self.argvs[k], codes)
            if code != 0 and not (argv[0] == "bandwidth" and code == 4 and not report.bands)
        ]
        if problems:
            return problems
        fmt = self.format(k)
        s2p = self.s2p.read_text()
        if self.ladder_path.read_text() != netlist.serialize(ladder):
            problems.append("netlist differs from the in-process build")
        if s2p != touchstone.write_touchstone(trace, fmt):
            problems.append(f"{fmt} .s2p differs from the in-process sweep")
        if fmt == "RI" and touchstone.write_touchstone(touchstone.read_touchstone(s2p), fmt) != s2p:
            problems.append(".s2p does not rewrite byte-identically")
        if self.csv.read_text() != touchstone.write_trace_csv(trace):
            problems.append("trace CSV differs from the in-process sweep")
        problems += band_report_problems(printed[3], report)
        similarity = analysis.compare_traces(trace, self.reference, THRESHOLD_DB)
        got = _key_values(printed[4])
        for key in ("band_agreement_percent", "mean_abs_db_deviation", "common_grid_points"):
            if key not in got or not _close(got[key], getattr(similarity, key)):
                problems.append(f"compare {key} = {got.get(key)}")
        if k == 0:
            snapshot = analysis.BandReport(
                (SNAPSHOT_BAND,), THRESHOLD_DB, 0, SNAPSHOT_EFFICIENCY, SNAPSHOT_MAX_VSWR
            )
            problems += [f"snapshot: {p}" for p in band_report_problems(printed[3], snapshot)]
        return problems


# --------------------------------------------------------------- tolerance

# The reference ladder: the feed line plus five resonators (R ohm, L H, C F).
REFERENCE_FEED = {"z0": 50.70748624138301, "eps_eff": 3.32599074017086, "len": 0.06}
REFERENCE_RESONATORS = (
    (3.3, 2.39e-9, 0.417e-12),
    (22.35, 3.28e-9, 1.09e-12),
    (20.0, 3.9e-9, 1.69e-12),
    (37.5, 5.15e-9, 2.1e-12),
    (35.5, 10e-9, 4.2e-12),
)
TOLERANCE_GRID = network.SweepGrid(0.1e9, 6e9, 20001)


class Tolerance:
    """Monte-Carlo component tolerance: every R/L/C drawn within +-10 %."""

    rate = 13.0
    passes = 15

    def __init__(self, seed: int, items: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.ladders = []
        for _ in range(items):
            sections = [netlist.Section("c0", "tline", dict(REFERENCE_FEED))]
            for k, values in enumerate(REFERENCE_RESONATORS, start=1):
                r, l, c = (v * float(rng.uniform(0.9, 1.1)) for v in values)
                sections.append(
                    netlist.Section(f"c{k}", "series_rl_shunt_c", {"R": r, "L": l, "C": c})
                )
            self.ladders.append(netlist.Netlist(*PORTS, tuple(sections)))
        self.frequencies = TOLERANCE_GRID.frequencies()

    def warm_up(self) -> None:
        self.run(0)

    def run(self, k: int):
        trace = network.sweep(self.ladders[k], TOLERANCE_GRID)
        return trace, analysis.band_report(trace, THRESHOLD_DB)

    def check(self, k: int, output) -> tuple[list[str], bool]:
        trace, report = output
        problems = []
        if not np.array_equal(trace.frequencies, self.frequencies):
            problems.append("sweep frequencies differ from the grid")
        for a, b in (("s11", "s21"), ("s22", "s12")):
            power = np.abs(getattr(trace, a)) ** 2 + np.abs(getattr(trace, b)) ** 2
            if not np.all(power <= 1.0 + 1e-9):
                problems.append(f"passivity: max |{a}|^2 + |{b}|^2 = {power.max()!r}")
        # each section is reciprocal (determinant 1), so s12 = s21 * det = s21
        if not np.all(np.abs(trace.s12 - trace.s21) <= 1e-9):
            problems.append("reciprocity: s12 != s21")
        db = trace.s11_db()
        f = trace.frequencies
        edges = [edge for band in report.bands for edge in band]
        if edges != sorted(edges) or (edges and (edges[0] < f[0] or edges[-1] > f[-1])):
            problems.append(f"bands not ordered inside the sweep: {report.bands}")
        for lo, hi in report.bands:
            inside = (f > lo) & (f < hi)
            below, above = np.flatnonzero(f < lo), np.flatnonzero(f > hi)
            if not np.all(db[inside] <= THRESHOLD_DB) or (
                below.size and db[below[-1]] <= THRESHOLD_DB
            ) or (above.size and db[above[0]] <= THRESHOLD_DB):
                problems.append(f"band ({lo}, {hi}) is not a maximal run below the threshold")
        if report.bands and not (
            0 < report.mismatch_efficiency_percent <= 100 and report.max_vswr_in_band >= 1
        ):
            problems.append("band figures of merit out of range")
        return problems, not problems


# --------------------------------------------------------------------- fit

FIT_CORPUS = 50  # trials in acceptance criterion 10's recovery corpus
FIT_GRID = network.SweepGrid(0.3e9, 6e9, 201)
RECOVERED = 0.05  # worst relative parameter error of a recovered trial


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def recovery_trial(index: int):
    """Trial ``index`` of criterion 10's corpus: (problem, generating netlist)."""
    rng = np.random.default_rng(1000 + index)
    n_sections = int(rng.integers(1, 4))
    sections = [
        netlist.Section(
            f"s{k}",
            "series_rl_shunt_c",
            {
                "R": _log_uniform(rng, 2.0, 40.0),
                "L": _log_uniform(rng, 2e-9, 1.2e-8),
                "C": _log_uniform(rng, 0.5e-12, 4e-12),
            },
        )
        for k in range(n_sections)
    ]
    truth = netlist.Netlist(*PORTS, tuple(sections))
    target = network.sweep(truth, FIT_GRID)
    candidates = [(f"s{k}", p) for k in range(n_sections) for p in ("L", "C")]
    rng.shuffle(candidates)
    free = tuple(candidates[: min(4, len(candidates))])
    perturbed = {
        (s, p): truth.section(s).params[p] * float(rng.uniform(0.5, 1.5)) for s, p in free
    }
    start = netlist.Netlist(
        truth.input_port_impedance,
        truth.output_port_impedance,
        tuple(
            netlist.Section(
                sec.name,
                sec.topology,
                {p: perturbed.get((sec.name, p), v) for p, v in sec.params.items()},
            )
            for sec in sections
        ),
    )
    bounds = tuple((v / 10.0, v * 10.0) for v in perturbed.values())
    problem = fitting.FitProblem(
        start, free, bounds, target, FIT_GRID,
        max_iterations=800, tolerance=1e-14, seed=index, restarts=3,
    )
    return problem, truth


class Fit:
    """Synthetic recovery: fit perturbed L/C values back to the generating ladder.

    The corpus is criterion 10's, fixed, so every run does identical
    work; the seed sets the order in which its trials run.
    """

    rate = 1.17
    passes = 7

    def __init__(self, seed: int, items: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(items)
        self.trials = [recovery_trial(int(k) % FIT_CORPUS) for k in order]

    def warm_up(self) -> None:
        problem = self.trials[0][0]
        fitting.cost(problem.netlist, problem.target, problem.grid)

    def run(self, k: int):
        return fitting.fit(self.trials[k][0])

    def check(self, k: int, result) -> tuple[list[str], bool]:
        problem, truth = self.trials[k]
        problems = []
        worst = 0.0
        for (s, p), (lo, hi) in zip(problem.free_parameters, problem.bounds):
            value = result.parameters[f"{s}.{p}"]
            if not (math.isfinite(value) and lo <= value <= hi):
                problems.append(f"{s}.{p} = {value!r} outside ({lo}, {hi})")
            elif result.netlist.section(s).params[p] != value:
                problems.append(f"{s}.{p} differs between the result and its netlist")
            worst = max(worst, abs(value / truth.section(s).params[p] - 1.0))
        if not result.final_cost <= result.initial_cost:
            problems.append(f"final cost {result.final_cost!r} above initial")
        return problems, not problems and worst <= RECOVERED


WORKLOADS = {"pipeline": Pipeline, "fit": Fit, "tolerance": Tolerance}
