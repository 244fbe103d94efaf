"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def _shift_band_edge(printed: str) -> str:
    lines = []
    for line in printed.splitlines():
        key, _, value = line.partition(" = ")
        if key == "band0_high_hz":
            line = f"{key} = {float(value) * (1 + 1e-6)!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    run.use_checkout_sources()
    import workloads

    pipeline = workloads.Pipeline(seed=3, items=2, workdir=tmp_path)
    *_, failures, solved = run.measure(pipeline, 2, 1)
    assert failures == [] and solved == 2

    original = pipeline.run

    def shifted(k):
        codes, printed = original(k)
        printed[3] = _shift_band_edge(printed[3])
        return codes, printed

    monkeypatch.setattr(pipeline, "run", shifted)
    *_, failures, solved = run.measure(pipeline, 2, 1)
    assert [k for k, _, _ in failures] == [0, 1] and solved == 0
    assert any("band0_high_hz" in p for p in failures[0][2])


def test_tail_percentile_leaves_ten_samples_above():
    for n, p in ((1, 50), (19, 50), (36, 72), (480, 97), (540, 98)):
        assert run.tail_percentile(n) == p
        if p > 50:
            assert n * (1 - p / 100) >= 10


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_item_time_is_the_median_of_its_runs():
    import numpy as np

    seconds = np.array([[1.0, 3.0], [2.0, np.nan], [5.0, 2.0]])
    times = run.item_times(seconds)
    assert times[0] == 2.0 and np.isnan(times[1])
