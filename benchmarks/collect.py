"""Repeat the benchmark over several seeds and summarise each metric.

Run from the root of a checkout:

    python3 benchmarks/collect.py --seeds 10 [--workload fit] [--out benchmarks/baseline.json]

Each workload runs once per seed (1..N) with ``--trace 0``, one run at a
time, for BENCHMARK.json's ``run_seconds``. For every end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread, the distance between the quartiles as a share of the median,
next to the metric's bound. With ``--out`` it also makes one traced run
per workload (seed 1) and writes medians, quartiles and per-layer values
to a JSON file. With ``--against`` it compares each median with the one
in an earlier such file and flags any that is worse by more than the
metric's bound. The exit code is 1 if a spread reaches a third of its
bound or a median is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run's result line and its run facts."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(command)} failed checks:\n{done.stdout}")
    facts = next(json.loads(line[6:]) for line in lines if line.startswith("facts "))
    return result, facts


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write a baseline JSON file here")
    parser.add_argument("--against", type=Path, help="compare medians with this baseline")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    baseline = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        started = time.perf_counter()
        runs = []
        for seed in range(1, args.seeds + 1):
            result, facts = run_once(spec, workload, seed, 0)
            runs.append(result)
        baseline["facts"] = dict(facts, seed=None)
        print(f"{workload:10s} {args.seeds} runs in {time.perf_counter() - started:.0f} s",
              flush=True)
        summary = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarise([r["metrics"][name]["value"] for r in runs])
            summary[name] = dict(stats, unit=metric["unit"], bound=metric["bound"])
            ok = stats["spread"] < metric["bound"] / 3
            steady &= ok
            line = (f"{workload:10s} {name:14s} median {stats['median']:12.6g} "
                    f"{metric['unit']:6s} spread {stats['spread']:7.4f} "
                    f"bound {metric['bound']:.2f} {'ok' if ok else 'WIDE'}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                change = stats["median"] / before - 1 if before else 0.0
                worse = -change if metric["better"] == "higher" else change
                steady &= worse <= metric["bound"]
                line += (f"  vs {before:.6g}: {change:+.3f}"
                         f" {'ok' if worse <= metric['bound'] else 'WORSE'}")
            print(line, flush=True)
        entry = {"end_to_end": summary}
        if args.out:
            traced, _ = run_once(spec, workload, 1, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
