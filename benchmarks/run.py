"""rfladder benchmark: one workload, one seed, one JSON line of metrics.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` runs every item untraced in each of the workload's passes
and reports the end-to-end metrics; ``--trace 1`` runs each item once
untraced and once traced and reports the per-layer metrics. The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the run facts and each metric with its unit. See
README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"

# One thread: set before numpy is imported, recorded with every result.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 11  # fresh interpreters, spread over the run, whose median is setup_s
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def use_checkout_sources() -> None:
    """Import rfladder from this checkout's ``src``, and only from there."""
    src = ROOT / "src"
    if not (src / "rfladder" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'rfladder'} not found; run from a full checkout")
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path[:0] = [str(src), str(HERE)]


def items_for(workload_cls, seconds: float, passes: int) -> int:
    """Fixed item count: the baseline rate times the requested seconds, over the passes."""
    return max(1, round(seconds * workload_cls.rate / passes))


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves TAIL_BEYOND samples above it (at least 50)."""
    return max(50, math.floor(100 * (1 - TAIL_BEYOND / n))) if n else 50


def run_facts(seed: int) -> dict:
    import numpy

    facts = {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": None,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        facts["caches"][f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            facts["commit"] = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return facts


def set_up(name: str, seed: int, items: int, workdir: Path):
    """Import, generate the seeded inputs and warm up; the work setup_s times."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, items, workdir)
    workload.warm_up()
    return workload


def setup_once(name: str, seed: int, seconds: float) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up run failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def measure(workload, items: int, passes: int, tracer=None, aside=None):
    """Run and check every item once per pass, one pass after another.

    With a tracer, alternate runs of an item (offset by item) are traced.
    ``aside(r)``, if given, is called before the r-th run, untimed.
    Returns each run's seconds as a (passes, items) array, NaN where the
    item raised; a (passes, items) array marking the traced runs; the
    failures as (item, pass, problems); and the number of items solved in
    every pass.
    """
    import numpy as np

    seconds = np.full((passes, items), np.nan)
    traced = np.zeros((passes, items), dtype=bool)
    solved = np.ones(items, dtype=bool)
    failures = []
    for p in range(passes):
        for k in range(items):
            if aside is not None:
                aside(p * items + k)
            traced[p, k] = tracer is not None and (p + k) % 2 == 1
            try:
                with tracer.installed(k) if traced[p, k] else contextlib.nullcontext():
                    start = time.perf_counter()
                    output = workload.run(k)
                    seconds[p, k] = time.perf_counter() - start
                problems, good = workload.check(k, output)
            except Exception as exc:  # an item that raises is counted, not fatal
                problems, good = [f"raised {exc!r}"], False
            if problems:
                failures.append((k, p, problems))
            solved[k] &= good
    return seconds, traced, failures, int(solved.sum())


def item_times(seconds):
    """Each item's time: the median of its runs over the passes.

    The reference machine is shared, and code on it runs in a fast and a
    slow mode about 1.5x apart, switching every few seconds.
    The median of an item's runs, spread over the whole run, follows the
    mode most of the time is spent in; in the same runs it spread about
    half as much from run to run as the fastest run did, which follows
    how many fast moments a run happened to catch. Items whose passes
    raised get NaN.
    """
    import numpy as np

    return np.median(seconds, axis=0)


def end_to_end(item_seconds, solved: int, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end figures from each item's time (see item_times)."""
    import numpy as np

    done = item_seconds[np.isfinite(item_seconds)]
    total = float(done.sum())
    p = tail_percentile(len(done))
    tail = float(np.percentile(done, p)) if len(done) else math.nan
    metrics = {
        "setup_s": float(np.median(setup)),
        "items_per_s": len(done) / total if total else math.nan,
        "item_ms_p50": float(np.median(done)) * 1e3 if len(done) else math.nan,
        "item_ms_tail": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_ratio": solved / len(item_seconds),
        "s_per_solved": total / solved if solved else math.nan,
    }
    notes = {
        "tail_percentile": p,
        "tail_beyond": int(np.sum(done > tail)) if len(done) else 0,
        "setup_samples_s": setup,
    }
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "fit", "tolerance"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the item count: seconds times the baseline rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_checkout_sources()
    from workloads import WORKLOADS

    passes = 2 if args.trace else WORKLOADS[args.workload].passes
    items = items_for(WORKLOADS[args.workload], args.seconds, passes)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, items, workdir)
            print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
            return 0
        workload = set_up(args.workload, args.seed, items, workdir)
        facts = run_facts(args.seed)
        tracer, aside, setup = None, None, []
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        else:
            # set-up samples spread evenly over the runs, so that their
            # median is taken over the machine's fast and slow moments alike
            marks = [j * passes * items // SETUP_REPEATS for j in range(SETUP_REPEATS)]

            def aside(r):
                for _ in range(marks.count(r)):
                    setup.append(setup_once(args.workload, args.seed, args.seconds))

        seconds, traced, failures, solved = measure(workload, items, passes, tracer, aside)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = passes * items
    failed_items = len({k for k, _, _ in failures})
    if args.trace:
        from tracing import layer_metrics

        metrics = layer_metrics(
            tracer.spans, float(seconds[~traced].sum()), float(seconds[traced].sum()),
            solved / items,
        )
        spans = WORK / f"{args.workload}-seed{args.seed}-spans.csv"
        tracer.write_csv(spans)
        notes = {"span_file": str(spans), "spans": len(tracer.spans)}
    else:
        metrics, notes = end_to_end(item_times(seconds), solved, setup)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    metrics = {name: metrics[name] for name in units}
    record = {
        "workload": args.workload,
        "items": items,
        "trace": args.trace,
        "facts": facts,
        "notes": notes,
        "failures": [{"item": k, "pass": p, "problems": f} for k, p, f in failures[:20]],
    }
    print("facts " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}: {items} items, trace {args.trace}, "
          f"{len(failures)} of {attempted} runs failed")
    for k, p, problems in failures[:5]:
        print(f"  item {k} pass {p}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if args.workload == "fit" and not args.trace:
        print(f"  fit_recovered_ratio = solved_ratio {metrics['solved_ratio']:.6g} ratio")
        print(f"  fit_s_per_recovered = s_per_solved {metrics['s_per_solved']:.6g} s")
    if not args.trace:
        print(f"  item_ms_tail is p{notes['tail_percentile']} with "
              f"{notes['tail_beyond']} of {items} items above it")
        print(f"  failed_ratio {failed_items / items:.6g} ({failed_items} of {items} items)")
    WORK.mkdir(exist_ok=True)
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=1, sort_keys=True)
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
