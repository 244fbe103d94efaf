"""Span tracing of rfladder's public functions, from outside the package.

Each wrapped function records one span per call: name, start, end, the
index of the span that caused it, the item being run, and a count taken
from the call (bytes, sweep points or fit iterations). Wrappers replace
the module attribute that the caller looks up at call time, so a call
from ``cli`` or ``fitting`` into another module is seen without any
change under ``src/``. Spans stay in memory and are written out when the
run ends. Work inside a wrapped function that is not itself wrapped
(``sinum.format_bare`` inside the Touchstone writer, for one) counts as
that function's own time.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from rfladder import analysis, cli, elements, fitting, geometry, netlist, network, touchstone


def _text_size(args, result):
    return len(args[0])


def _result_size(args, result):
    return len(result)


def _iterations(args, result):
    return result.iterations


def _cli_name(args):
    return f"cli.main.{args[0][0]}"


# (module, attribute, span name or name function, count function)
PATCHES = (
    (cli, "main", _cli_name, None),
    (cli, "sweep", "network.sweep", _result_size),
    (fitting, "fit", "fitting.fit", _iterations),
    (fitting, "cost", "fitting.cost", None),
    (fitting, "sweep", "network.sweep", _result_size),
    (network, "sweep", "network.sweep", _result_size),
    (network, "netlist_abcd_array", "network.netlist_abcd_array", None),
    (geometry, "parse_geometry_file", "geometry.parse", None),
    (elements, "extract_all", "elements.extract", None),
    (elements, "elements_to_csv", "elements.csv", None),
    (elements, "elements_from_csv", "elements.csv", None),
    (netlist, "parse", "netlist.parse", None),
    (netlist, "serialize", "netlist.serialize", None),
    (touchstone, "write_touchstone", "touchstone.write", _result_size),
    (touchstone, "read_touchstone", "touchstone.read", _text_size),
    (touchstone, "write_trace_csv", "touchstone.csv_write", _result_size),
    (analysis, "band_report", "analysis.band_report", None),
    (analysis, "compare_traces", "analysis.compare", None),
)

CLI_COMMANDS = ("extract", "build", "simulate", "bandwidth", "compare")


@contextlib.contextmanager
def patched(bindings, wrap):
    """Replace each (module, attribute) binding k by ``wrap(k, original)`` meanwhile."""
    originals = [getattr(module, attr) for module, attr in bindings]
    try:
        for k, ((module, attr), fn) in enumerate(zip(bindings, originals)):
            setattr(module, attr, wrap(k, fn))
        yield
    finally:
        for (module, attr), fn in zip(bindings, originals):
            setattr(module, attr, fn)


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, item id, count)
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._item = -1

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            label = name(args) if callable(name) else name
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (label, start, time.perf_counter_ns(), parent, self._item, 0)
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            spans[index] = (
                label, start, end, parent, self._item, count(args, result) if count else 0
            )
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, item: int):
        """Replace the traced bindings for the duration of one item."""
        self._item = item
        try:
            with patched(
                [(module, attr) for module, attr, _, _ in PATCHES],
                lambda k, fn: self._wrap(PATCHES[k][2], fn, PATCHES[k][3]),
            ):
                yield
        finally:
            self._item = -1

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,item,count\n")
            for k, (name, start, end, parent, item, count) in enumerate(self.spans):
                fh.write(f"{k},{name},{start},{end},{parent},{item},{count}\n")


def layer_metrics(
    spans, untraced_s: float, traced_s: float, solved_ratio: float
) -> dict[str, float]:
    """Per-layer figures from one run's spans, its run times and solved ratio.

    Every ``_ms`` figure is the mean duration of one call; a self time is
    a span's duration minus the durations of its direct children.
    """
    total_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(int)
    child_ns = defaultdict(int)  # span index -> time covered by its children
    for name, start, end, parent, _, count in spans:
        total_ns[name] += end - start
        calls[name] += 1
        counts[name] += count
        if parent >= 0:
            child_ns[parent] += end - start

    def mean_ms(name):
        return total_ns[name] / calls[name] / 1e6 if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def per_second(amount, ns):
        return amount / (ns / 1e9) if ns else 0.0

    cli_self_ns = cli_calls = 0
    sweep_in_cost_ns = 0
    for k, (name, start, end, parent, _, _) in enumerate(spans):
        if name.startswith("cli.main."):
            cli_self_ns += end - start - child_ns[k]
            cli_calls += 1
        elif name == "network.sweep" and parent >= 0 and spans[parent][0] == "fitting.cost":
            sweep_in_cost_ns += end - start

    metrics = {f"cli.main_ms.{cmd}": mean_ms(f"cli.main.{cmd}") for cmd in CLI_COMMANDS}
    metrics["cli.self_ms"] = cli_self_ns / cli_calls / 1e6 if cli_calls else 0.0
    for metric, name in (
        ("geometry.parse_ms", "geometry.parse"),
        ("elements.extract_ms", "elements.extract"),
        ("elements.csv_ms", "elements.csv"),
        ("netlist.parse_ms", "netlist.parse"),
        ("netlist.serialize_ms", "netlist.serialize"),
        ("touchstone.write_ms", "touchstone.write"),
        ("touchstone.read_ms", "touchstone.read"),
        ("touchstone.csv_write_ms", "touchstone.csv_write"),
        ("network.sweep_ms", "network.sweep"),
        ("analysis.band_report_ms", "analysis.band_report"),
        ("analysis.compare_ms", "analysis.compare"),
        ("fitting.cost_ms", "fitting.cost"),
        ("fitting.fit_ms", "fitting.fit"),
    ):
        metrics[metric] = mean_ms(name)
    for metric, name in (
        ("touchstone.write_mb_per_s", "touchstone.write"),
        ("touchstone.read_mb_per_s", "touchstone.read"),
    ):
        metrics[metric] = per_second(counts[name] / 1e6, total_ns[name])
    metrics["network.sweep_calls"] = calls["network.sweep"]
    metrics["network.points_per_s"] = per_second(
        counts["network.sweep"], total_ns["network.sweep"]
    )
    metrics["network.abcd_share"] = ratio(
        total_ns["network.netlist_abcd_array"], total_ns["network.sweep"]
    )
    trials = calls["fitting.fit"]
    metrics["fitting.cost_calls_per_trial"] = ratio(calls["fitting.cost"], trials)
    metrics["fitting.iterations_per_trial"] = ratio(counts["fitting.fit"], trials)
    metrics["fitting.sweep_share_of_cost"] = ratio(sweep_in_cost_ns, total_ns["fitting.cost"])
    metrics["fitting.optimizer_self_share"] = ratio(
        total_ns["fitting.fit"] - total_ns["fitting.cost"], total_ns["fitting.fit"]
    )
    metrics["fitting.recovered_ratio"] = solved_ratio if trials else 0.0
    # traced items/s over untraced items/s, for the same items
    metrics["trace_overhead_ratio"] = ratio(untraced_s, traced_s)
    return metrics
