"""Hypothesis fuzzing of the text formats and the command line.

The property everywhere: a library call lets only ``RfLadderError``
subclasses escape, and ``cli.main`` returns 0, 2, 3 or 4 (or argparse
exits with 2). Number tokens come from a small set of edge values so
that each failure mode is reached in a few examples.
"""

import itertools
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rfladder import cli, elements, geometry, netlist, touchstone
from rfladder.errors import RfLadderError
from rfladder.network import SParameterTrace, SweepGrid, sweep

EDGE_NUMBERS = ["0", "-1", "-4.4", "1e300", "-1e300", "1e-300", "nan", "inf", "-inf"]
ORDINARY_NUMBERS = ["4.4", "1.7e-3", "62e-3", "2.5e9", "-10", "50"]
NUMBER_VALUES = EDGE_NUMBERS + ORDINARY_NUMBERS
NUMBERS = st.sampled_from(NUMBER_VALUES)
TOKENS = NUMBERS | st.sampled_from(["x", "", "=", "1e", "2.39n", "7mm", "1e-300G", "#"])

CANONICAL_GEOMETRY = geometry.serialize_geometry(
    geometry.canonical_geometry(), geometry.canonical_cavities()
)
CANONICAL_ELEMENTS = elements.elements_to_csv(
    geometry.canonical_cavities(),
    elements.extract_all(geometry.canonical_cavities(), geometry.canonical_substrate()),
)
SMALL_NETLIST = (
    "port in z0=50\nport out z0=4.5\n"
    "section c0 topology=tline z0=50.7 eps_eff=3.3 len=60m\n"
    "section s1 topology=series_rl_shunt_c R=5 L=3n C=1p\n"
    "section s2 topology=shunt_parallel_rlc R=100 L=8n C=2p\n"
)


# a value field: what follows a '=' (with or without spaces), or any CSV field
VALUE_FIELDS = {" ": re.compile(r"=\s*(\S*)"), ",": re.compile(r"(?:^|,)([^,]*)")}


@st.composite
def mutated(draw, text, sep):
    """`text` with one to three lines dropped, doubled, replaced by noise,
    or with one value field swapped for a drawn token; the rest stays
    well-formed. Few parse and so reach the code behind the parser: of
    the distinct texts in 3,000 draws, 5 % of the geometry files, 9 % of
    the netlists and 14 % of the elements CSVs."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["value", "value", "value", "drop", "twice", "noise"]))
        if action == "drop":
            del lines[k]
        elif action == "twice":
            lines.insert(k, lines[k])
        elif action == "noise":
            lines[k] = sep.join(draw(st.lists(TOKENS, max_size=5)))
        else:
            values = list(VALUE_FIELDS[sep].finditer(lines[k]))
            if values:
                start, end = draw(st.sampled_from(values)).span(1)
                lines[k] = lines[k][:start] + draw(TOKENS) + lines[k][end:]
        if not lines:
            break
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=150, deadline=None)
@given(mutated(SMALL_NETLIST, " "))
@example(SMALL_NETLIST.replace("len=60m", "len=1e300"))  # the line's tables overflow
def test_fuzz_netlist_parse_serialize_sweep(text):
    try:
        ladder = netlist.parse(text)
        assert netlist.parse(netlist.serialize(ladder)) == ladder
        sweep(ladder, SweepGrid(1e9, 2e9, 5))
    except RfLadderError:
        pass


@settings(max_examples=150, deadline=None)
@given(mutated(CANONICAL_GEOMETRY, " "))
def test_fuzz_geometry_parse_and_extract(text):
    try:
        doc = geometry.parse_geometry_file(text)
        elements.extract_all(list(doc.cavities), doc.geometry.substrate)
    except RfLadderError:
        pass


@settings(max_examples=150, deadline=None)
@given(mutated(CANONICAL_ELEMENTS, ","))
def test_fuzz_elements_csv_parse_and_build(text):
    try:
        rows = elements.elements_from_csv(text)
        netlist.from_elements([row.elements for row in rows])
    except RfLadderError:
        pass


NOT_UTF8 = "utf16.txt"
DIRECTORY = "outdir"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small valid input files for every subcommand, written once, plus a
    file that is not UTF-8 and a directory where an output file may be named."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / NOT_UTF8).write_bytes("# Hz S RI R 50\n".encode("utf-16"))
    (root / DIRECTORY).mkdir()
    (root / "elements.csv").write_text(CANONICAL_ELEMENTS)
    (root / "ladder.net").write_text(SMALL_NETLIST)
    start = SMALL_NETLIST.replace("L=3n", "L=3.9n").replace("C=1p", "C=1.3p")
    (root / "start.net").write_text(start)
    target = sweep(netlist.parse(SMALL_NETLIST), SweepGrid(0.5e9, 6e9, 41))
    one_port = SParameterTrace(target.frequencies, target.s11)
    (root / "target.s1p").write_text(touchstone.write_touchstone(one_port))
    (root / "exact.s1p").write_text(
        "# Hz S RI R 50\n1e9 0.31622776601683794 0\n4.9e9 0.917875900218441 0\n"
    )
    for k, value in enumerate(NUMBER_VALUES):
        for key in "Wd":
            (root / f"{key}{k}.geo").write_text(CANONICAL_GEOMETRY + f"cavity 1 {key}={value}\n")
    return root


POINTS = st.sampled_from(["-1", "0", "1", "2", "11", "201", "2001"])
SMALL_INTS = st.sampled_from(["-1", "0", "1", "2"])


def option(name, values):
    """Either nothing or ``[name, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name, *itertools.chain.from_iterable(ps)])


def argv_for(root):
    def path(flag, *names, odd):
        """``[flag, path]`` to one of `names`, or one draw in four to `odd`."""
        choices = names * 3 + (odd,) * len(names)
        return st.sampled_from(choices).map(lambda name: [flag, str(root / name)])

    fuzzed_geometry = st.tuples(st.sampled_from("Wd"), st.integers(0, len(NUMBER_VALUES) - 1))
    geometry_file = fuzzed_geometry.map(lambda t: f"{t[0]}{t[1]}.geo") | st.just(NOT_UTF8)
    return {
        "extract": command(
            "extract",
            option("--geometry", geometry_file.map(lambda name: str(root / name))),
            option("--frequency", NUMBERS),
            path("--out", "out.csv", odd=DIRECTORY),
        ),
        "microstrip": command(
            "microstrip",
            NUMBERS.map(lambda v: ["--width", v]),
            NUMBERS.map(lambda v: ["--height", v]),
            NUMBERS.map(lambda v: ["--er", v]),
        ),
        "build": command(
            "build",
            path("--elements", "elements.csv", odd=NOT_UTF8),
            option("--ports", st.tuples(NUMBERS, NUMBERS).map(",".join)),
            option("--er", NUMBERS),
            option("--height", NUMBERS),
            option("--feed-len", NUMBERS),
            path("--out", "out.net", odd=DIRECTORY),
        ),
        "simulate": command(
            "simulate",
            path("--netlist", "ladder.net", odd=NOT_UTF8),
            option("--fstart", NUMBERS),
            option("--fstop", NUMBERS),
            option("--points", POINTS),
            option("--format", st.sampled_from(touchstone.VALUE_FORMATS)),
            path("--out", "out.s1p", "out.s2p", odd=DIRECTORY),
        ),
        "bandwidth": command(
            "bandwidth",
            path("--input", "target.s1p", "exact.s1p", odd=NOT_UTF8),
            option("--threshold", NUMBERS),
        ),
        "compare": command(
            "compare",
            path("--a", "target.s1p", "exact.s1p", odd=NOT_UTF8),
            path("--b", "target.s1p", "exact.s1p", odd=NOT_UTF8),
            option("--threshold", NUMBERS),
        ),
        "fit": command(
            "fit",
            path("--netlist", "start.net", odd=NOT_UTF8),
            path("--target", "target.s1p", odd=NOT_UTF8),
            st.sampled_from(["s1.L,s1.C", "s2.R"]).map(lambda v: ["--vary", v]),
            st.sampled_from(["-1", "0", "1", "5"]).map(lambda v: ["--max-iter", v]),
            option("--restarts", SMALL_INTS),
            option("--seed", SMALL_INTS),
            option("--tol", NUMBERS),
            option("--bounds-factor", NUMBERS),
            option("--fstart", NUMBERS),
            option("--fstop", NUMBERS),
            option("--points", POINTS),
            path("--out", "fitted.net", odd=DIRECTORY),
        ),
    }


@pytest.mark.parametrize(
    "name", ["extract", "microstrip", "build", "simulate", "bandwidth", "compare", "fit"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_fuzz_cli_exit_codes(inputs, name, data):
    argv = data.draw(argv_for(inputs)[name])
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return
    assert code in (0, 2, 3, 4), argv
    assert not list(inputs.glob(".rfladder-*")), argv
