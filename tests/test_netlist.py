import pickle

import numpy as np
import pytest

from conftest import random_netlist, reference_ladder
from rfladder import netlist as nl
from rfladder.elements import LumpedElements

EXAMPLE = (
    "port in z0=50\n"
    "port out z0=4.5\n"
    "section s1 topology=series_rl_shunt_c R=3.3 L=2.39n C=0.417p\n"
)


def test_parse_example():
    net = nl.parse(EXAMPLE)
    assert net.input_port_impedance == 50.0
    assert net.output_port_impedance == 4.5
    assert len(net.sections) == 1
    section = net.sections[0]
    assert section.name == "s1"
    assert section.topology == "series_rl_shunt_c"
    assert section.params == {"R": 3.3, "L": 2.39e-9, "C": 4.17e-13}


def test_comments_blanks_and_order():
    text = "# a ladder\n\nport in z0=50 # input\nsection a topology=series_rlc R=1\nport out z0=50\nsection b topology=series_rlc R=2\n"
    net = nl.parse(text)
    assert [s.name for s in net.sections] == ["a", "b"]


def test_round_trip_identity():
    net = nl.parse(EXAMPLE)
    assert nl.parse(nl.serialize(net)) == net


def test_round_trip_reference_ladder():
    net = reference_ladder()
    assert nl.parse(nl.serialize(net)) == net


def test_round_trip_random_corpus():
    rng = np.random.default_rng(7)
    for _ in range(200):
        net = random_netlist(rng)
        text = nl.serialize(net)
        assert nl.parse(text) == net
        assert nl.serialize(nl.parse(text)) == text  # idempotent


def test_parse_scientific_notation_values():
    net = nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc L=2.39e-9\n")
    assert net.sections[0].params["L"] == 2.39e-9
    net = nl.parse("port in z0=5e1\nport out z0=50\n")
    assert net.input_port_impedance == 50.0


def test_serialize_suffix_normalization():
    net = nl.Netlist(50.0, 4.5, (nl.Section("s1", "series_rlc", {"L": 2.39e-9}),))
    assert "L=2.39n" in nl.serialize(net)
    net = nl.Netlist(50.0, 4.5, (nl.Section("s1", "series_rlc", {"C": 4.2e-12}),))
    assert "C=4.2p" in nl.serialize(net)


def test_serialize_alphabetical_params():
    net = nl.parse(EXAMPLE)
    line = nl.serialize(net).splitlines()[-1]
    assert line == "section s1 topology=series_rl_shunt_c C=417f L=2.39n R=3.3"


def test_ports_required_exactly_once():
    with pytest.raises(nl.MissingPort):
        nl.parse("port in z0=50\n")
    with pytest.raises(nl.MissingPort):
        nl.parse("port out z0=50\n")
    with pytest.raises(nl.DuplicatePort) as err:
        nl.parse("port in z0=50\nport in z0=75\nport out z0=50\n")
    assert err.value.line == 2


def test_errors_raised_at_one_site_keep_their_messages():
    with pytest.raises(nl.BadValueSuffix, match=r"^line 3: bad value '1x2'$"):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc R=1x2\n")
    with pytest.raises(nl.DuplicatePort, match=r"^line 2: port 'in' declared twice$"):
        nl.parse("port in z0=50\nport in z0=75\nport out z0=50\n")
    with pytest.raises(nl.MissingPort, match=r"^missing 'port out' declaration$") as err:
        nl.parse("port in z0=50\n")
    assert err.value.line is None
    with pytest.raises(nl.MissingRequiredParameter,
                       match=r"^line 3: missing required parameter 'one of R, L, C'$"):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=shunt_series_rlc\n")


def test_empty_sections_allowed():
    net = nl.parse("port in z0=50\nport out z0=4.5\n")
    assert net.sections == ()


def test_netlist_keeps_its_own_tuple_of_sections():
    a = nl.Section("a", "series_rlc", {"R": 1.0})
    sections = [a]
    net = nl.Netlist(50.0, 50.0, sections)
    sections.append(a)  # would duplicate its name
    assert net.sections == (a,)
    assert nl.parse(nl.serialize(net)) == net


def test_unknown_topology():
    with pytest.raises(nl.UnknownTopology) as err:
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=magic R=1\n")
    assert err.value.topology == "magic"
    assert err.value.line == 3


def test_bad_value_suffix():
    with pytest.raises(nl.BadValueSuffix) as err:
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc R=1x2\n")
    assert err.value.line == 3
    with pytest.raises(nl.BadValueSuffix):
        nl.parse("port in z0=abc\nport out z0=50\n")


def test_duplicate_section_name():
    text = (
        "port in z0=50\nport out z0=50\n"
        "section s topology=series_rlc R=1\nsection s topology=series_rlc R=2\n"
    )
    with pytest.raises(nl.DuplicateSectionName) as err:
        nl.parse(text)
    assert err.value.line == 4


def test_tline_forbidden_then_missing():
    # a forbidden parameter is reported before the missing ones
    with pytest.raises(nl.ForbiddenParameter) as err:
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=tline R=5\n")
    assert err.value.parameter == "R"
    with pytest.raises(nl.MissingRequiredParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=tline z0=50 len=0.06\n")


def test_resonator_requires_l_and_c():
    with pytest.raises(nl.MissingRequiredParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rl_shunt_c L=1n\n")


def test_rlc_topology_requires_some_element():
    with pytest.raises(nl.MissingRequiredParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc\n")


def test_rlc_forbids_tline_parameters():
    with pytest.raises(nl.ForbiddenParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc R=1 len=0.1\n")


def test_non_positive_values_rejected():
    with pytest.raises(nl.NonPositiveParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc R=-1\n")
    with pytest.raises(nl.NonPositiveParameter):
        nl.parse("port in z0=0\nport out z0=50\n")
    with pytest.raises(nl.NonPositiveParameter):
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=tline z0=50 eps_eff=0.5 len=0\n")


def test_a_non_positive_parameter_names_itself_and_its_line():
    with pytest.raises(nl.NonPositiveParameter) as err:
        nl.parse("port in z0=50\nport out z0=50\nsection s topology=series_rlc R=-1\n")
    assert (err.value.parameter, err.value.line) == ("R", 3)


def test_tline_len_zero_is_valid():
    net = nl.parse(
        "port in z0=50\nport out z0=50\nsection s topology=tline z0=50 eps_eff=1 len=0\n"
    )
    assert net.sections[0].params["len"] == 0.0


@pytest.mark.parametrize(
    "line",
    [
        "bogus line",
        "port sideways z0=50",
        "port in 50",
        "section onlyname",
        "section s series_rlc R=1",
        "section s topology=series_rlc R",
        "section s topology=series_rlc Q=1",
        "section s topology=series_rlc R=1 R=2",
        "section 9bad topology=series_rlc R=1",
    ],
)
def test_malformed_lines_carry_line_number(line):
    text = f"port in z0=50\nport out z0=50\n{line}\n"
    with pytest.raises(nl.MalformedLine) as err:
        nl.parse(text)
    assert err.value.line == 3


def test_grammar_totality_random_junk():
    # every junk line is rejected with a located error, never swallowed
    junk = ["@#$%", "ports in z0=50", "section", "cavity 1 W=3", "topology=tline"]
    for k, line in enumerate(junk):
        with pytest.raises(nl.NetlistError) as err:
            nl.parse(f"port in z0=50\nport out z0=50\n{line}\n")
        assert getattr(err.value, "line", None) == 3, line


def test_netlist_type_validation():
    with pytest.raises(nl.NonPositiveParameter):
        nl.Netlist(0.0, 50.0)
    with pytest.raises(nl.NonPositiveParameter):
        nl.Netlist(50.0, float("inf"))
    a = nl.Section("dup", "series_rlc", {"R": 1.0})
    b = nl.Section("dup", "series_rlc", {"R": 2.0})
    with pytest.raises(nl.DuplicateSectionName):
        nl.Netlist(50.0, 50.0, (a, b))
    with pytest.raises(nl.MalformedLine, match="bad section name '1a'"):
        nl.Section("1a", "series_rlc", {"R": 1.0})


def test_section_keeps_its_own_copy_of_params():
    # the plain floats, then an int, a 0-d array and a numpy float
    for r, l, c, z0 in ((None, 1e-9, 1e-12, 50.0),
                        (5, np.array(1e-9), np.float64(1e-12), np.array(50.0))):
        params = {"L": l, "C": c, **({} if r is None else {"R": r})}
        section = nl.Section("a", "series_rl_shunt_c", params)
        net = nl.Netlist(z0, 50, (section,))
        # after the checks ran: the section and the netlist hold the floats they saw
        params["L"] = -5e-9
        for value in (l, z0):
            if isinstance(value, np.ndarray):
                value[...] = -value
        assert section.params == {"L": 1e-9, "C": 1e-12, **({} if r is None else {"R": 5.0})}
        assert (net.input_port_impedance, net.output_port_impedance) == (50.0, 50.0)
        values = [*section.params.values(), net.input_port_impedance, net.output_port_impedance]
        assert all(type(v) is float for v in values)
        assert nl.parse(nl.serialize(net)) == net
        assert pickle.loads(pickle.dumps(section)) == section


def test_section_lookup():
    net = reference_ladder()
    assert net.section("c3").params["L"] == 3.9e-9
    with pytest.raises(nl.NetlistError):
        net.section("nope")


def _reference_elements():
    rows = [LumpedElements(1.4e-15, None, None, 0)]
    values = [
        (0.417e-12, 2.39e-9, 3.3),
        (1.09e-12, 3.28e-9, 22.35),
        (1.69e-12, 3.9e-9, 20.0),
        (2.1e-12, 5.15e-9, 37.5),
        (4.2e-12, 10e-9, 35.5),
    ]
    rows += [LumpedElements(c, l, r, k + 1) for k, (c, l, r) in enumerate(values)]
    return rows


def test_from_elements_full_ladder():
    feed = nl.FeedLine(50.70748624138301, 3.32599074017086, 0.06)
    net = nl.from_elements(_reference_elements(), feed)
    assert (net.input_port_impedance, net.output_port_impedance) == (50.0, 4.5)
    assert len(net.sections) == 6
    assert net.sections[0].topology == "tline"
    assert net.sections[0].params["len"] == 0.06
    assert [s.name for s in net.sections] == [f"c{k}" for k in range(6)]
    for section in net.sections[1:]:
        assert section.topology == "series_rl_shunt_c"
    assert net.sections[5].params == {"R": 35.5, "L": 1e-8, "C": 4.2e-12}
    # builder output survives the text format
    assert nl.parse(nl.serialize(net)) == net


def test_from_elements_single_element_no_feed():
    net = nl.from_elements([LumpedElements(1e-12, 2e-9, 1.0, 1)])
    assert len(net.sections) == 1
    assert net.sections[0].topology == "series_rl_shunt_c"


def test_from_elements_feedless_capacitor_becomes_shunt():
    net = nl.from_elements([LumpedElements(1e-12, None, None, 0)])
    assert net.sections[0].topology == "shunt_parallel_rlc"
    assert net.sections[0].params == {"C": 1e-12}


def test_from_elements_zero_resistance_omitted():
    net = nl.from_elements([LumpedElements(1e-12, 2e-9, 0.0, 1)])
    assert "R" not in net.sections[0].params


def test_from_elements_rejects_empty():
    with pytest.raises(nl.NetlistError):
        nl.from_elements([])


def test_from_elements_with_a_feed_rejects_a_second_cavity_without_inductance():
    feed = nl.FeedLine(50.7, 3.3, 0.06)
    rows = _reference_elements()
    rows[2] = LumpedElements(rows[2].capacitance, None, None, 2)
    with pytest.raises(nl.NetlistError, match="cavities 0, 2 have no inductance"):
        nl.from_elements(rows, feed)
    # without a feed line, each such cavity is its own shunt capacitor
    net = nl.from_elements(rows)
    assert [s.topology for s in net.sections[:3:2]] == ["shunt_parallel_rlc"] * 2
