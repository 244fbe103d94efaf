"""Ladder-circuit description: section topologies, a text format, a builder.

A netlist is two real reference-impedance ports around an ordered list
of two-port sections. The wiring inside each resonator is a modeling
choice, so the topology is data: the default ladder uses a series R-L
followed by a shunt C per resonator, with the feed line as an ideal
transmission-line section, but every topology is first-class in the
text format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import sinum
from .errors import LocatedError, require

# topology -> (the parameters it takes, the parameters it needs); every
# section also needs at least one parameter
TOPOLOGIES = {
    "series_rlc": (("R", "L", "C"), ()),
    "shunt_series_rlc": (("R", "L", "C"), ()),
    "shunt_parallel_rlc": (("R", "L", "C"), ()),
    "series_rl_shunt_c": (("R", "L", "C"), ("L", "C")),
    "tline": (("z0", "eps_eff", "len"), ("z0", "eps_eff", "len")),
}
PARAMETER_KEYS = tuple(dict.fromkeys(key for takes, _ in TOPOLOGIES.values() for key in takes))

_NAME_RE = re.compile(r"[A-Za-z_]\w*")

DEFAULT_PORTS = (50.0, 4.5)


class NetlistError(LocatedError):
    pass


class MalformedLine(NetlistError):
    pass


class UnknownTopology(NetlistError):
    def __init__(self, topology: str, line: int | None = None):
        self.topology = topology
        super().__init__(f"unknown topology {topology!r}", line)


class BadValueSuffix(NetlistError):
    pass


class DuplicatePort(NetlistError):
    pass


class MissingPort(NetlistError):
    pass


class DuplicateSectionName(NetlistError):
    def __init__(self, name: str, line: int | None = None):
        self.name = name
        super().__init__(f"duplicate section name {name!r}", line)


class MissingRequiredParameter(NetlistError):
    def __init__(self, parameter: str, line: int | None = None):
        self.parameter = parameter
        super().__init__(f"missing required parameter {parameter!r}", line)


class ForbiddenParameter(NetlistError):
    def __init__(self, parameter: str, line: int | None = None):
        self.parameter = parameter
        super().__init__(f"parameter {parameter!r} not allowed for this topology", line)


class NonPositiveParameter(NetlistError):
    @property
    def parameter(self) -> str:  # the `.name` that `require` sets
        return self.name


def _validate_section(topology: str, params: dict, line: int | None) -> dict[str, float]:
    if topology not in TOPOLOGIES:
        raise UnknownTopology(topology, line)
    takes, needs = TOPOLOGIES[topology]
    for key in params:
        if key not in takes:
            raise ForbiddenParameter(key, line)
    for key in needs:
        if key not in params:
            raise MissingRequiredParameter(key, line)
    if not params:
        raise MissingRequiredParameter(f"one of {', '.join(takes)}", line)
    return {key: require(key, value, NonPositiveParameter, line) for key, value in params.items()}


@dataclass(frozen=True)
class Section:
    """One cascaded two-port stage of the ladder."""

    name: str
    topology: str
    params: dict[str, float]

    def __post_init__(self):
        if not _NAME_RE.fullmatch(self.name):
            raise MalformedLine(f"bad section name {self.name!r}")
        object.__setattr__(self, "params", _validate_section(self.topology, self.params, None))


@dataclass(frozen=True)
class Netlist:
    """Ordered sections between the input and output reference impedances."""

    input_port_impedance: float
    output_port_impedance: float
    sections: tuple[Section, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "sections", tuple(self.sections))  # a copy, not the caller's
        for which, field in (("in", "input_port_impedance"), ("out", "output_port_impedance")):
            held = require(f"port {which} z0", getattr(self, field), NonPositiveParameter)
            object.__setattr__(self, field, held)
        seen = set()
        for section in self.sections:
            if section.name in seen:
                raise DuplicateSectionName(section.name)
            seen.add(section.name)

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise NetlistError(f"no section named {name!r}")


def _parse_number(token: str, line: int) -> float:
    try:
        return sinum.parse_value(token)
    except ValueError:
        raise BadValueSuffix(f"bad value {token!r}", line) from None


def parse(text: str) -> Netlist:
    """Parse the netlist text format.

    Line-oriented; ``#`` starts a comment. Exactly one ``port in`` and
    one ``port out`` are required; sections cascade in file order from
    the input port to the output port.
    """
    ports: dict[str, float] = {}
    sections: list[Section] = []
    names: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "port":
            if len(tokens) != 3 or tokens[1] not in ("in", "out") or not tokens[2].startswith("z0="):
                raise MalformedLine(f"expected 'port in|out z0=<value>', got {line!r}", lineno)
            value = _parse_number(tokens[2][3:], lineno)
            require(f"port {tokens[1]} z0", value, NonPositiveParameter, lineno)
            if tokens[1] in ports:
                raise DuplicatePort(f"port {tokens[1]!r} declared twice", lineno)
            ports[tokens[1]] = value
        elif tokens[0] == "section":
            if len(tokens) < 3 or not tokens[2].startswith("topology="):
                raise MalformedLine(
                    f"expected 'section <name> topology=<topo> ...', got {line!r}", lineno
                )
            name = tokens[1]
            if not _NAME_RE.fullmatch(name):
                raise MalformedLine(f"bad section name {name!r}", lineno)
            if name in names:
                raise DuplicateSectionName(name, lineno)
            topology = tokens[2][len("topology="):]
            params: dict[str, float] = {}
            for token in tokens[3:]:
                key, sep, rawval = token.partition("=")
                if not sep or key not in PARAMETER_KEYS:
                    raise MalformedLine(f"bad parameter {token!r}", lineno)
                if key in params:
                    raise MalformedLine(f"duplicate parameter {key!r}", lineno)
                params[key] = _parse_number(rawval, lineno)
            _validate_section(topology, params, lineno)
            names.add(name)
            sections.append(Section(name, topology, params))
        else:
            raise MalformedLine(f"unrecognized line {line!r}", lineno)

    for which in ("in", "out"):
        if which not in ports:
            raise MissingPort(f"missing 'port {which}' declaration")
    return Netlist(ports["in"], ports["out"], tuple(sections))


def serialize(netlist: Netlist) -> str:
    """Render the canonical text form: parameters alphabetical, SI suffixes."""
    lines = [
        f"port in z0={sinum.format_value(netlist.input_port_impedance)}",
        f"port out z0={sinum.format_value(netlist.output_port_impedance)}",
    ]
    for section in netlist.sections:
        parts = [f"section {section.name} topology={section.topology}"]
        parts += [f"{k}={sinum.format_value(section.params[k])}" for k in sorted(section.params)]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FeedLine:
    """Transmission-line parameters of the feed section."""

    characteristic_impedance: float
    effective_permittivity: float
    length: float


def from_elements(elements, feed: FeedLine | None = None, ports=DEFAULT_PORTS) -> Netlist:
    """Build the default ladder from extracted elements.

    Elements with an inductance become series R-L / shunt C resonator
    sections in order; an element without one (the feed cavity) becomes
    the tline section when `feed` is given, else a bare shunt capacitor.
    One feed line describes one cavity, so with `feed` at most one element
    may lack an inductance.
    """
    if not elements:
        raise NetlistError("element list is empty")
    feeds = [el.source_cavity_index for el in elements if el.inductance is None]
    if feed is not None and len(feeds) > 1:
        raise NetlistError(
            f"cavities {', '.join(map(str, feeds))} have no inductance;"
            " only one feed cavity can become the feed line"
        )
    sections = []
    for el in elements:
        name = f"c{el.source_cavity_index}"
        if el.inductance is None:
            if feed is not None:
                sections.append(
                    Section(
                        name,
                        "tline",
                        {
                            "z0": feed.characteristic_impedance,
                            "eps_eff": feed.effective_permittivity,
                            "len": feed.length,
                        },
                    )
                )
            else:
                sections.append(Section(name, "shunt_parallel_rlc", {"C": el.capacitance}))
        else:
            params = {"L": el.inductance, "C": el.capacitance}
            if el.resistance:
                params["R"] = el.resistance
            sections.append(Section(name, "series_rl_shunt_c", params))
    return Netlist(ports[0], ports[1], tuple(sections))
