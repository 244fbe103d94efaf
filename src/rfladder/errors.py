"""Exception bases shared across the package, and each scalar quantity's domain.

Concrete error classes live next to the code that raises them; the two bases
exist so the CLI can map failures to exit codes (input problems vs. computations
that left their valid domain). `DOMAINS` writes each quantity's range once.
`require` refuses a value outside it with the caller's error class and a message
that states the rule, and returns what it checked, which a checked object holds.
"""

import sys

# quantity name -> (least value, whether the least itself is allowed); every quantity must
# also be finite, and one whose least is an int is a count, a whole number held as an int.
# A name not listed must be > 0, and a dotted name, `section.parameter`, takes its rule.
DOMAINS = {
    "eps_eff": (1.0, True),  # a netlist line's effective permittivity
    "len": (0.0, True),  # a netlist line's length
    "er": (1.0, False),  # a substrate's relative permittivity, as a geometry file names it
    "relative_permittivity": (1.0, False),
    "resistance": (0.0, True),  # an extracted block's: 0 at its resonance, which a netlist drops
    "angular frequency": (0.0, True),
    "index": (0, True),
    "n": (1, True),
    "block_factor": (1, True),
    "tolerance": (0.0, True),
    "--bounds-factor": (1.0, False),
}
# finite is at most the largest float, so that `float` of a value is finite; a float subclass,
# which numpy takes as a float64, widens a float32 compared with it where a float would overflow
_LARGEST = type("_Largest", (float,), {})(sys.float_info.max)


class RfLadderError(Exception):
    """Base class for every error raised by this package."""


class InputError(RfLadderError):
    """Invalid user-supplied data: files, values, or argument combinations."""


class NumericalError(RfLadderError):
    """A computation left the domain where its result is meaningful."""


class NonFiniteResult(NumericalError):
    """A result overflowed, or a value it needs left the floating-point range."""


class LocatedError(InputError):
    """Input error tied to a 1-based line of a text document."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NonPositiveFrequency(InputError):
    """A frequency, or an angular frequency, outside its `DOMAINS` range."""


def domain(name: str) -> tuple[float, bool]:
    """The least value of quantity `name`, and whether that least is allowed."""
    return DOMAINS.get(name.rpartition(".")[2], (0.0, False))


def require(name: str, value, error: type[RfLadderError], line: int | None = None):
    """`value` as the float it was checked as, or a count's int; else raise `error`.

    The check: finite, in quantity `name`'s domain, and whole for a count. The message states
    the rule, as ``eps_eff must be finite and >= 1``; the error carries `name` and any `line`.
    """
    least, closed = domain(name)
    inside = (value >= least if closed else value > least) and value <= _LARGEST
    if inside and (isinstance(least, float) or int(value) == value):
        return type(least)(value)  # the float, or the int of a count
    rule = "a whole number" if inside else f"finite and {'>=' if closed else '>'} {least:g}"
    exc = error(f"{name} must be {rule}", *(() if line is None else (line,)))
    exc.name = name
    raise exc
