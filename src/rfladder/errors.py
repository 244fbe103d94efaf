"""Exception bases shared across the package.

Concrete error classes live next to the code that raises them; the two
bases exist so the CLI can map failures to exit codes (input problems
vs. computations that left their valid domain).
"""


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
    """Frequency arguments must be strictly positive."""
