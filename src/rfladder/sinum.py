"""Engineering-notation numbers shared by the netlist and geometry formats.

Suffixes are case-sensitive (m = milli, M = mega). A suffixed literal
is parsed by shifting the decimal exponent before the single
decimal-to-float rounding, so ``2.39n`` means exactly ``float("2.39e-9")``;
formatting inverts that, picking the shortest mantissa that parses back
to the identical float. Round trips are therefore bit-exact.
"""

from __future__ import annotations

import math
from decimal import Decimal, InvalidOperation

from .errors import NumericalError

SUFFIX_EXPONENT = {
    "f": -15,
    "p": -12,
    "n": -9,
    "u": -6,
    "m": -3,
    "k": 3,
    "M": 6,
    "G": 9,
}

class NonFiniteValue(NumericalError):
    """A NaN or infinite value reached a text writer."""


# Descending scan order for suffix selection (mantissa lands in [1, 1000)).
_SCALES = [
    (1e9, 9, "G"),
    (1e6, 6, "M"),
    (1e3, 3, "k"),
    (1.0, 0, ""),
    (1e-3, -3, "m"),
    (1e-6, -6, "u"),
    (1e-9, -9, "n"),
    (1e-12, -12, "p"),
    (1e-15, -15, "f"),
]


def parse_value(text: str) -> float:
    """Parse a decimal literal with an optional single-letter SI suffix."""
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    exponent = 0
    if text[-1] in SUFFIX_EXPONENT:
        exponent = SUFFIX_EXPONENT[text[-1]]
        text = text[:-1]
    return parse_scaled(text, exponent)


def parse_scaled(text: str, exponent: int) -> float:
    """Parse a plain decimal shifted by 10^exponent, with a single rounding."""
    try:
        mantissa = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"bad numeric literal {text!r}") from None
    if not mantissa.is_finite():
        raise ValueError(f"non-finite literal {text!r}")
    sign, digits, own_exponent = mantissa.as_tuple()
    # built from the tuple, not scaleb, which rounds to the context's 28 digits
    value = float(Decimal((sign, digits, own_exponent + exponent)))
    if not math.isfinite(value):
        raise ValueError(f"literal {text!r} overflows a float")
    return value


def format_bare(value: float) -> str:
    """Shortest plain decimal string that parses back to exactly `value`."""
    if not math.isfinite(value):
        raise NonFiniteValue(f"cannot write non-finite value {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(float(value))


def format_with_exponent(value: float, exponent: int) -> str:
    """Mantissa string m with parse of m*10^exponent giving exactly `value`."""
    mantissa = Decimal(format_bare(value)).scaleb(-exponent)
    return format(mantissa.normalize(), "f")


def format_value(value: float) -> str:
    """Render `value` with an SI suffix when that keeps the mantissa in [1, 1000).

    Falls back to a bare decimal for zero, non-positive, or out-of-range
    magnitudes; either way the result parses back to the identical float.
    """
    if value > 0:
        for scale, exponent, suffix in _SCALES:
            if scale <= value < scale * 1000:
                mantissa = format_with_exponent(value, exponent)
                if 1 <= float(mantissa) < 1000:
                    return mantissa + suffix
                break
    return format_bare(value)
