"""Engineering-notation numbers shared by the netlist and geometry formats.

Suffixes are case-sensitive (m = milli, M = mega). A suffixed literal
is parsed by shifting the decimal exponent before the single
decimal-to-float rounding, so ``2.39n`` means exactly ``float("2.39e-9")``;
formatting inverts that, picking the shortest mantissa that parses back
to the identical float. Round trips are therefore bit-exact. Every report
the command line prints is ``key = value`` lines from `key_value_text`:
floats through `format_bare` (``2``, not ``2.0``), anything else through `str`.
The module needs no numpy: the column form of `format_bare` lives with its
one caller, as `touchstone.format_bare_column`.
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
_SCALES = sorted(
    ((float(f"1e{e}"), e, suffix) for suffix, e in {**SUFFIX_EXPONENT, "": 0}.items()),
    reverse=True,
)


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


def key_value_text(pairs) -> str:
    """One ``key = value`` line per pair: floats through `format_bare`, the rest through `str`."""
    return "".join(f"{k} = {format_bare(v) if isinstance(v, float) else v}\n" for k, v in pairs)


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
                return format_with_exponent(value, exponent) + suffix
    return format_bare(value)
