"""Exact arithmetic helpers: parsing and formatting rationals."""

from __future__ import annotations

from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse a nonnegative rational written as an integer, a decimal, or "a/b".

    Decimals are converted exactly (0.25 -> 1/4).  Raises ValueError on
    anything else, including negative values.
    """
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
    if value < 0:
        raise ValueError(f"negative capacity: {text!r}")
    return value


def rational_str(value) -> str:
    """Canonical "p/q" rendering, denominator always present ("5" -> "5/1")."""
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"

