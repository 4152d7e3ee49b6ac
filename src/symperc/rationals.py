"""Exact rational helpers shared by the engines and the CLI.

Parameters are parsed into :class:`fractions.Fraction`.  The public
functions of :mod:`symperc.exact` hand back integer numerators over a
positive denominator (an ``IntegerPmf`` and the checks read off it), and
:func:`format_ratio` reduces each with one gcd as it is written; floats
only appear in Monte Carlo summaries.  On the wire
(JSON reports, CSV, CLI flags) rationals are "num/den" strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def parse_fraction(text: str | int | Fraction) -> Fraction:
    """Parse "3/8", "3" or a numeric value into an exact Fraction."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_fraction(value: Fraction | int) -> str:
    """Canonical "num/den" string; plain "num" when the denominator is 1."""
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


def format_ratio(num: int, den: int) -> str:
    """The :func:`format_fraction` string of num/den, for den > 0."""
    common = gcd(num, den)
    if common == den:
        return str(num // den)
    return f"{num // common}/{den // common}"


def parse_probability(text: str | Fraction) -> Fraction:
    """Parse a percolation parameter and require 0 < p < 1."""
    p = parse_fraction(text)
    if not 0 < p < 1:
        raise ValueError(f"probability must lie strictly between 0 and 1, got {p}")
    return p
