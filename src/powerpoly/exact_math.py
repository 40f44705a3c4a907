"""Exact rationals: the literal parser, decimal rendering, one kernel.

Every number that crosses the API of this package's exact paths is a
`fractions.Fraction`: arbitrary precision, always in lowest terms, never
rounded. Text becomes one only through `parse_rational`, which game specs
use too, so "p" and "p/q" are the one literal grammar throughout. Any
other rational input (an int, a Fraction, a numpy integer) passes through
`rational`, so the integers inside are Python ints and never wrap.
Between input and output the exact paths keep integers over one common
denominator (`common_denominator`) and build a Fraction only for a value
they return. The linear algebra runs on integers too and there is no
matrix type: callers hand plain lists of integer rows to `bareiss`, the
one fraction-free elimination kernel (Bareiss 1968), which gives both
rank and determinant. It works in place with index loops and its
divisions are exact, so no intermediate value needs a gcd. The matrices
are small and sparse, so plain elimination with exact zero tests beats
anything fancier: a row whose multiplier is 0 is only rescaled, and left
as it is when successive pivots are equal.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable

__all__ = [
    "MAX_PRECISION",
    "bareiss",
    "common_denominator",
    "decimal_str",
    "parse_rational",
    "rational",
]

MAX_PRECISION = 1000  # decimal places; str() of an int refuses 4,301 digits

_RATIONAL_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with base-10 integer parts.

    Decimal and exponent notation are rejected; exactness would be lost
    silently otherwise.
    """
    m = _RATIONAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    if not int(den):
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den))


def rational(value) -> Fraction:
    """`value` as a Fraction whose numerator and denominator are Python ints.

    Takes whatever Fraction takes. A numpy integer keeps its fixed-width
    type inside a Fraction, where sums and products wrap silently, so its
    parts are turned into Python ints here.
    """
    if type(value) is not Fraction:
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    if type(num) is int and type(den) is int:
        return value
    return Fraction(int(num), int(den))


def common_denominator(values: Iterable) -> tuple[list[int], int]:
    """Numerators of the rational `values` over their least common denominator."""
    fracs = [rational(v) for v in values]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def decimal_str(value: Fraction | int, places: int = 6) -> str:
    """Exactly `places` <= MAX_PRECISION decimal digits, half-even rounding.

    The rounding happens on the exact rational, so the printed digits are
    the true rounded digits and not a float artifact.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    if places > MAX_PRECISION:
        raise ValueError(f"places must be at most {MAX_PRECISION}")
    value = rational(value)
    den = value.denominator
    scaled, rest = divmod(value.numerator * 10**places, den)
    if 2 * rest > den or (2 * rest == den and scaled & 1):
        scaled += 1
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gaussian elimination of an integer matrix, in place.

    Bareiss (1968): after a pivot step every entry below the pivot row is
    a minor of the input, so dividing by the previous pivot is exact.
    Columns without a pivot are skipped. A row whose entry in the pivot
    column is already 0 only has its other entries scaled by
    pivot / previous pivot, entry by entry, and is left as it is when the
    two pivots are equal. Entries in a pivot's column are not cleared,
    since no later step reads them. Returns (rank, det) where det is the
    last pivot with the sign of the row swaps; for a square matrix of
    full rank that is its determinant.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = r
        while piv < nrows and not rows[piv][c]:
            piv += 1
        if piv == nrows:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        top = rows[r]
        p = top[c]
        for i in range(r + 1, nrows):
            row = rows[i]
            f = row[c]
            if f:
                for j in range(c + 1, ncols):
                    row[j] = (row[j] * p - f * top[j]) // prev
            elif p != prev:
                for j in range(c + 1, ncols):
                    row[j] = row[j] * p // prev
        prev = p
        r += 1
    return r, sign * prev
