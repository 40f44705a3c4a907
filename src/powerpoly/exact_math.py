"""Exact rationals: the literal parser, decimal rendering, one kernel.

Every number that crosses the API of this package's exact paths is a
`fractions.Fraction`: arbitrary precision, always in lowest terms, never
rounded. Text becomes one only through `parse_rational`, which game specs
use too, so "p" and "p/q" are the one literal grammar throughout.
Inside, the linear algebra runs on integers and there is no matrix type:
callers hand plain lists of integer rows to `bareiss`, the one
fraction-free elimination kernel (Bareiss 1968), which gives both rank
and determinant. Its divisions are exact, so no intermediate value needs
a gcd. Matrices are small and dense, so plain elimination with exact
zero tests beats anything fancier.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = ["MAX_PRECISION", "bareiss", "decimal_str", "parse_rational"]

MAX_PRECISION = 1000  # decimal places; str() of an int refuses 4,301 digits

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" with base-10 integer parts.

    Decimal and exponent notation are rejected; exactness would be lost
    silently otherwise.
    """
    token = text.strip()
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def decimal_str(value: Fraction | int, places: int = 6) -> str:
    """Exactly `places` <= MAX_PRECISION decimal digits, half-even rounding.

    The rounding happens on the exact rational, so the printed digits are
    the true rounded digits and not a float artifact.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    if places > MAX_PRECISION:
        raise ValueError(f"places must be at most {MAX_PRECISION}")
    scaled = round(Fraction(value) * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free Gaussian elimination of an integer matrix, in place.

    Bareiss (1968): after a pivot step every entry below the pivot row is
    a minor of the input, so dividing by the previous pivot is exact.
    Columns without a pivot are skipped. Returns (rank, det) where det is
    the last pivot with the sign of the row swaps; for a square matrix of
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
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        tail = rows[r][c + 1 :]
        for row in rows[r + 1 :]:
            f = row[c]
            row[c:] = [0] + [
                (x * p - f * y) // prev for x, y in zip(row[c + 1 :], tail)
            ]
        prev = p
        r += 1
    return r, sign * prev

