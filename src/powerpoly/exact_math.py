"""Exact rational arithmetic and small dense linear algebra.

Every number that crosses the API of this package's exact paths is a
`fractions.Fraction`: arbitrary precision, always in lowest terms, never
rounded. Text becomes one only through `parse_rational`, which game specs
use too, so "p" and "p/q" are the one literal grammar throughout.
Inside, the linear algebra runs on integers. Each rational row is
scaled to integers and one fraction-free elimination kernel (Bareiss 1968)
gives both determinants and ranks; its divisions are exact, so no
intermediate value needs a gcd. Matrices are small and dense, so plain
elimination with exact zero tests beats anything fancier.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable

__all__ = [
    "RatMatrix",
    "bareiss",
    "decimal_str",
    "determinant",
    "parse_rational",
    "rank",
]

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
    """Decimal rendering with exactly `places` digits, half-even rounding.

    The rounding happens on the exact rational, so the printed digits are
    the true rounded digits and not a float artifact.
    """
    if places < 0:
        raise ValueError("places must be nonnegative")
    scaled = round(Fraction(value) * 10**places)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**places)
    if places == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{places}d}"


@dataclass(frozen=True)
class RatMatrix:
    """Dense rational matrix, row-major, rectangular."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        if self.entries:
            width = len(self.entries[0])
            if any(len(row) != width for row in self.entries):
                raise ValueError("ragged rows")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "RatMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0


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


def _scaled_rows(a: RatMatrix) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators; returns the product."""
    rows = []
    scale = 1
    for row in a.entries:
        den = lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (den // x.denominator) for x in row])
        scale *= den
    return rows, scale


def determinant(a: RatMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    d = a.rows
    if a.cols != d:
        raise ValueError("matrix is not square")
    rows, scale = _scaled_rows(a)
    rnk, det = bareiss(rows)
    return Fraction(det, scale) if rnk == d else Fraction(0)


def rank(a: RatMatrix) -> int:
    """Row rank over the rationals."""
    return bareiss(_scaled_rows(a)[0])[0]
