"""Integer weight grids: exhaustive feasibility counts and convergence.

For a fixed total T, every composition of T into n nonnegative integer
parts is tested against the game's coalition structure. Averaging the
feasible vectors (relative to T) approximates the average weight index;
additionally counting the admissible integer quotas per vector
approximates the average representation index. Counts and sums are exact
integers throughout.

The scan runs on blocks of at most CHUNK compositions, one per column,
so its memory does not grow with the grid. Each block tests all its
compositions with one pair of matrix products against the minimal
winning and maximal losing coalitions, and adds its weighted column sums
with one more. The scan functions import numpy themselves, so importing
this module does not load it; the first scan in a process pays that
import.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Sequence

from .game_core import GameFormatError, WeightedGame, l1_distance
from .indices import (
    MAX_GRID_POINTS,
    MAX_GRID_VOTERS,
    IndexVector,
    ScaleExceededError,
    average_representation_index,
    average_weight_index,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "GridSummary",
    "convergence_experiment",
    "enumerate_integer_feasible_weights",
    "enumerate_integer_representations",
]

CHUNK = 1 << 13  # compositions per block


@dataclass(frozen=True)
class GridSummary:
    """Aggregate of one grid scan.

    `average` is relative to the total (entries sum to one); it is empty
    when nothing on the grid was feasible. With `with_quota` set, `count`
    weighs each vector by its number of admissible integer quotas.
    """

    total: int
    count: int
    average: tuple[Fraction, ...]
    with_quota: bool


@dataclass(frozen=True)
class ConvergenceRow:
    summary: GridSummary
    l1_to_limit: Fraction | None


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple[ConvergenceRow, ...]
    limit: IndexVector


def _structure_matrices(game: WeightedGame) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    def mat(masks):
        return np.array(
            [[mask >> i & 1 for i in range(game.n)] for mask in sorted(masks)],
            dtype=np.int64,
        )

    return mat(game.minimal_winning), mat(game.maximal_losing)


def _check_scale(game: WeightedGame, total: int) -> None:
    if total < 1:
        raise GameFormatError("total must be positive")
    if game.n > MAX_GRID_VOTERS:
        raise ScaleExceededError(
            f"integer grid scans support at most {MAX_GRID_VOTERS} voters"
        )
    points = comb(total + game.n - 1, game.n - 1)
    if points > MAX_GRID_POINTS:
        raise ScaleExceededError(
            f"grid for total {total} has {points} points, "
            f"more than the supported {MAX_GRID_POINTS}"
        )


def _prefixes(width: int, total: int) -> np.ndarray:
    """All width-tuples of nonnegative integers with sum <= total, in lex order."""
    import numpy as np

    rows = np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros(1, dtype=np.int64)
    for _ in range(width):
        lengths = total - sums + 1
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        last = np.arange(len(starts), dtype=np.int64) - starts
        rows = np.column_stack([np.repeat(rows, lengths, axis=0), last])
        sums = np.repeat(sums, lengths) + last
    return rows


def _blocks(n: int, total: int, dtype):
    """Compositions of total into n parts in lex order, as n x CHUNK blocks.

    Each block holds one composition per column. Scan row g is
    (head, t, r - t): head is the length n-2 prefix that owns g,
    r = total - sum(head) and t runs from 0 to r. One block can take
    many short tails or cut a long one into ranges.
    """
    import numpy as np

    if n == 1:
        yield np.full((1, 1), total, dtype=dtype)
        return
    heads = _prefixes(n - 2, total)
    rest = total - heads.sum(axis=1)
    ends = np.cumsum(rest + 1)
    starts = ends - rest - 1
    heads = heads.T.copy()
    size = int(ends[-1])
    for g0 in range(0, size, CHUNK):
        g1 = min(g0 + CHUNK, size)
        p0 = int(np.searchsorted(ends, g0, side="right"))
        p1 = int(np.searchsorted(ends, g1 - 1, side="right")) + 1
        counts = np.minimum(ends[p0:p1], g1) - np.maximum(starts[p0:p1], g0)
        t = np.arange(g0, g1, dtype=np.int64) - np.repeat(starts[p0:p1], counts)
        block = np.empty((n, g1 - g0), dtype=dtype)
        block[: n - 2] = np.repeat(heads[:, p0:p1], counts, axis=1)
        block[n - 2] = t
        block[n - 1] = np.repeat(rest[p0:p1], counts) - t
        yield block


def _grid_scan(game: WeightedGame, total: int, with_quota: bool) -> GridSummary:
    import numpy as np

    n = game.n
    win_mat, lose_mat = _structure_matrices(game)
    # A column adds at most total * total to a sum (a weight times its
    # quota count), so CHUNK columns stay inside int64 up to a total of
    # about 3.3e7, which covers every n >= 2 grid MAX_GRID_POINTS admits.
    # Coalition weights are at most the total, so below that they are
    # exact in float64 too, where BLAS computes them. Larger totals run
    # on Python ints throughout.
    if CHUNK * total * total < 1 << 63:
        dtype, weigh = np.int64, np.float64
    else:
        dtype, weigh = object, object
    win_mat = win_mat.astype(weigh)
    lose_mat = lose_mat.astype(weigh)
    count = 0
    sums = [0] * n
    for block in _blocks(n, total, dtype):
        # a vector is feasible iff its lightest minimal winning coalition
        # strictly outweighs its heaviest maximal losing one; with quota
        # it has one admissible integer quota per unit of the gap
        x = block.astype(weigh)
        gap = (win_mat @ x).min(axis=0) - (lose_mat @ x).max(axis=0)
        mult = (np.maximum(gap, 0) if with_quota else gap > 0).astype(dtype)
        count += int(mult.sum())
        sums = [s + int(v) for s, v in zip(sums, block @ mult)]

    if count == 0:
        return GridSummary(total, 0, (), with_quota)
    average = tuple(Fraction(s, count * total) for s in sums)
    return GridSummary(total, count, average, with_quota)


def enumerate_integer_feasible_weights(
    game: WeightedGame, total: int
) -> GridSummary:
    """Count and average the feasible integer weight vectors of sum `total`."""
    _check_scale(game, total)
    return _grid_scan(game, total, with_quota=False)


def enumerate_integer_representations(
    game: WeightedGame, total: int
) -> GridSummary:
    """Count integer representations (quota, weights) with weight sum `total`.

    Each feasible weight vector contributes one representation per integer
    quota between its heaviest losing and lightest winning coalition; the
    average weighs vectors by that multiplicity.
    """
    _check_scale(game, total)
    return _grid_scan(game, total, with_quota=True)


def convergence_experiment(
    game: WeightedGame, totals: Sequence[int], with_quota: bool = False
) -> ConvergenceTable:
    """Grid summaries for ascending totals plus the exact limit index.

    The limit is the average weight index, or the average representation
    index when `with_quota` is set. Each row reports the l1 distance of
    its grid average to the limit (None when the grid was empty).
    """
    if not totals:
        raise ValueError("at least one total is required")
    if any(b <= a for a, b in zip(totals, totals[1:])):
        raise GameFormatError("totals must be strictly ascending")
    if totals[0] < 1:
        raise GameFormatError("totals must be positive")
    limit = (
        average_representation_index(game)
        if with_quota
        else average_weight_index(game)
    )
    rows = []
    for total in totals:
        _check_scale(game, int(total))
        summary = _grid_scan(game, int(total), with_quota)
        dist = (
            l1_distance(summary.average, limit.values)
            if summary.count
            else None
        )
        rows.append(ConvergenceRow(summary, dist))
    return ConvergenceTable(tuple(rows), limit)
