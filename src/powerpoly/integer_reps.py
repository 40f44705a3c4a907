"""Integer weight grids: exhaustive feasibility counts and convergence.

For a fixed total T, every composition of T into n nonnegative integer
parts is tested against the game's coalition structure. Averaging the
feasible vectors (relative to T) approximates the average weight index;
additionally counting the admissible integer quotas per vector
approximates the average representation index. Counts and sums are exact
integers throughout.

The scan does not visit the compositions one by one. It splits each
into a head, the first n-2 weights, and a tail (t, r - t), where r is
what the head leaves of the total. Along a tail every coalition weight
is a line in t with slope -1, 0 or 1, so the gap between the lightest
minimal winning and the heaviest maximal losing coalition is concave:
the minimum of at most five lines with slopes -2..2. The feasible t
(gap at least 1) form an interval, and so do the t where each line is
the minimum. Over such an interval the count, the quota count (the sum
of the gap) and the weight sums are sums of 1, t and t**2, which have
closed forms. So each head costs one pass, whatever its tail's length.
Heads are generated in lexicographic blocks, one per column, so a scan
holds one block's arrays, whatever its grid. A block has CHUNK heads,
or fewer for a game of more than 16 minimal winning and maximal losing
coalitions, so that it never holds more than 16 * CHUNK coalition
weights. The scan functions import numpy themselves, so importing this
module does not load it; the first scan in a process pays that import.

A scan's work is its coalition weights: one per head and coalition.
GRID_BUDGET caps it, pricing a head at its coalitions but at least 16,
the fixed cost of a head's share of a block's numpy calls. Only a
one-head scan (n <= 2) may run past int64 on Python ints, which are
12-30 times slower per head; a scan of more heads is refused there.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import index
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .exact_math import decimal_str
from .game_core import (
    GameFormatError,
    ScaleExceededError,
    WeightedGame,
    _structure_matrices,
    l1_distance,
)
from .indices import (
    KIND_AVG_REP,
    IndexVector,
    average_representation_index,
    average_weight_index,
    index_to_json,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "GRID_BUDGET",
    "GridSummary",
    "convergence_experiment",
    "convergence_to_json",
    "enumerate_integer_feasible_weights",
    "enumerate_integer_representations",
    "grid_summary_to_json",
]

CHUNK = 1 << 13  # heads per block, for games of at most 16 coalitions

# Coalition weights one scan may compute; _check_scale applies it.
GRID_BUDGET = 100_000_000


class GridSummary(NamedTuple):
    """Aggregate of one grid scan.

    `average` is relative to the total (entries sum to one); it is empty
    when nothing on the grid was feasible. With `with_quota` set, `count`
    weighs each vector by its number of admissible integer quotas.
    """

    total: int
    count: int
    average: tuple[Fraction, ...]
    with_quota: bool


class ConvergenceRow(NamedTuple):
    summary: GridSummary
    l1_to_limit: Fraction | None


class ConvergenceTable(NamedTuple):
    rows: tuple[ConvergenceRow, ...]
    limit: IndexVector


def _price(game: WeightedGame) -> int:
    """Coalition weights one head costs: |MWC| + |MLC|, at least 16."""
    return max(len(game.minimal_winning) + len(game.maximal_losing), 16)


def _check_scale(game: WeightedGame, total) -> int:
    """The total as an int, once a scan of it is known to fit the budget."""
    try:
        total = index(total)
    except TypeError:
        raise GameFormatError(f"total must be an integer, not {total!r}") from None
    if total < 1:
        raise GameFormatError("total must be positive")
    heads = comb(total + game.n - 2, max(game.n - 2, 0))
    if heads > 1 and not _int64_holds(total):
        raise ScaleExceededError(f"grid for total {total} overflows int64")
    if heads * _price(game) > GRID_BUDGET:
        raise ScaleExceededError(
            f"grid for total {total} has {heads} heads of {_price(game)} "
            f"coalition weights, more than the supported {GRID_BUDGET}"
        )
    return total


def _head_blocks(width: int, total: int, size: int) -> Iterator[np.ndarray]:
    """The width-tuples of nonnegative integers with sum <= total, in lex
    order, size at a time: one int64 array per block, one column per tuple.

    Each tuple is unranked on its own. Among the w-tuples with sum <= R,
    of which there are N(w, R) = C(R + w, w), the N(w, m) with first
    entry at least R - m come last. So the tuple of rank k starts with
    R - m, for the least m with N(w, m) >= N(w, R) - k, and goes on with
    the (w - 1)-tuple of rank k - N(w, R) + N(w, m) with sum <= m. The
    1-tuple of rank k is (k,).
    """
    import numpy as np

    # N(w, 0..total) for w = 2..width: N(1, m) = m + 1, and each table is
    # the running sum of the one before
    tables = []
    if width > 1:
        tables.append(np.cumsum(np.arange(1, total + 2, dtype=np.int64)))
        while len(tables) < width - 1:
            tables.append(np.cumsum(tables[-1]))
    heads = comb(total + width, width)
    for start in range(0, heads, size):
        rank = np.arange(start, min(start + size, heads), dtype=np.int64)
        budget = np.full_like(rank, total)
        block = np.empty((width, len(rank)), dtype=np.int64)
        for i, table in enumerate(reversed(tables)):
            before = table[budget]
            m = np.searchsorted(table, before - rank)
            block[i] = budget - m
            rank -= before - table[m]
            budget = m
        if width:
            block[-1] = rank
        yield block


def _series(lo, hi):
    """Sums of 1, t and t**2 over t = lo..hi, elementwise (lo <= hi + 1)."""
    up, down = hi * (hi + 1), (lo - 1) * lo
    return (
        hi - lo + 1,
        (up - down) // 2,
        (up * (2 * hi + 1) - down * (2 * lo - 1)) // 6,
    )


def _int64_holds(total: int) -> bool:
    """Whether a scan of this total runs in int64 rather than Python ints.

    Per head, the sums of t and t**2, their products with a gap line and
    the running sums over the pieces stay under 3 * (total + 1)**3; a
    block adds up at most CHUNK heads' weighted counts of at most
    (total + 1)**3 each. So int64 holds every total below 65,535.
    _check_scale refuses larger totals for n >= 3; at n <= 2, with one
    head, they run on Python ints throughout.
    """
    return CHUNK * (total + 1) ** 3 < 1 << 61


def _grid_scan(game: WeightedGame, total: int, with_quota: bool) -> GridSummary:
    import numpy as np

    n = game.n
    if n == 1:
        # the lone voter wins alone and the empty coalition loses, so the
        # one vector (total,) admits every quota from 1 to the total
        return GridSummary(
            total, total if with_quota else 1, (Fraction(1),), with_quota
        )
    if _int64_holds(total):
        # coalition weights are at most the total, so they are exact in
        # float64 too, where BLAS computes them
        dtype, weigh = np.int64, np.float64
    else:
        dtype, weigh = object, object
    cols = [*range(n - 2), n - 1]

    def by_slope(mat):
        # along the tail (t, r - t) a coalition weighs its row of x plus
        # t times its slope, bit n-2 minus bit n-1
        slope = mat[:, n - 2] - mat[:, n - 1]
        return {
            s: mat[slope == s][:, cols].astype(weigh)
            for s in (-1, 0, 1)
            if (slope == s).any()
        }

    win, lose = map(by_slope, _structure_matrices(game))
    count = 0
    sums = [0] * n
    # a block's products hold at most 16 * CHUNK coalition weights
    size = max(CHUNK * 16 // _price(game), 1)
    for heads in _head_blocks(n - 2, total, size):
        # row i < n-2 of x is weight i, the last row is the rest r of the total
        x = np.vstack([heads, total - heads.sum(axis=0)]).astype(dtype)
        xw = x.astype(weigh)
        lightest = {s: (m @ xw).min(axis=0) for s, m in win.items()}
        heaviest = {s: (m @ xw).max(axis=0) for s, m in lose.items()}
        # the gap between them is concave in t: the minimum over k of the
        # lines g[k] + k t, k a winning slope minus a losing one
        g: dict = {}
        for s, a in lightest.items():
            for u, b in heaviest.items():
                d = (a - b).astype(dtype)
                g[s - u] = np.minimum(g[s - u], d) if s - u in g else d
        # the feasible t: those in [0, r] where every line is at least 1
        lo = np.zeros_like(x[-1])
        hi = x[-1]
        for k, gk in g.items():
            if k > 0:
                lo = np.maximum(lo, (k - gk) // k)
            elif k < 0:
                hi = np.minimum(hi, (gk - 1) // -k)
            else:
                hi = np.where(gk >= 1, hi, -1)
        if not with_quota:
            hi = np.maximum(hi, lo - 1)
            mass, moment, _ = _series(lo, hi)
        else:
            # the pieces below are most of a block's work, so they skip
            # heads without a feasible t
            keep = lo <= hi
            x, lo, hi = x[:, keep], lo[keep], hi[keep]
            g = {k: gk[keep] for k, gk in g.items()}
            # line k lies at or below line j < k exactly for t <= cut[j, k]
            cut = {
                (j, k): (g[j] - g[k]) // (k - j)
                for j, k in combinations(sorted(g), 2)
            }
            mass = moment = 0  # per head: sums of mult(t) and t * mult(t)
            for k, gk in g.items():
                # the feasible t where line k is the gap, ties going to
                # the larger slope; there are g[k] + k t admissible quotas
                a, b = lo, hi
                for j in g:
                    if j < k:
                        b = np.minimum(b, cut[j, k])
                    elif j > k:
                        a = np.maximum(a, cut[k, j] + 1)
                a = np.minimum(a, hi + 1)
                s0, s1, s2 = _series(a, np.maximum(b, a - 1))
                mass = mass + gk * s0 + k * s1
                moment = moment + gk * s1 + k * s2
        # weights 0..n-3 are the head's, weight n-2 is t, weight n-1 is r - t
        weighted = [int(v) for v in (x * mass).sum(axis=1)]
        tail = int(moment.sum())
        count += int(mass.sum())
        block = weighted[:-1] + [tail, weighted[-1] - tail]
        sums = [s + v for s, v in zip(sums, block)]

    if count == 0:
        return GridSummary(total, 0, (), with_quota)
    average = tuple(Fraction(s, count * total) for s in sums)
    return GridSummary(total, count, average, with_quota)


def enumerate_integer_feasible_weights(
    game: WeightedGame, total: int
) -> GridSummary:
    """Count and average the feasible integer weight vectors of sum `total`."""
    return _grid_scan(game, _check_scale(game, total), with_quota=False)


def enumerate_integer_representations(
    game: WeightedGame, total: int
) -> GridSummary:
    """Count integer representations (quota, weights) with weight sum `total`.

    Each feasible weight vector contributes one representation per integer
    quota between its heaviest losing and lightest winning coalition; the
    average weighs vectors by that multiplicity.
    """
    return _grid_scan(game, _check_scale(game, total), with_quota=True)


def convergence_experiment(
    game: WeightedGame, totals: Sequence[int], with_quota: bool = False
) -> ConvergenceTable:
    """Grid summaries for ascending totals plus the exact limit index.

    The limit is the average weight index, or the average representation
    index when `with_quota` is set. Each row reports the l1 distance of
    its grid average to the limit (None when the grid was empty). Every
    total is checked to be a positive integer within the grid budget
    before the limit or any scan is computed.
    """
    if not totals:
        raise GameFormatError("empty totals list")
    if any(b <= a for a, b in zip(totals, totals[1:])):
        raise GameFormatError("totals must be strictly ascending")
    totals = [_check_scale(game, total) for total in totals]
    limit = (
        average_representation_index(game)
        if with_quota
        else average_weight_index(game)
    )
    rows = []
    for total in totals:
        summary = _grid_scan(game, total, with_quota)
        dist = (
            l1_distance(summary.average, limit.values)
            if summary.count
            else None
        )
        rows.append(ConvergenceRow(summary, dist))
    return ConvergenceTable(tuple(rows), limit)


def grid_summary_to_json(
    game: WeightedGame, summary: GridSummary, precision: int = 6
) -> dict:
    """JSON document for a grid summary: p/q strings plus decimals."""
    return {
        "game": game.to_spec(),
        "total": summary.total,
        "with_quota": summary.with_quota,
        "count": summary.count,
        "average": [str(v) for v in summary.average],
        "decimals": [decimal_str(v, precision) for v in summary.average],
    }


def convergence_to_json(
    game: WeightedGame, table: ConvergenceTable, precision: int = 6
) -> dict:
    """JSON document for a convergence table: one grid document per row."""
    return {
        "game": game.to_spec(),
        "with_quota": table.limit.kind == KIND_AVG_REP,
        "rows": [
            {
                **grid_summary_to_json(game, row.summary, precision),
                "l1_to_limit": (
                    None if row.l1_to_limit is None else str(row.l1_to_limit)
                ),
            }
            for row in table.rows
        ],
        "limit": index_to_json(game, table.limit, None, precision),
    }
