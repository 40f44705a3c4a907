"""Monte Carlo centroid estimates of game polytopes.

The estimator cross-checks the exact centroids of polytope.py and stands
in for them past the exact voter cap. It imports numpy on its first
call, so building a polytope and every exact stage run without numpy
loaded. It samples polytopes built from a game (build_weight_polytope,
build_representation_polytope) and reads only their dimension and the
game the builder stored; it writes nothing to them. It draws the
weights from the chamber where they fall in the order of the game's
voter classes (game_core.desirability_classes) and the quota from the
interval that chamber leaves it, then averages each accepted point over
each class of equally desirable voters. It writes its own rows from the
game's minimal winning and maximal losing coalitions, over all n
weights, and never reads the polytope's integer rows. Rows that hold on
the whole proposal region are not tested. Points are drawn and tested
in column chunks, held coordinate-major, and summed as they are
accepted, so the estimator holds one chunk times ROW_BLOCK slacks at
once and never a batch of accepted points.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import lcm
from operator import index
from typing import TYPE_CHECKING, NamedTuple

from .game_core import ScaleExceededError, _structure_matrices, desirability_classes

if TYPE_CHECKING:
    import numpy as np

    from .game_core import WeightedGame
    from .polytope import HPolytope

__all__ = ["EstimateInconclusiveError", "MAX_MC_SAMPLES", "estimate_centroid_mc"]


# Most samples one Monte Carlo estimate draws: the largest power of two the
# slowest measured case, the representation polytope of [33;11,10,...,1] at
# 3.1-3.4M samples/s on a 2-vCPU VM, draws within 10 s (2^24 in 5.3 s).
MAX_MC_SAMPLES = 1 << 24

ROW_BLOCK = 32  # most constraint rows a Monte Carlo chunk is tested against at once
COLUMN_CHUNK = 1 << 13  # points of a Monte Carlo batch drawn and tested at once


class EstimateInconclusiveError(RuntimeError):
    """Monte Carlo run accepted too few samples to say anything."""


def _chamber(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill the n rows of `out` with uniform draws from the simplex's chamber.

    Column j of the rows is one point of C = {w_1 >= ... >= w_n >= 0,
    sum w = 1}. It draws n standard exponentials e_i (1-based) per
    point, point after point, and sums them left to right, as numpy
    draws a flat Dirichlet point u_i = e_i / sum e. Then it sets
    w_i = sum_{j >= i} u_j / j, summed from j = n down. That linear map
    sends the simplex's vertex e_j to C's vertex v_j, 1/j on each of the
    first j rows, so the draw is uniform on C.
    """
    import numpy as np

    n = len(out)
    if n == 1:  # C is the point w_1 = 1: nothing to draw
        out[0] = 1.0
        return
    exps = rng.standard_exponential((out.shape[1], n))
    inv = exps[:, 0].copy()
    for j in range(1, n):
        inv += exps[:, j]
    np.divide(1.0, inv, out=inv)
    np.divide(exps[:, n - 1], n, out=out[n - 1])
    for j in range(n - 2, -1, -1):
        np.divide(exps[:, j], j + 1, out=out[j])
        out[j] += out[j + 1]
    np.multiply(out, inv, out=out)


class _Proposal(NamedTuple):
    """What estimate_centroid_mc draws and tests, set up once per estimate.

    A point is held as `size` rows: the quota, if the polytope has one,
    then every voter's weight in rank order. Its output columns are sums
    of point rows; with `rest` set, one more column is 1 minus
    columns[rest:], the weight the other classes leave to the last one.
    """

    size: int
    first: int  # quota rows, drawn uniformly from [lo, hi]; the rest from C
    lo: np.ndarray
    hi: np.ndarray
    live: np.ndarray  # the rows tested, the most cutting first
    a: np.ndarray  # their float rows a, over a point's rows x: x is in when a.x <= 0
    columns: list[tuple[int, int]]  # point rows [start, stop) summed per column
    rest: int | None
    coords: list[tuple[int, int]]  # (column, voters in it) per coordinate

    @property
    def width(self) -> int:
        return len(self.columns) + (self.rest is not None)


def _proposal(poly: HPolytope, game: WeightedGame) -> _Proposal:
    """The estimator's proposal region, live rows and output columns.

    A game polytope lies where a more desirable voter never weighs less,
    and it is unchanged when equally desirable voters swap. So its
    weights are drawn from the chamber C of weights in decreasing rank
    order, and each accepted point is averaged over every class of
    equally desirable voters: a column sums a class's weights, and the
    last class takes what the others leave of the unit sum. A lone
    voter's weight is 1, so its polytope draws no weights at all.

    The rows are written from the game's coalition membership matrices,
    homogeneous over a point's rows: w(T) - w(S) <= 0 for each (minimal
    winning S, maximal losing T) pair on the weight polytope, q - w(S) <= 0
    and then w(T) - q <= 0 on the representation polytope. They come in
    the coalition order of _game_rows, so row k is the polytope's integer
    row k + n (weight) or k + n + 2 (representation); its bound rows hold
    on all of C and are not written. No point of the polytope has its
    quota below any w(T) or above any w(S), so the quota is drawn from
    [lo, hi]: lo is the largest, over T, of the least T weighs at a
    vertex of C, and hi the smallest, over S, of the most S weighs at one.

    A row is not tested when it holds at every vertex of the proposal
    region (a vertex of C with the quota end that is worst for the row),
    which coalition weights at the vertices of C, in integers, decide
    exactly. The other rows are tested most violated first, at the mean
    of those vertices, so that most points leave after few rows; the
    order changes neither which points are accepted nor their order.
    """
    import numpy as np

    n = game.n
    classes = desirability_classes(game)
    first = poly.dim - (n - 1)  # quota coordinates ahead of the weights
    ranked = [v - 1 for v in chain.from_iterable(classes)]
    win, lose = (m[:, ranked] for m in _structure_matrices(game))
    # column j - 1 is C's vertex v_j, 1/j on the j most desirable voters; over den
    den = lcm(*range(1, n + 1))
    vertices = np.array(
        [[den // j * (r < j) for j in range(1, n + 1)] for r in range(n)]
    )
    s_at, t_at = win @ vertices, lose @ vertices  # w(S) and w(T) at each vertex
    lo = hi = np.empty(0)
    if first:
        q_lo, q_hi = t_at.min(axis=1).max(), s_at.max(axis=1).min()
        lo, hi = np.array([q_lo / den]), np.array([q_hi / den])
        sign = np.repeat([1, -1], [len(win), len(lose)])
        rows = np.column_stack([sign, np.concatenate([-win, lose])])
        at = np.concatenate([q_hi - s_at, t_at - q_lo])  # at the worst quota end
    else:
        rows = (lose[None] - win[:, None]).reshape(-1, n)
        at = (t_at[None] - s_at[:, None]).reshape(-1, n)
    excess = at.sum(axis=1)  # by how much a row fails, summed over the vertices
    live = np.flatnonzero(~(at <= 0).all(axis=1))
    live = live[np.argsort(-excess[live], kind="stable")]
    ends = list(accumulate(map(len, classes), initial=first))
    columns = [(i, i + 1) for i in range(first)]
    columns += list(zip(ends[:-2], ends[1:-1]))
    of_voter = {v: c for c, cls in enumerate(classes) for v in cls}
    coords = [(i, 1) for i in range(first)] + [
        (first + of_voter[v], len(classes[of_voter[v]])) for v in range(1, n)
    ]
    return _Proposal(
        first + n,
        first,
        lo,
        hi,
        live,
        rows[live].astype(float),
        columns,
        first if n > 1 else None,
        coords,
    )


def _columns(p: _Proposal, inside: np.ndarray) -> np.ndarray:
    """Output columns of the points in `inside`, then their squares.

    One row per point, 2 * p.width wide, so numpy sums it along the slow
    axis: one row after the other, with no pairwise summation. Each
    column is built as one contiguous row first.
    """
    import numpy as np

    cols = []
    for start, stop in p.columns:
        col = inside[start].copy()
        for r in range(start + 1, stop):
            col += inside[r]
        cols.append(col)
    if p.rest is not None:
        col = np.ones(inside.shape[1])
        for other in cols[p.rest :]:
            col -= other
        cols.append(col)
    out = np.empty((inside.shape[1], 2 * len(cols)))
    for c, col in enumerate(cols):
        out[:, c] = col
        np.multiply(col, col, out=out[:, len(cols) + c])
    return out


def estimate_centroid_mc(
    poly: HPolytope, samples: int, seed: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Centroid estimate of a game polytope via seeded rejection sampling.

    `poly` comes from build_weight_polytope or
    build_representation_polytope; the estimate reads its dimension and
    game and writes nothing to it. Proposal region (`_proposal`, set up
    afresh on each call): the weights come from the chamber of weights
    in decreasing rank order, which multiplies the share accepted by
    n! / (c_1! ... c_k!) for voter classes of c_i equally desirable
    voters (by nothing when all voters are tied), and the quota from the
    interval that the chamber leaves it. Rows that hold on the whole
    region are not tested.

    Each batch draws its quotas first, then goes through its points
    COLUMN_CHUNK at a time: a chunk draws its weights (the exponentials
    continue one stream, so the batch's points are those of one draw)
    and is held coordinate-major, one row of points per coordinate. It
    is tested against 4, 8, 16 and then ROW_BLOCK rows at a time, and
    only the points inside every block so far, in their drawn order, go
    on to the next. Each accepted point adds its output columns (the
    quota, or the weight of a voter class) and their squares to running
    sums, point after point in drawn order, and each batch adds its sums
    to the totals. So what is held at once is one chunk times ROW_BLOCK
    slacks and the batch's quotas, however many rows and samples there
    are. Returns (estimate, standard errors) per coordinate, from the
    i.i.d. class-averaged points; equally desirable voters get equal
    estimates. Deterministic for a fixed seed.

    Raises ScaleExceededError past MAX_MC_SAMPLES samples, and
    ValueError for samples that are not a positive integer or a polytope
    not built from a game, all before any set-up or draw; a point
    (dimension 0) has the empty estimate. Raises
    EstimateInconclusiveError when fewer than two samples land inside
    the polytope, since one point admits no error estimate. The share
    that lands falls steeply with the dimension (README "Scale" has
    measured rates).
    """
    try:
        samples = index(samples)
    except TypeError:
        raise ValueError(f"samples must be an integer, not {samples!r}") from None
    if samples < 1:
        raise ValueError("samples must be positive")
    if samples > MAX_MC_SAMPLES:
        raise ScaleExceededError(
            f"{samples} samples requested, more than the supported {MAX_MC_SAMPLES}"
        )
    d = poly.dim
    if d == 0:
        return (), ()
    game = poly._cache.get("game")
    if game is None:
        raise ValueError(
            "Monte Carlo estimates need a polytope built from a game "
            "(build_weight_polytope or build_representation_polytope)"
        )
    import numpy as np

    p = _proposal(poly, game)
    # the rows that cut most come first, so blocks start small and double
    row_blocks = []
    r = 0
    while r < len(p.a):
        end = r + min(4 << len(row_blocks), ROW_BLOCK)
        row_blocks.append(p.a[r:end])
        r = end
    rng = np.random.default_rng(seed)
    kept = 0
    acc = np.zeros(2 * p.width)  # column sums, then sums of squares
    remaining = samples
    while remaining:
        batch = min(remaining, 1 << 17)
        remaining -= batch
        if p.first:
            uniform = rng.uniform(p.lo, p.hi, size=(batch, p.first)).T
        run = np.zeros(2 * p.width)
        for start in range(0, batch, COLUMN_CHUNK):
            stop = min(start + COLUMN_CHUNK, batch)
            pts = np.empty((p.size, stop - start))
            if p.first:
                pts[: p.first] = uniform[:, start:stop]
            _chamber(rng, pts[p.first :])
            inside = pts
            for a_blk in row_blocks:
                inside = inside[:, (a_blk @ inside <= 1e-12).all(axis=0)]
                if not inside.shape[1]:
                    break
            if inside.shape[1]:
                kept += inside.shape[1]
                # the first point carries the batch's running sums on, so
                # each column adds up point after point across the chunks
                cols = _columns(p, inside)
                cols[0] += run
                run = np.add.reduce(cols, axis=0)
        acc += run
    if kept < 2:
        raise EstimateInconclusiveError(
            f"only {kept} of {samples} samples landed inside the polytope; "
            "on game polytopes rejection sampling accepts almost nothing "
            "beyond 8 voters (weight) or 7 voters (representation), "
            'see README "Scale"'
        )
    mean = acc[: p.width] / kept
    var = np.maximum((acc[p.width :] - kept * mean**2) / (kept - 1), 0.0)
    stderr = np.sqrt(var / kept)
    return (
        tuple(float(mean[c] / k) for c, k in p.coords),
        tuple(float(stderr[c] / k) for c, k in p.coords),
    )
