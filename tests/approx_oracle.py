"""Unchunked grid scans and the all-rows Monte Carlo estimator.

These are the approximate layers as they were before blocking: the grid
scan tests one composition tail at a time and sums each column in int64,
and the Monte Carlo estimator draws each whole batch of a game polytope's
points from the ordered chamber of weights and tests it against all
constraint rows in one float matrix. It finds the voter classes from
swaps of the coalition structure, and bounds the quota by the chamber's
vertices and a bounding box that propagates bounds in Fractions over
every coordinate of every constraint. The library versions must return
exactly what these return (the grid scan only where its int64 sums
cannot overflow), so they stay as the reference.
"""

from fractions import Fraction
from operator import mul

import numpy as np

from powerpoly.game_core import WeightedGame
from powerpoly.integer_reps import GridSummary
from powerpoly.estimate import EstimateInconclusiveError
from powerpoly.polytope import HPolytope


def oracle_grid_scan(game: WeightedGame, total: int, with_quota: bool) -> GridSummary:
    n = game.n

    def mat(masks):
        return np.array(
            [[mask >> i & 1 for i in range(n)] for mask in sorted(masks)],
            dtype=np.int64,
        )

    win_mat, lose_mat = mat(game.minimal_winning), mat(game.maximal_losing)
    count = 0
    sums = [0] * n

    def accumulate(block: np.ndarray) -> None:
        nonlocal count
        lightest = (block @ win_mat.T).min(axis=1)
        heaviest = (block @ lose_mat.T).max(axis=1)
        mask = lightest > heaviest
        if not mask.any():
            return
        rows = block[mask]
        if with_quota:
            mult = (lightest - heaviest)[mask]
            count += int(mult.sum())
            weighted = rows * mult[:, None]
            for i in range(n):
                sums[i] += int(weighted[:, i].sum())
        else:
            count += int(mask.sum())
            for i in range(n):
                sums[i] += int(rows[:, i].sum())

    if n == 1:
        accumulate(np.array([[total]], dtype=np.int64))
    else:

        def scan(prefix: tuple[int, ...], remaining: int) -> None:
            if len(prefix) == n - 2:
                tail = np.arange(remaining + 1, dtype=np.int64)
                block = np.empty((remaining + 1, n), dtype=np.int64)
                block[:, : n - 2] = prefix
                block[:, n - 2] = tail
                block[:, n - 1] = remaining - tail
                accumulate(block)
                return
            for w in range(remaining + 1):
                scan(prefix + (w,), remaining - w)

        scan((), total)

    if count == 0:
        return GridSummary(total, 0, (), with_quota)
    average = tuple(Fraction(s, count * total) for s in sums)
    return GridSummary(total, count, average, with_quota)


def oracle_bounding_box(poly: HPolytope) -> list[tuple[Fraction, Fraction]]:
    d = poly.dim
    lo: list[Fraction | None] = [None] * d
    hi: list[Fraction | None] = [None] * d
    for _ in range(2 * d + 2):
        changed = False
        for con in poly.constraints:
            for i in range(d):
                ai = con.a[i]
                if ai == 0:
                    continue
                acc = Fraction(0)
                known = True
                for j in range(d):
                    if j == i:
                        continue
                    aj = con.a[j]
                    if aj == 0:
                        continue
                    bound = lo[j] if aj > 0 else hi[j]
                    if bound is None:
                        known = False
                        break
                    acc += aj * bound
                if not known:
                    continue
                val = (con.b - acc) / ai
                if ai > 0:
                    if hi[i] is None or val < hi[i]:
                        hi[i] = val
                        changed = True
                elif lo[i] is None or val > lo[i]:
                    lo[i] = val
                    changed = True
        if not changed:
            break
    if any(l is None or h is None for l, h in zip(lo, hi)):
        raise ValueError("constraints do not bound every coordinate")
    return list(zip(lo, hi))


def _swap_bits(mask: int, p: int, q: int) -> int:
    if (mask >> p & 1) == (mask >> q & 1):
        return mask
    return mask ^ ((1 << p) | (1 << q))


def oracle_transposition_automorphisms(game: WeightedGame) -> list[tuple[int, int]]:
    """Voter pairs whose swap leaves the coalition structure unchanged.

    Voters with equal weights always qualify; the structural test also
    catches symmetric voters whose given weights happen to differ.
    """
    mwc = game.minimal_winning
    out = []
    for i in range(game.n):
        for j in range(i + 1, game.n):
            if game.weights[i] != game.weights[j]:
                swapped = frozenset(_swap_bits(s, i, j) for s in mwc)
                if swapped != mwc:
                    continue
            out.append((i + 1, j + 1))
    return out


def oracle_classes(game: WeightedGame) -> list[list[int]]:
    """Voters in decreasing weight order, split where no swap pairs them."""
    pairs = set(oracle_transposition_automorphisms(game))
    order = sorted(range(1, game.n + 1), key=lambda v: -game.weights[v - 1])
    classes = [[order[0]]]
    for i, j in zip(order, order[1:]):
        if (min(i, j), max(i, j)) not in pairs:
            classes.append([])
        classes[-1].append(j)
    return classes


def oracle_chamber_vertices(game: WeightedGame) -> list[list[Fraction]]:
    """The chamber's vertices in the chart's weight coordinates.

    Vertex j (1..n) puts 1/j on each of the j most desirable voters; the
    chart drops the last voter's weight.
    """
    ranked = [v for cls in oracle_classes(game) for v in cls]
    return [
        [Fraction(int(ranked.index(v) < j), j) for v in range(1, game.n)]
        for j in range(1, game.n + 1)
    ]


def oracle_quota_box(
    poly: HPolytope, game: WeightedGame
) -> list[tuple[Fraction, Fraction]]:
    """The quota's interval, if poly has one, given weights in the chamber.

    Each row c q + a.w <= b with c != 0 bounds q by (b - a.w) / c, and
    over the chamber that bound is loosest where a.w is least, at a
    vertex; the bounding box's interval bounds q too.
    """
    if poly.dim < game.n:
        return []
    vertices = oracle_chamber_vertices(game)
    lo, hi = oracle_bounding_box(poly)[0]
    for con in poly.constraints:
        c = con.a[0]
        if c:
            least = min(sum(map(mul, con.a[1:], v), Fraction(0)) for v in vertices)
            if c > 0:
                hi = min(hi, (con.b - least) / c)
            else:
                lo = max(lo, (con.b - least) / c)
    return [(lo, hi)]


def oracle_dead_rows(poly: HPolytope, game: WeightedGame) -> list[int]:
    """Rows that hold at every corner of the chamber times the quota box."""
    quota_corners = [[]]
    for lo, hi in oracle_quota_box(poly, game):
        quota_corners = [c + [x] for c in quota_corners for x in (lo, hi)]
    corners = [
        q + w for q in quota_corners for w in oracle_chamber_vertices(game)
    ]
    return [
        k
        for k, con in enumerate(poly.constraints)
        if all(sum(map(mul, con.a, x), Fraction(0)) <= con.b for x in corners)
    ]


def oracle_estimate_centroid_mc(
    poly: HPolytope, samples: int, seed: int, game: WeightedGame
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """All-rows rejection estimate of a polytope built from `game`, from its chamber."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if poly.dim == 0:
        return (), ()
    n, d = game.n, poly.dim
    first = d - (n - 1)  # the quota coordinate, if any
    classes = oracle_classes(game)
    ranked = np.array([v for cls in classes for v in cls]) - 1
    lo, hi = np.array(
        [[float(l), float(h)] for l, h in oracle_quota_box(poly, game)]
    ).reshape(first, 2).T
    a_mat = np.array([[float(c) for c in con.a] for con in poly.constraints])
    b_vec = np.array([float(con.b) for con in poly.constraints])
    rng = np.random.default_rng(seed)
    kept = 0
    acc = np.zeros(first + len(classes))
    acc_sq = np.zeros(first + len(classes))
    remaining = samples
    while remaining:
        batch = min(remaining, 1 << 17)
        remaining -= batch
        quota = rng.uniform(lo, hi, size=(batch, first))
        by_rank = np.ones((batch, 1))  # a lone voter weighs 1: nothing drawn
        if n > 1:
            exps = rng.standard_exponential((batch, n))
            total = exps[:, 0].copy()
            for j in range(1, n):
                total += exps[:, j]
            # w_(i) = sum_{j >= i} e_j / j over sum e, by rank
            tails = np.cumsum((exps / np.arange(1, n + 1))[:, ::-1], axis=1)[:, ::-1]
            by_rank = tails * (1.0 / total)[:, None]
        weights = np.empty((batch, n))
        weights[:, ranked] = by_rank
        pts = np.hstack([quota, weights[:, : n - 1]])
        inside = (b_vec[None, :] - pts @ a_mat.T >= -1e-12).all(axis=1)
        by_rank = by_rank[inside]
        cols = [quota[inside, i] for i in range(first)]
        rest = np.ones(len(by_rank))
        start = 0
        for cls in classes[:-1]:
            share = by_rank[:, start].copy()
            for r in range(start + 1, start + len(cls)):
                share += by_rank[:, r]
            cols.append(share)
            rest -= share
            start += len(cls)
        cols = np.column_stack(cols + [rest])
        if len(cols):
            kept += len(cols)
            acc += np.cumsum(cols, axis=0)[-1]
            acc_sq += np.cumsum(cols**2, axis=0)[-1]
    if kept < 2:
        raise EstimateInconclusiveError(
            f"only {kept} of {samples} samples landed inside the polytope"
        )
    mean = acc / kept
    var = np.maximum((acc_sq - kept * mean**2) / (kept - 1), 0.0)
    stderr = np.sqrt(var / kept)
    of_voter = {v: c for c, cls in enumerate(classes) for v in cls}
    where = [(i, 1) for i in range(first)] + [
        (first + of_voter[v], len(classes[of_voter[v]])) for v in range(1, n)
    ]
    return (
        tuple(float(mean[c] / k) for c, k in where),
        tuple(float(stderr[c] / k) for c, k in where),
    )

