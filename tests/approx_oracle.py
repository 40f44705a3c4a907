"""Unchunked grid scans, Fraction bounding boxes and the all-rows estimator.

These are the approximate layers as they were before blocking: the grid
scan tests one composition tail at a time and sums each column in int64,
the bounding box propagates bounds in Fractions over every coordinate of
every constraint, and the Monte Carlo estimator tests each batch of
points against all constraint rows in one float matrix. The library
versions must return exactly what these return (the grid scan only
where its int64 sums cannot overflow), so they stay as the reference.
"""

from fractions import Fraction

import numpy as np

from powerpoly.game_core import WeightedGame
from powerpoly.integer_reps import GridSummary
from powerpoly.polytope import EstimateInconclusiveError, HPolytope


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


def oracle_simplex_block(poly: HPolytope) -> tuple[tuple[int, ...], Fraction]:
    nonneg = set()
    for con in poly.constraints:
        support = [i for i, c in enumerate(con.a) if c != 0]
        if len(support) == 1 and con.a[support[0]] < 0 and con.b == 0:
            nonneg.add(support[0])
    best: tuple[tuple[int, ...], Fraction] = ((), Fraction(0))
    for con in poly.constraints:
        support = [i for i, c in enumerate(con.a) if c != 0]
        if len(support) < 2 or not set(support) <= nonneg:
            continue
        coef = con.a[support[0]]
        if coef <= 0 or any(con.a[i] != coef for i in support):
            continue
        scale = con.b / coef
        if scale > 0 and len(support) > len(best[0]):
            best = (tuple(support), scale)
    return best


def oracle_estimate_centroid_mc(
    poly: HPolytope, samples: int, seed: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    if samples < 1:
        raise ValueError("samples must be positive")
    d = poly.dim
    if d == 0:
        return (), ()
    box = oracle_bounding_box(poly)
    if any(l > h for l, h in box):
        raise EstimateInconclusiveError("bounding box is empty")
    block, scale = oracle_simplex_block(poly)
    free = [i for i in range(d) if i not in block]
    lo = np.array([float(box[i][0]) for i in free])
    hi = np.array([float(box[i][1]) for i in free])
    a_mat = np.array([[float(c) for c in con.a] for con in poly.constraints])
    b_vec = np.array([float(con.b) for con in poly.constraints])
    rng = np.random.default_rng(seed)
    kept = 0
    acc = np.zeros(d)
    acc_sq = np.zeros(d)
    remaining = samples
    while remaining:
        batch = min(remaining, 1 << 17)
        remaining -= batch
        pts = np.empty((batch, d))
        if free:
            pts[:, free] = rng.uniform(lo, hi, size=(batch, len(free)))
        if block:
            k = len(block)
            simplex = rng.dirichlet(np.ones(k + 1), size=batch)[:, :k]
            pts[:, block] = simplex * float(scale)
        inside = pts[(b_vec[None, :] - pts @ a_mat.T >= -1e-12).all(axis=1)]
        if len(inside):
            kept += len(inside)
            acc += inside.sum(axis=0)
            acc_sq += (inside**2).sum(axis=0)
    if kept < 2:
        raise EstimateInconclusiveError(
            f"only {kept} of {samples} samples landed inside the polytope"
        )
    mean = acc / kept
    var = np.maximum((acc_sq - kept * mean**2) / (kept - 1), 0.0)
    stderr = np.sqrt(var / kept)
    return tuple(float(v) for v in mean), tuple(float(v) for v in stderr)
