"""Closed-form grid scans, quota boxes and row-block rejection from the chamber.

Each must return exactly what the reference in approx_oracle.py returns:
equal grid summaries, equal quota intervals, and equal Monte Carlo
estimate tuples or the same refusal from the chamber reference, which
tests every row. Block sizes are patched down in places so that small
inputs cross many block boundaries. Polytopes not built from a game are
refused before any set-up or draw.
"""

import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerpoly import estimate, integer_reps, polytope
from powerpoly.estimate import (
    EstimateInconclusiveError,
    _chamber,
    _proposal,
    estimate_centroid_mc,
)
from powerpoly.game_core import parse_game
from powerpoly.integer_reps import _grid_scan
from powerpoly.polytope import (
    HPolytope,
    build_representation_polytope,
    build_weight_polytope,
)
from approx_oracle import (
    oracle_bounding_box,
    oracle_dead_rows,
    oracle_estimate_centroid_mc,
    oracle_grid_scan,
    oracle_quota_box,
)
from conftest import poly_from
from expected_values import TABLE
from test_game_core import small_games

BUILDERS = (build_weight_polytope, build_representation_polytope)

# The Monte Carlo games of the benchmark's approx workload (n = 5..9),
# then one whose voters are all tied (a single class, so every weight
# column is the constant 1/6) and one with two zero-weight dummies.
MC_GAMES = (
    "[1;1,4,2,2,0]",
    "[2;1,3,4,3,2]",
    "[9;2,3,2,2,0]",
    "[2;1,1,1,0,0,0]",
    "[9;5,4,3,2,1,1]",
    "[10;6,5,4,3,2,1,1]",
    "[13;8,6,5,4,3,2,1,1]",
    "[20;9,8,7,6,5,4,3,2,1]",
    "[5;1,1,1,1,1,1]",
    "[4;3,2,1,1,0,0]",
)

# Monte Carlo column chunks: single points, chunks that end off the end
# of a batch (131,072 is no multiple of 3 or 8,191), and one chunk that
# holds the whole batch.
COLUMN_CHUNKS = (1, 3, 8_191, (1 << 17) + 1)

# One game per voter count for the exhaustive grid comparisons.
GRID_GAMES = ("[1;1]", "[2;1,1]", "[3;2,1,1]", "[3;2,1,1,1]", "[8;5,3,2,2,1]")

# Polytopes not built from a game: fractional rows, a thin band, an
# empty one, a row with gcd 2, a row scaled by 1e-13, rows that bound a
# coordinate only through a chain of others, and a point.
UNIT_TRIANGLE = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
HAND_BUILT = {
    "unit-triangle": poly_from(2, UNIT_TRIANGLE),
    "fractional": poly_from(
        3,
        [
            ((Fraction(-1, 2), 0, 0), 0),
            ((0, -3, 0), Fraction(1, 7)),
            ((0, 0, -1), 0),
            ((Fraction(2, 3), Fraction(1, 5), 1), Fraction(5, 4)),
            ((1, -Fraction(1, 3), 0), Fraction(1, 2)),
        ],
    ),
    "band": poly_from(
        2,
        [
            ((-1, 0), 0),
            ((0, -1), 0),
            ((1, 0), 1),
            ((0, 1), 1),
            ((1, -1), Fraction(1, 1000)),
            ((-1, 1), Fraction(1, 1000)),
        ],
    ),
    "chained": poly_from(
        3,
        [
            ((-1, 0, 0), 0),
            ((1, 0, 0), Fraction(2, 3)),
            ((-1, -1, 0), 0),
            ((1, 1, 0), 1),
            ((0, 1, -1), Fraction(1, 4)),
            ((0, -1, 1), Fraction(1, 5)),
        ],
    ),
    "empty-box": poly_from(1, [((1,), 0), ((-1,), -1)]),
    "gapped": poly_from(
        3,
        [
            ((-1, 0, 0), 0),
            ((0, 0, -1), 0),
            ((2, 0, 2), 2),
            ((0, -1, 0), Fraction(1, 2)),
            ((0, 1, 0), 1),
            ((-1, 1, 1), Fraction(3, 4)),
        ],
    ),
    "tiny-row": poly_from(
        2,
        UNIT_TRIANGLE + [((Fraction(1, 10**13), -Fraction(1, 10**13)), 0)],
    ),
    "late-chain": poly_from(
        3,
        [
            ((-1, 0, -1), 0),
            ((-1, 1, 0), 0),
            ((1, 0, 0), 1),
            ((0, -1, 1), 0),
        ],
    ),
    "zero-dimensional": HPolytope(0, []),
}


def outcome(estimator, poly, samples, seed, *game):
    """Estimate tuple, or the refusal's message."""
    try:
        return estimator(poly, samples, seed, *game)
    except EstimateInconclusiveError as exc:
        return str(exc)


def assert_same_estimate(poly, samples, seed, game):
    """The library against the all-rows chamber reference on `game`'s polytope."""
    got = outcome(estimate_centroid_mc, poly, samples, seed)
    want = outcome(oracle_estimate_centroid_mc, poly, samples, seed, game)
    if isinstance(want, str):
        # the library adds a hint about where rejection stops working
        assert isinstance(got, str) and got.startswith(want), got
    else:
        assert got == want


# -- quota boxes ----------------------------------------------------------

def box(poly):
    """The quota interval the library draws from, as floats."""
    p = _proposal(poly, poly._cache["game"])
    return list(zip(p.lo.tolist(), p.hi.tolist()))


def oracle_box(poly):
    """The chamber's quota interval within the bounding box, as floats."""
    return [
        (float(lo), float(hi))
        for lo, hi in oracle_quota_box(poly, poly._cache["game"])
    ]


@pytest.mark.parametrize("builder", BUILDERS)
def test_boxes_on_catalogue_and_mc_games(builder):
    # the chamber alone leaves the quota what the bounding box does too;
    # a weight polytope has no quota
    for spec in (*TABLE, *MC_GAMES):
        poly = builder(parse_game(spec))
        assert box(poly) == oracle_box(poly), spec
        assert len(box(poly)) == (builder is build_representation_polytope)


def test_unbounded_input_raises_in_both():
    quadrant = poly_from(2, [((-1, 0), 0), ((0, -1), 0), ((1, -1), 3)])
    with pytest.raises(ValueError):
        oracle_bounding_box(quadrant)
    with pytest.raises(ValueError, match="built from a game"):
        estimate_centroid_mc(quadrant, 1_000, 1)


@settings(max_examples=30, deadline=None)
@given(small_games(), st.booleans())
def test_boxes_on_drawn_games(game, rep):
    poly = BUILDERS[rep](game)
    assert box(poly) == oracle_box(poly)


# -- grid scans -----------------------------------------------------------

@pytest.mark.parametrize("with_quota", [False, True])
@pytest.mark.parametrize("spec", GRID_GAMES)
def test_grid_scans_up_to_total_sixty(spec, with_quota):
    game = parse_game(spec)
    totals = range(1, 61) if game.n <= 4 else (1, 2, 3, 5, 8, 13, 21, 34, 60)
    for total in totals:
        assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
            game, total, with_quota
        ), total


@pytest.mark.parametrize("chunk", [1, 2, 7, 64])
@pytest.mark.parametrize("spec", GRID_GAMES)
def test_grid_scans_across_small_blocks(monkeypatch, spec, chunk):
    # blocks of a few heads, so one scan's heads span many blocks
    monkeypatch.setattr(integer_reps, "CHUNK", chunk)
    game = parse_game(spec)
    for total in (1, 5, 17):
        for with_quota in (False, True):
            assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
                game, total, with_quota
            ), total


@pytest.mark.parametrize("spec", GRID_GAMES)
def test_grid_scans_on_python_ints(monkeypatch, spec):
    # CHUNK * (total + 1)**3 past 2**61 switches the scan from int64 to
    # Python ints
    monkeypatch.setattr(integer_reps, "CHUNK", 1 << 62)
    assert not integer_reps._int64_holds(1)
    game = parse_game(spec)
    for total in (1, 5, 17):
        for with_quota in (False, True):
            assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
                game, total, with_quota
            ), total


# the first total a scan runs on Python ints at the default CHUNK
PYTHON_INT_TOTAL = 65_535


@pytest.mark.parametrize("offset", [-2, -1, 0, 1, integer_reps.CHUNK + 1])
def test_two_voter_tails_around_the_block_size(offset):
    # n = 2 has one head, whose tail is the whole grid; the offsets
    # straddle the int64 -> Python-int switch, the last lies well past it
    assert integer_reps._int64_holds(PYTHON_INT_TOTAL - 1)
    assert not integer_reps._int64_holds(PYTHON_INT_TOTAL)
    game = parse_game("[2;2,1]")
    total = PYTHON_INT_TOTAL + offset
    for with_quota in (False, True):
        assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
            game, total, with_quota
        )


@pytest.mark.parametrize("with_quota", [False, True])
def test_grid_scans_at_the_largest_three_voter_total(with_quota):
    # the gap along each tail has all five slopes -2..2 in this game; 6,323
    # was the largest total a 20M-point cap admitted at three voters
    total = 6_323
    game = parse_game("[2;1,1,1]")
    assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
        game, total, with_quota
    )


@pytest.mark.parametrize("with_quota", [False, True])
@pytest.mark.parametrize(
    "spec,totals",
    [
        ("[10;6,5,4,3,2,1]", (5, 21)),
        ("[2;1,1,1,0,0,0]", (6, 12)),
        ("[10;6,5,4,3,2,1,1]", (7, 15)),
        ("[4;1,1,1,1,1,1,1]", (7, 13)),
        ("[3;2,1,1,0,0,0,0]", (8, 11)),
    ],
)
def test_grid_scans_at_six_and_seven_voters(spec, totals, with_quota):
    # the first two games' integer grids start at their weight sums, 21
    # and 22; the others have feasible points at every total listed but 15
    game = parse_game(spec)
    for total in totals:
        assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
            game, total, with_quota
        ), total


def test_grid_blocks_shrink_with_the_coalitions():
    # 12,870 minimal winning and 11,440 maximal losing coalitions; with
    # one block of all 680 heads this scan peaked at 40 MB traced
    game = parse_game(f"[8;{','.join(['1'] * 16)}]")
    tracemalloc.start()
    try:
        summary = _grid_scan(game, 3, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary.count == 0
    assert peak < 16 << 20, peak


def test_grid_scan_holds_one_block_of_heads():
    # 529,396 heads: holding them all took 32 MB of int64 arrays
    game = parse_game("[8;5,3,2,2,1]")
    _grid_scan(game, 5, True)  # first-call allocations
    tracemalloc.start()
    try:
        _grid_scan(game, 145, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


@settings(max_examples=25, deadline=None)
@given(small_games(), st.integers(1, 30), st.booleans())
def test_grid_scans_on_drawn_games(game, total, with_quota):
    assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
        game, total, with_quota
    )


@settings(max_examples=20, deadline=None)
@given(
    small_games().filter(lambda game: game.n <= 4),
    st.integers(1, 200),
    st.booleans(),
)
def test_grid_scans_on_drawn_games_up_to_total_200(game, total, with_quota):
    assert _grid_scan(game, total, with_quota) == oracle_grid_scan(
        game, total, with_quota
    )


# -- Monte Carlo ----------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("builder", BUILDERS)
@pytest.mark.parametrize("spec", MC_GAMES)
def test_estimates_on_mc_games(spec, builder, seed):
    game = parse_game(spec)
    poly = builder(game)
    # the reference holds samples x rows floats at once
    samples = min(40_000, 2_000_000 // len(poly.constraints))
    assert_same_estimate(poly, samples, seed, game)


@pytest.mark.parametrize("builder", BUILDERS)
def test_estimates_across_batches_and_small_row_blocks(monkeypatch, builder):
    monkeypatch.setattr(estimate, "ROW_BLOCK", 2)
    game = parse_game("[2;1,3,4,3,2]")
    assert_same_estimate(builder(game), (1 << 17) + 999, 11, game)


@pytest.mark.parametrize("builder", BUILDERS)
def test_estimates_read_the_game_not_the_builder_rows(monkeypatch, builder):
    # the estimator writes its rows from the game's coalitions, so a game
    # polytope estimates without ever writing its integer rows, and it
    # leaves the polytope as its builder left it
    def written(*args):
        raise AssertionError("the polytope's integer rows were written")

    for spec in MC_GAMES[:6]:
        game = parse_game(spec)
        poly = builder(game)
        built = dict(poly._cache)
        with monkeypatch.context() as patched:
            patched.setattr(polytope, "_game_rows", written)
            patched.setattr(polytope, "_scaled_rows", written)
            outcome(estimate_centroid_mc, poly, 20_000, 3)
        assert "rows" not in poly._cache
        assert poly._cache == built
        assert_same_estimate(poly, 20_000, 3, game)  # the reference reads the rows


def forbid_set_up(monkeypatch):
    """Make any estimate's set-up or draw fail the test."""

    def set_up(*args):
        raise AssertionError("set-up or a draw started")

    monkeypatch.setattr(estimate, "_proposal", set_up)
    monkeypatch.setattr(np.random, "default_rng", set_up)


def assert_refused_or_point(monkeypatch, poly, samples, seed):
    """A point has the empty estimate; any other polytope without a game
    is refused before any set-up or draw."""
    forbid_set_up(monkeypatch)
    before = dict(poly._cache)
    if poly.dim == 0:
        assert estimate_centroid_mc(poly, samples, seed) == ((), ())
    else:
        with pytest.raises(ValueError, match="built from a game"):
            estimate_centroid_mc(poly, samples, seed)
    assert poly._cache == before


@pytest.mark.parametrize("samples", [2.5, 2_000.0, "2000", None])
@pytest.mark.parametrize("builder", BUILDERS)
def test_non_integer_samples_are_refused_before_set_up(monkeypatch, builder, samples):
    poly = builder(parse_game("[3;2,1,1]"))
    built = dict(poly._cache)
    forbid_set_up(monkeypatch)
    with pytest.raises(ValueError, match="samples must be an integer"):
        estimate_centroid_mc(poly, samples, 1)
    assert poly._cache == built


@pytest.mark.parametrize("builder", BUILDERS)
def test_integer_samples_of_any_integer_type_estimate_alike(builder):
    poly = builder(parse_game("[3;2,1,1]"))
    assert estimate_centroid_mc(poly, np.int64(2_000), 1) == estimate_centroid_mc(
        poly, 2_000, 1
    )


@pytest.mark.parametrize("row_block", [1, 3, 32])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_estimates_on_hand_built_polytopes(monkeypatch, name, row_block):
    monkeypatch.setattr(estimate, "ROW_BLOCK", row_block)
    for samples, seed in ((40, 7), (5_000, 3), (60_000, 42)):
        assert_refused_or_point(monkeypatch, HAND_BUILT[name], samples, seed)


@pytest.mark.parametrize("chunk", COLUMN_CHUNKS)
@pytest.mark.parametrize("name", ["zero-dimensional"])
def test_estimates_on_hand_built_polytopes_in_column_chunks(monkeypatch, name, chunk):
    monkeypatch.setattr(estimate, "COLUMN_CHUNK", chunk)
    for samples, seed in ((40, 7), (5_000, 3)):
        assert_refused_or_point(monkeypatch, HAND_BUILT[name], samples, seed)


@pytest.mark.parametrize("chunk", COLUMN_CHUNKS)
@pytest.mark.parametrize("builder", BUILDERS)
def test_estimates_on_mc_games_in_column_chunks(monkeypatch, builder, chunk):
    monkeypatch.setattr(estimate, "COLUMN_CHUNK", chunk)
    for spec in MC_GAMES:
        game = parse_game(spec)
        poly = builder(game)
        # every chunk is a pass of a Python loop, so small chunks get
        # proportionally fewer samples
        samples = min(40_000, 2_000_000 // len(poly.constraints), 2_000 * chunk)
        assert_same_estimate(poly, samples, 1, game)


@pytest.mark.parametrize("chunk", COLUMN_CHUNKS[1:])
@pytest.mark.parametrize(
    "spec", ["[2;1,3,4,3,2]", "[1;1]"], ids=["quota-and-chamber", "quota-only"]
)
def test_estimates_across_batches_in_column_chunks(monkeypatch, spec, chunk):
    # a representation polytope draws the whole batch's quota uniforms
    # before its chunks' chamber draws, so a stream drawn in any other
    # order shows here; [1;1] draws its quotas alone
    monkeypatch.setattr(estimate, "COLUMN_CHUNK", chunk)
    game = parse_game(spec)
    assert_same_estimate(
        build_representation_polytope(game), (1 << 17) + 999, 5, game
    )


@pytest.mark.parametrize(
    "samples, seed, estimate, stderr",
    [
        (40, 1, "0x1.00bd981884c6fp-1", "0x1.75aca9af55b1ap-5"),
        (40, 5, "0x1.f310715c5d6bap-2", "0x1.94b5bd5d2aefbp-5"),
        ((1 << 17) + 999, 1, "0x1.003b65c3b5bdcp-1", "0x1.a0306c644c75bp-11"),
        ((1 << 17) + 999, 5, "0x1.000cae19c42fcp-1", "0x1.a06baecd22d36p-11"),
    ],
)
def test_lone_voter_quota_estimate_is_pinned(samples, seed, estimate, stderr):
    # a 1-voter game draws only its quota, from the uniforms and in the
    # order its estimates have always come from
    poly = build_representation_polytope(parse_game("[1;1]"))
    assert estimate_centroid_mc(poly, samples, seed) == (
        (float.fromhex(estimate),),
        (float.fromhex(stderr),),
    )


def test_estimate_holds_one_chunk_of_slacks():
    poly = build_weight_polytope(parse_game("[20;9,8,7,6,5,4,3,2,1]"))

    def peak(samples):
        tracemalloc.start()
        try:
            outcome(estimate_centroid_mc, poly, samples, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    outcome(estimate_centroid_mc, poly, 1_000, 1)  # first-call allocations
    one_batch = peak(1 << 17)
    # a whole batch against one row block would hold 32 MB of slacks
    assert one_batch < 8 << 20, one_batch
    # three batches hold the same chunk arrays; only Python ints differ
    assert peak(300_000) <= one_batch + (64 << 10)


@pytest.mark.parametrize("n", range(2, 10))
def test_chamber_draw_is_uniform_on_the_ordered_chamber(n):
    # C's centroid is the mean of its vertices v_j (1/j on the first j
    # rows): w_(i) = (1/n) sum_{j >= i} 1/j
    draws = 200_000
    points = np.empty((n, draws))
    _chamber(np.random.default_rng(n), points)
    assert (np.diff(points, axis=0) <= 0).all()
    assert np.allclose(points.sum(axis=0), 1.0)
    exact = [sum(Fraction(1, j) for j in range(i, n + 1)) / n for i in range(1, n + 1)]
    stderr = points.std(axis=1) / np.sqrt(draws)
    for got, want, err in zip(points.mean(axis=1), exact, stderr):
        assert abs(got - float(want)) <= 5 * err, (got, want, err)


class RowSpy(np.ndarray):
    """Float rows that count, per row, the points a matmul tests on them."""

    def __array_finalize__(self, obj):
        self.counts = getattr(obj, "counts", None)
        self.origin = getattr(obj, "origin", None)

    def __matmul__(self, other):
        first = (self.ctypes.data - self.origin) // self.strides[0]
        for r in range(first, first + len(self)):
            self.counts[r] += other.shape[1]
        return np.asarray(self) @ other


@pytest.mark.parametrize("builder", BUILDERS)
def test_skipped_rows_are_never_evaluated(monkeypatch, builder):
    monkeypatch.setattr(estimate, "ROW_BLOCK", 5)
    game = parse_game("[9;5,4,3,2,1,1]")
    poly = builder(game)
    samples, rows = 20_000, len(poly.constraints)
    setup = _proposal(poly, game)
    # estimator row k is builder row k + offset, past the bound rows
    offset = game.n if builder is build_weight_polytope else game.n + 2
    skipped = sorted(set(range(rows)) - {k + offset for k in setup.live})
    # what the library skips holds at every corner of the proposal region
    assert skipped == oracle_dead_rows(poly, game)
    assert 0 < len(skipped) < rows
    counts = Counter()

    def spied(*args):
        p = _proposal(*args)
        spy = p.a.view(RowSpy)
        spy.counts = counts
        spy.origin = spy.ctypes.data
        return p._replace(a=spy)

    monkeypatch.setattr(estimate, "_proposal", spied)
    got = estimate_centroid_mc(poly, samples, 4)
    evaluated = {setup.live[r] + offset for r in counts}
    assert evaluated and not evaluated & set(skipped)
    # the reference tests every row on every point and agrees
    assert sum(counts.values()) < (rows - len(skipped)) * samples
    assert got == oracle_estimate_centroid_mc(poly, samples, 4, game)
