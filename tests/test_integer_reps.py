"""Integer grid scans: feasibility counts, averages, convergence."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from powerpoly import (
    GameFormatError,
    ScaleExceededError,
    convergence_experiment,
    convergence_to_json,
    enumerate_integer_feasible_weights,
    enumerate_integer_representations,
    grid_summary_to_json,
    integer_reps,
    is_representation,
    parse_game,
)
from powerpoly.exact_math import decimal_str
from expected_values import GRID_COUNTS, GRID_DECIMALS


def compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_grid(game, total, with_quota):
    """Composition-by-composition rescan with per-quota membership tests."""
    count = 0
    sums = [0] * game.n
    for vec in compositions(total, game.n):
        mult = sum(
            1
            for quota in range(1, total + 1)
            if is_representation(game, quota, vec)
        )
        if not with_quota:
            mult = 1 if mult else 0
        if mult:
            count += mult
            for i, w in enumerate(vec):
                sums[i] += mult * w
    average = (
        tuple(Fraction(s, count * total) for s in sums) if count else ()
    )
    return count, average


def power_sums(lo, hi):
    """Sums of 1, t and t**2 over t = lo..hi, in Python ints."""

    def upto(x):
        return x + 1, x * (x + 1) // 2, x * (x + 1) * (2 * x + 1) // 6

    return tuple(a - b for a, b in zip(upto(hi), upto(lo - 1)))


class TestFeasibleWeightCounts:
    def test_symmetric_game_at_hundred(self):
        s = enumerate_integer_feasible_weights(parse_game("[2;1,1,1]"), 100)
        assert s.count == GRID_COUNTS["[2;1,1,1]"][100][0]
        assert s.average == (Fraction(1, 3),) * 3
        assert s.with_quota is False
        assert s.total == 100

    def test_worked_game_at_hundred(self):
        s = enumerate_integer_feasible_weights(parse_game("[3;2,1,1]"), 100)
        assert s.count == GRID_COUNTS["[3;2,1,1]"][100][0]
        decs = tuple(decimal_str(v, 6) for v in s.average)
        assert decs == GRID_DECIMALS[("[3;2,1,1]", 100)]

    def test_worked_game_at_thousand(self):
        s = enumerate_integer_feasible_weights(parse_game("[3;2,1,1]"), 1000)
        assert s.count == GRID_COUNTS["[3;2,1,1]"][1000][0]
        decs = tuple(decimal_str(v, 6) for v in s.average)
        assert decs == GRID_DECIMALS[("[3;2,1,1]", 1000)]

    def test_tiny_total_with_single_vector(self):
        s = enumerate_integer_feasible_weights(parse_game("[2;1,1,1]"), 3)
        assert s.count == 1
        assert s.average == (Fraction(1, 3),) * 3

    def test_empty_grid(self):
        s = enumerate_integer_feasible_weights(parse_game("[3;2,1,1]"), 2)
        assert s.count == 0
        assert s.average == ()

    def test_single_voter(self):
        s = enumerate_integer_feasible_weights(parse_game("[1;1]"), 5)
        assert s.count == 1
        assert s.average == (Fraction(1),)


class TestRepresentationCounts:
    def test_symmetric_game_at_hundred(self):
        s = enumerate_integer_representations(parse_game("[2;1,1,1]"), 100)
        assert s.count == GRID_COUNTS["[2;1,1,1]"][100][1]
        assert s.with_quota is True

    def test_dictator_at_one(self):
        s = enumerate_integer_representations(parse_game("[1;1]"), 1)
        assert s.count == 1
        assert s.average == (Fraction(1),)

    def test_tiny_total_with_single_representation(self):
        s = enumerate_integer_representations(parse_game("[2;1,1,1]"), 3)
        assert s.count == 1

    @pytest.mark.parametrize("total", [5_000_001, 19_999_999])
    def test_large_two_voter_sums_do_not_overflow(self, total):
        # sum of w_1 * quotas over the grid passes 2**63 at these totals
        s = enumerate_integer_representations(parse_game("[2;1,1]"), total)
        assert s.count == (total * total - 1) // 4
        assert s.average == (Fraction(1, 2), Fraction(1, 2))

    @pytest.mark.parametrize("total", [19_999_998, 19_999_999, 10**12])
    def test_largest_two_voter_totals_for_a_dictator(self, total):
        # [1;1,0] on (t, total - t): the gap is 2t - total, so the feasible
        # t are those above total / 2, each with 2t - total quotas. The
        # first two totals were the largest a 20M-point cap admitted; the
        # last runs the one head on Python ints, far past it
        game = parse_game("[1;1,0]")
        s0, s1, s2 = power_sums(total // 2 + 1, total)

        def average(count, first_sum):
            return (
                Fraction(first_sum, count * total),
                Fraction(total * count - first_sum, count * total),
            )

        s = enumerate_integer_feasible_weights(game, total)
        assert (s.count, s.average) == (s0, average(s0, s1))
        count = 2 * s1 - total * s0
        s = enumerate_integer_representations(game, total)
        assert (s.count, s.average) == (
            count,
            average(count, 2 * s2 - total * s1),
        )

    def test_single_voter_beyond_int64(self):
        total = 10**30
        s = enumerate_integer_representations(parse_game("[3;5]"), total)
        assert s.count == total
        assert s.average == (Fraction(1),)


class TestGridOracle:
    @pytest.mark.parametrize(
        "spec,total",
        [
            ("[3;2,1,1]", 9),
            ("[2;1,1,1]", 8),
            ("[1;1,0]", 6),
            ("[3;1,1,1,1]", 7),
            ("[4;3,2,2,1]", 8),
        ],
    )
    def test_counts_and_averages_match_per_quota_rescan(self, spec, total):
        game = parse_game(spec)
        for fn, with_quota in (
            (enumerate_integer_feasible_weights, False),
            (enumerate_integer_representations, True),
        ):
            s = fn(game, total)
            count, average = brute_grid(game, total, with_quota)
            assert s.count == count
            assert s.average == average

    def test_every_counted_vector_is_feasible_somewhere(self):
        # representation count differs from zero exactly when the weight
        # vector is feasible, so the two scans must agree on support
        game = parse_game("[3;2,1,1]")
        for total in (4, 7, 10):
            fw = enumerate_integer_feasible_weights(game, total)
            reps = enumerate_integer_representations(game, total)
            assert (fw.count == 0) == (reps.count == 0)
            assert reps.count >= fw.count


class TestConvergence:
    def test_worked_game_over_four_totals(self):
        table = convergence_experiment(
            parse_game("[3;2,1,1]"), (100, 200, 500, 1000)
        )
        assert table.limit.values == (
            Fraction(11, 18),
            Fraction(7, 36),
            Fraction(7, 36),
        )
        dists = [row.l1_to_limit for row in table.rows]
        assert all(d is not None for d in dists)
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert table.rows[0].summary.count == 1601
        assert table.rows[-1].summary.count == 166001

    def test_symmetric_game_is_exact_at_every_total(self):
        table = convergence_experiment(parse_game("[2;1,1,1]"), (10, 50, 100))
        for row in table.rows:
            assert row.summary.average == (Fraction(1, 3),) * 3
            assert row.l1_to_limit == 0

    def test_quota_mode_converges_to_representation_index(self):
        table = convergence_experiment(
            parse_game("[3;2,1,1]"), (50, 200), with_quota=True
        )
        assert table.limit.values == (
            Fraction(7, 12),
            Fraction(5, 24),
            Fraction(5, 24),
        )
        assert table.limit.avg_quota == Fraction(2, 3)
        assert table.rows[0].l1_to_limit == Fraction(1, 1302)
        assert table.rows[1].l1_to_limit == Fraction(1, 20202)

    def test_empty_grid_row_has_no_distance(self):
        table = convergence_experiment(parse_game("[3;2,1,1]"), (2,))
        assert table.rows[0].summary.count == 0
        assert table.rows[0].l1_to_limit is None

    def test_rejects_empty_totals(self):
        with pytest.raises(GameFormatError, match="^empty totals list$"):
            convergence_experiment(parse_game("[3;2,1,1]"), ())

    def test_rejects_non_ascending_totals(self):
        with pytest.raises(ValueError):
            convergence_experiment(parse_game("[3;2,1,1]"), (100, 100))

    def test_numpy_totals_give_int_rows(self):
        game = parse_game("[3;2,1,1]")
        table = convergence_experiment(game, [np.int64(5), np.int64(10)])
        assert table == convergence_experiment(game, (5, 10))
        assert [type(row.summary.total) for row in table.rows] == [int, int]


def test_json_renderers_refuse_past_thousand_places():
    game = parse_game("[3;2,1,1]")
    summary = enumerate_integer_feasible_weights(game, 10)
    table = convergence_experiment(game, [5, 10])
    assert grid_summary_to_json(game, summary, 1000)["count"] == 11
    with pytest.raises(ValueError, match="at most 1000"):
        grid_summary_to_json(game, summary, 1001)
    with pytest.raises(ValueError, match="at most 1000"):
        convergence_to_json(game, table, 1001)


class TestConvergenceScale:
    """Every total is checked before the exact limit or any scan runs."""

    @pytest.fixture(autouse=True)
    def refuse_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("computed before the scale check")

        for name in (
            "average_weight_index",
            "average_representation_index",
            "_grid_scan",
        ):
            monkeypatch.setattr(integer_reps, name, refuse)

    @pytest.mark.parametrize("with_quota", [False, True])
    @pytest.mark.parametrize(
        "spec", ["[18;8,7,6,5,4,3,2,1]", "[20;9,8,7,6,5,4,3,2,1]"]
    )
    def test_too_many_voters(self, spec, with_quota):
        # too many voters for the total: at 8-9 voters, 200 is past the
        # grid budget, while 10 and 20 are within it
        with pytest.raises(ScaleExceededError, match="grid for total 200 "):
            convergence_experiment(parse_game(spec), (10, 20, 200), with_quota)

    @pytest.mark.parametrize("with_quota", [False, True])
    def test_oversized_last_total(self, with_quota):
        # 10,827,401 heads of 16 coalition weights
        with pytest.raises(ScaleExceededError, match="grid for total 400"):
            convergence_experiment(
                parse_game("[8;5,3,2,2,1]"), (10, 20, 400), with_quota
            )

    def test_non_integral_total(self):
        with pytest.raises(GameFormatError, match="must be an integer, not 10.7"):
            convergence_experiment(parse_game("[3;2,1,1]"), (5, 10.7))


class TestScaleLimits:
    def test_grid_memory_does_not_grow_with_the_grid(self):
        game = parse_game("[2;1,1]")
        tracemalloc.start()
        try:
            s = enumerate_integer_feasible_weights(game, 4_999_999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.count == 4_999_998
        assert peak < 64 * 2**20

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            enumerate_integer_feasible_weights(parse_game("[2;1,1,1]"), 0)

    def test_rejects_six_voters(self):
        # six voters at total 100: 4,598,126 heads of 35 coalition weights
        with pytest.raises(ScaleExceededError):
            enumerate_integer_feasible_weights(
                parse_game("[4;1,1,1,1,1,1]"), 100
            )

    def test_rejects_oversized_grid(self):
        # five voters at total 400: 10,827,401 heads of 20 coalition weights
        with pytest.raises(ScaleExceededError):
            enumerate_integer_representations(
                parse_game("[3;1,1,1,1,1]"), 400
            )

    def test_budget_counts_heads_times_coalitions(self):
        # [10;6,5,4,3,2,1,1] prices a head at 14 + 12 = 26 coalition
        # weights, so 3,819,816 heads at total 51 fit 1e8 and 4,187,106
        # at 52 do not
        game = parse_game("[10;6,5,4,3,2,1,1]")
        assert 26 * 3_819_816 <= integer_reps.GRID_BUDGET < 26 * 4_187_106
        assert integer_reps._check_scale(game, 51) == 51
        with pytest.raises(ScaleExceededError, match="4187106 heads of 26 "):
            enumerate_integer_feasible_weights(game, 52)

    @pytest.mark.parametrize(
        "scan",
        [enumerate_integer_feasible_weights, enumerate_integer_representations],
    )
    def test_largest_three_voter_total(self, scan):
        # 65,535 heads of 16 coalition weights; a block of such heads
        # still fits int64
        s = scan(parse_game("[2;1,1,1]"), 65_534)
        assert s.total == 65_534
        assert s.average == (Fraction(1, 3),) * 3
        with pytest.raises(ScaleExceededError, match="overflows int64"):
            scan(parse_game("[2;1,1,1]"), 65_535)

    @pytest.mark.parametrize("total", [10.7, 10.0, Fraction(10), "10"])
    def test_rejects_non_integral_totals(self, total):
        for scan in (
            enumerate_integer_feasible_weights,
            enumerate_integer_representations,
        ):
            with pytest.raises(GameFormatError, match="must be an integer"):
                scan(parse_game("[3;2,1,1]"), total)

    def test_accepts_numpy_totals(self):
        game = parse_game("[3;2,1,1]")
        s = enumerate_integer_representations(game, np.int64(100))
        assert s == enumerate_integer_representations(game, 100)
        assert type(s.total) is int
