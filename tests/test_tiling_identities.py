"""Tiling identities over every weighted game of up to six voters.

A pair (q, w) with w in the weight simplex and 0 < q <= 1 represents
exactly one game, {S : w(S) >= q}. So the representation polytopes of
all labelled n-voter games tile the simplex times [0, 1], and a generic
w, with 2^n distinct coalition weights, lies in the weight polytopes of
2^n - 1 games. A game stands for n! / prod |C|! labelled copies, C
running over its desirability classes. Summed over every game, the
volumes and quota moments the exact pipeline returns must therefore
match closed forms with `==`: a missing vertex, cell or row anywhere
breaks the sum. The integer grid tiles the same way.

Tier-1 runs the polytope identities up to five voters. all_games(6)
generates the 1,111 six-voter games in 0.3 s; their identities take
about 3 s and the index battery of tests/test_acceptance.py about 7 s
more, so CI runs both in a step of its own.
"""

from fractions import Fraction
from math import comb, factorial, prod

import pytest

from powerpoly import CANONICAL_GAMES, WeightedGame, parse_game
from powerpoly.game_core import desirability_classes
from powerpoly.integer_reps import enumerate_integer_representations
from powerpoly.polytope import (
    build_representation_polytope,
    build_weight_polytope,
    moments,
    volume,
)


def partitions(s, parts, top):
    """Partitions of s into at most `parts` parts of at most `top`, as
    nonincreasing tuples."""
    if not s:
        yield ()
    elif parts:
        for first in range(min(s, top), 0, -1):
            for rest in partitions(s - first, parts - 1, first):
                yield (first, *rest)


# Weight sums the generator tries, per voter count n: every n-voter game
# has integer weights summing to at most this. The game counts stop
# growing there (1, 3, 8, 25, 117, 1,111, as in Kurz, "On minimum sum
# representations for weighted voting games", 2012); the 6-voter count
# stays at 1,111 up to a sum of 40. 2^(n-1) falls short at n = 6, with
# 1,109 games.
WEIGHT_SUM_BOUND = {1: 1, 2: 2, 3: 4, 4: 8, 5: 16, 6: 33}


def all_games(n):
    """Every weighted game on n <= 6 voters, once per coalition structure.

    Weights are the partitions of s <= WEIGHT_SUM_BOUND[n] into at most n
    parts, padded with zeros, and the quota runs over each distinct
    positive coalition weight, in increasing order. The first
    representation of each game is kept. A candidate is keyed by the
    bitmask of its winning coalitions, read off one subset-sum table per
    weight vector, and a WeightedGame is built only for a new key.
    """
    games = {}
    for s in range(1, WEIGHT_SUM_BOUND[n] + 1):
        for part in partitions(s, n, s):
            weights = part + (0,) * (n - len(part))
            sums = [0]  # sums[c], the weight of the coalition with bitmask c
            for w in weights:
                sums += [x + w for x in sums]
            at = {}  # coalition weight -> bitmask of the coalitions of that weight
            for c, x in enumerate(sums):
                at[x] = at.get(x, 0) | 1 << c
            key = 0
            keys = []  # (quota, bitmask of the coalitions that reach it)
            for quota in sorted(at, reverse=True):
                key |= at[quota]
                keys.append((quota, key))
            for quota, key in reversed(keys):
                if quota and key not in games:
                    games[key] = WeightedGame(quota, weights)
    return list(games.values())


GAMES = {n: all_games(n) for n in range(1, 6)}


def copies(game):
    """Labelled games isomorphic to `game`."""
    sizes = map(len, desirability_classes(game))
    return factorial(game.n) // prod(factorial(k) for k in sizes)


def test_game_counts():
    assert [len(GAMES[n]) for n in range(1, 6)] == [1, 3, 8, 25, 117]


def test_up_to_four_voters_is_the_catalogue():
    generated = {game for n in range(1, 5) for game in GAMES[n]}
    assert generated == {parse_game(spec) for spec in CANONICAL_GAMES}


def assert_polytopes_tile(n, games):
    """The volume and quota sums over `games`, every n-voter game, match
    their closed forms exactly."""
    weight = rep = quota = Fraction(0)
    for game in games:
        k = copies(game)
        weight += k * volume(build_weight_polytope(game))
        poly = build_representation_polytope(game)
        rep += k * volume(poly)
        quota += k * moments(poly)[0]
    simplex = Fraction(1, factorial(n - 1))
    assert weight == (2**n - 1) * simplex
    assert rep == simplex
    assert quota == simplex / 2


@pytest.mark.parametrize("n", range(1, 6))
def test_polytopes_tile_the_simplex(n):
    assert_polytopes_tile(n, GAMES[n])


@pytest.mark.parametrize("n", range(2, 6))
def test_integer_representations_tile_the_grid(n):
    for total in (1, 5, 12):
        count = sum(
            copies(game) * enumerate_integer_representations(game, total).count
            for game in GAMES[n]
        )
        assert count == total * comb(total + n - 1, n - 1)
