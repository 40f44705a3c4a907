"""Shared fixtures: catalogue corpus, random games, cached index values,
hand-built polytopes."""

import random
import zlib
from fractions import Fraction

import pytest

from powerpoly import INDICES, Constraint, HPolytope, parse_game
from expected_values import TABLE

# Games hash by coalition structure and the indices depend on nothing
# else, so one dict memoizes across the whole session (dual pairs and
# alternative representations collapse onto the same entry).
_index_cache = {}


def cached_index(kind, game):
    key = (kind, game)
    if key not in _index_cache:
        _index_cache[key] = INDICES[kind](game)
    return _index_cache[key]


def poly_from(dim, rows):
    """HPolytope from (coefficients, bound) pairs."""
    return HPolytope(
        dim,
        [Constraint(tuple(Fraction(c) for c in a), Fraction(b)) for a, b in rows],
    )


def mc_seed(game):
    """Stable per-structure seed for Monte Carlo checks."""
    return zlib.crc32(game.to_spec().encode())


def random_games(count=20, voters=5, seed=20260819):
    """Deterministic sample of distinct games on `voters` voters.

    Weights are drawn from 0-4, so few voters have few distinct games (4
    on two voters, 18 on three). Raises ValueError after 100 draws per
    game asked for; 20 games on 4-9 voters take at most 32 draws.
    """
    rng = random.Random(seed)
    games = []
    seen = set()
    draws = 100 * count
    while len(games) < count:
        if not draws:
            raise ValueError(
                f"only {len(games)} distinct games in {100 * count} draws, "
                f"fewer than count={count}, on voters={voters}"
            )
        draws -= 1
        weights = [rng.randint(0, 4) for _ in range(voters)]
        total = sum(weights)
        if total == 0:
            continue
        quota = rng.randint(1, total)
        spec = "[%d;%s]" % (quota, ",".join(str(w) for w in weights))
        game = parse_game(spec)
        if game in seen:
            continue
        seen.add(game)
        games.append(game)
    return games


@pytest.fixture(scope="session")
def corpus():
    """All catalogued games with n <= 4, in table order."""
    return [parse_game(spec) for spec in TABLE]


@pytest.fixture(scope="session")
def random_n5():
    return random_games()
