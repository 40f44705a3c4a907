"""Incidence coning and integer integrals against the Fraction oracle.

Both layers must return identical constraint columns, identical
(lexmin-apex) cell lists, and identical volume, moments and centroid (or
both refuse the centroid), on game polytopes up to seven voters and on
hand-built polytopes that are 0-dimensional, empty, flat, fractional or
carry redundant rows. Unbounded polytopes are refused by every exact
stage.
"""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from powerpoly.game_core import WeightedGame, parse_game
from powerpoly.polytope import (
    Constraint,
    DegenerateGeometryError,
    HPolytope,
    _vertex_table,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    moments,
    polytope_to_json,
    triangulate,
    volume,
)
from conftest import poly_from, random_games
from expected_values import TABLE
from integration_oracle import (
    oracle_centroid,
    oracle_columns,
    oracle_integrals,
    oracle_triangulate,
)
from test_game_core import small_games

BUILDERS = (build_weight_polytope, build_representation_polytope)


def centroid_or_refusal(fn, *args):
    try:
        return fn(*args)
    except DegenerateGeometryError as exc:
        return str(exc)


def assert_matches_oracle(poly):
    cells = oracle_triangulate(poly)
    assert _vertex_table(poly).cols == oracle_columns(poly)
    assert triangulate(poly) == cells
    integrals = oracle_integrals(poly, cells=cells)
    assert (volume(poly), moments(poly)) == integrals
    assert centroid_or_refusal(centroid, poly) == centroid_or_refusal(
        oracle_centroid, poly, integrals
    )


@pytest.mark.parametrize("builder", BUILDERS)
def test_catalogue(builder):
    for spec in TABLE:
        assert_matches_oracle(builder(parse_game(spec)))


@pytest.mark.parametrize("builder", BUILDERS)
def test_random_five_voter_games(builder):
    for game in random_games():
        assert_matches_oracle(builder(game))


def test_random_games_refuses_more_games_than_exist():
    # weights 0-4 give two voters 4 distinct games
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"count=20.*voters=2"):
        random_games(count=20, voters=2)
    assert time.perf_counter() - start < 1


def seeded_games(seed=67):
    """Two six- and two seven-voter games with weights 1..9 and a middle
    quota; random_games() draws mostly dummies at these sizes."""
    rng = random.Random(seed)
    games = []
    for n in (6, 6, 7, 7):
        weights = sorted((rng.randint(1, 9) for _ in range(n)), reverse=True)
        quota = rng.randint(sum(weights) // 3, 2 * sum(weights) // 3)
        games.append(WeightedGame(quota, weights))
    return games


@pytest.mark.parametrize(
    "game",
    seeded_games() + [parse_game("[10;6,5,4,3,2,1,1]")],
    ids=lambda game: game.to_spec(),
)
@pytest.mark.parametrize("builder", BUILDERS)
def test_six_and_seven_voter_games(builder, game):
    assert_matches_oracle(builder(game))


@settings(max_examples=30, deadline=None)
@given(small_games())
def test_drawn_games(game):
    for builder in BUILDERS:
        assert_matches_oracle(builder(game))


UNIT_TRIANGLE = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
UNIT_CUBE = [
    (tuple(s * (i == k) for i in range(3)), int(s > 0))
    for k in range(3)
    for s in (-1, 1)
]

HAND_BUILT = {
    "empty": [((1,), 0), ((-1,), -1)],
    "empty-2d": [((1, 1), 1), ((-1, -1), -2), ((-1, 0), 0)],
    "interval": [((1,), 3), ((-1,), -1)],
    "point-1d": [((1,), 2), ((-1,), -2)],
    "point-2d": [((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -2)],
    "segment-2d": [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0), ((1, 0), 1)],
    "implicit-segment-2d": [
        ((1, 1), 1),
        ((-1, -1), -1),
        ((-1, 0), 0),
        ((0, -1), 0),
    ],
    "triangle-3d": [
        ((0, 0, 1), 0),
        ((0, 0, -1), 0),
        ((-1, 0, 0), 0),
        ((0, -1, 0), 0),
        ((1, 1, 0), 1),
    ],
    "redundant-rows": UNIT_TRIANGLE
    + [
        ((1, 1), 1),  # duplicate
        ((2, 2), 2),  # duplicate after scaling
        ((1, 1), 2),  # dominated twin
        ((0, 0), 0),  # constant, tight everywhere
        ((0, 0), 5),  # constant, never tight
        ((1, 0), 1),  # tight at a vertex but redundant
    ],
    # x + y <= 2 is tight on one edge of the cube, a face that is no facet
    "cube-tight-edge": UNIT_CUBE + [((1, 1, 0), 2)],
    "fractional": [
        ((-1, 1), 0),
        ((Fraction(1, 3), 0), Fraction(1, 6)),
        ((Fraction(-2, 7), Fraction(-1, 7)), Fraction(-1, 7)),
    ],
    "fractional-tetra": [
        ((-3, 0, 0), 0),
        ((0, -1, 0), 0),
        ((0, 0, -5), 0),
        ((2, 3, 7), 1),
    ],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built(name):
    rows = HAND_BUILT[name]
    assert_matches_oracle(poly_from(len(rows[0][0]), rows))


@pytest.mark.parametrize("bounds", [(), (0,), (2,), (0, -1)], ids=repr)
def test_zero_dimensional(bounds):
    assert_matches_oracle(HPolytope(0, [Constraint((), Fraction(b)) for b in bounds]))


def test_flat_and_empty_polytopes_refuse_a_centroid():
    for name in ("empty-2d", "point-2d", "segment-2d", "triangle-3d"):
        rows = HAND_BUILT[name]
        poly = poly_from(len(rows[0][0]), rows)
        assert triangulate(poly) == [] and volume(poly) == 0, name
        with pytest.raises(DegenerateGeometryError):
            centroid(poly)


UNBOUNDED = {
    "quadrant": [((-1, 0), 0), ((0, -1), 0)],
    "wedge": [((-1, 0), 0), ((0, -1), 0), ((-1, 1), 1)],
    "strip": [((0, 1), 1), ((0, -1), 0)],
}


@pytest.mark.parametrize("name", sorted(UNBOUNDED))
def test_unbounded_polytopes_are_refused(name):
    poly = poly_from(2, UNBOUNDED[name])
    for stage in (volume, moments, centroid, triangulate, polytope_to_json):
        with pytest.raises(ValueError, match="unbounded"):
            stage(poly)
