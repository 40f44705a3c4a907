"""Double-description vertices against the brute-force oracle.

Both enumerators must return identical (coords, active) lists, in the
same lexicographic order, on game polytopes and on hand-built ones that
are empty, lower-dimensional, unbounded or carry redundant rows.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from powerpoly.game_core import parse_game
from powerpoly.polytope import (
    Constraint,
    HPolytope,
    build_representation_polytope,
    build_weight_polytope,
    enumerate_vertices,
)
from conftest import poly_from, random_games
from expected_values import TABLE
from test_game_core import small_games
from vertex_oracle import oracle_vertices

BUILDERS = (build_weight_polytope, build_representation_polytope)


def assert_matches_oracle(poly):
    got = [(v.coords, v.active) for v in enumerate_vertices(poly)]
    want = [(v.coords, v.active) for v in oracle_vertices(poly)]
    assert got == want


@pytest.mark.parametrize("builder", BUILDERS)
def test_catalogue(builder):
    for spec in TABLE:
        assert_matches_oracle(builder(parse_game(spec)))


@pytest.mark.parametrize("builder", BUILDERS)
def test_random_five_voter_games(builder):
    for game in random_games():
        assert_matches_oracle(builder(game))


@pytest.mark.parametrize("spec", ["[8;5,3,2,2,1]", "[7;3,3,2,2,1]"])
@pytest.mark.parametrize("builder", BUILDERS)
def test_named_five_voter_games(builder, spec):
    assert_matches_oracle(builder(parse_game(spec)))


@settings(max_examples=30, deadline=None)
@given(small_games())
def test_drawn_games(game):
    for builder in BUILDERS:
        assert_matches_oracle(builder(game))


UNIT_TRIANGLE = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]

HAND_BUILT = {
    "empty": [((1,), 0), ((-1,), -1)],
    "empty-2d": [((1, 1), 1), ((-1, -1), -2), ((-1, 0), 0)],
    "point-2d": [((1, 0), 1), ((-1, 0), -1), ((0, 1), 2), ((0, -1), -2)],
    "segment-2d": [((0, 1), 0), ((0, -1), 0), ((-1, 0), 0), ((1, 0), 1)],
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
    "twin-first": [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2), ((1, 1), 1)],
    "infeasible-constant-2d": UNIT_TRIANGLE + [((0, 0), -1)],
    "fractional": [
        ((-1, 1), 0),
        ((Fraction(1, 3), 0), Fraction(1, 6)),
        ((Fraction(-2, 7), Fraction(-1, 7)), Fraction(-1, 7)),
    ],
    "quadrant": [((-1, 0), 0), ((0, -1), 0)],
    "wedge": [((-1, 0), 0), ((0, -1), 0), ((-1, 1), 1)],
    "strip": [((0, 1), 1), ((0, -1), 0)],
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built(name):
    rows = HAND_BUILT[name]
    assert_matches_oracle(poly_from(len(rows[0][0]), rows))


@pytest.mark.parametrize(
    "bounds", [(), (0,), (0, 3, 0), (2,), (0, -1)], ids=repr
)
def test_zero_dimensional(bounds):
    assert_matches_oracle(HPolytope(0, [Constraint((), Fraction(b)) for b in bounds]))
