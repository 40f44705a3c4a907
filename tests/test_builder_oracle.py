"""Polytope builders against their from-the-definition references.

Each builder must return the reference's constraints, labels included,
and keep integer rows equal to those its Fractions rescale to.
"""

import pytest
from hypothesis import given, settings

from powerpoly.game_core import parse_game
from powerpoly.polytope import (
    _scaled_rows,
    build_representation_polytope,
    build_weight_polytope,
)
from builder_oracle import oracle_representation_polytope, oracle_weight_polytope
from expected_values import TABLE
from test_approx_oracle import MC_GAMES
from test_game_core import small_games

PAIRS = (
    (build_weight_polytope, oracle_weight_polytope),
    (build_representation_polytope, oracle_representation_polytope),
)


def assert_builds_reference(builder, oracle, game):
    got, want = builder(game), oracle(game)
    assert got.dim == want.dim
    assert got.constraints == want.constraints
    assert got._cache["rows"] == _scaled_rows(got.constraints)


@pytest.mark.parametrize("builder, oracle", PAIRS)
def test_builders_on_catalogue_and_mc_games(builder, oracle):
    for spec in (*TABLE, *MC_GAMES):
        assert_builds_reference(builder, oracle, parse_game(spec))


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_builders_on_drawn_games(game):
    for builder, oracle in PAIRS:
        assert_builds_reference(builder, oracle, game)
