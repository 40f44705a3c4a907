"""Polytope builders against their from-the-definition references.

Each builder must return the reference's constraints, labels included,
and keep integer rows equal to those its Fractions rescale to. The
exact stages and the Monte Carlo estimator read only those rows and the
vertex table, so they build no Constraint or Vertex.
"""

import pickle

import pytest
from hypothesis import given, settings

from powerpoly import polytope
from powerpoly.game_core import parse_game
from powerpoly.indices import average_representation_index, average_weight_index
from powerpoly.polytope import (
    Constraint,
    EstimateInconclusiveError,
    Vertex,
    _scaled_rows,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    enumerate_vertices,
    estimate_centroid_mc,
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


@pytest.mark.parametrize("builder, oracle", PAIRS)
def test_exact_stages_build_no_api_objects(monkeypatch, builder, oracle):
    made = []

    def counting(cls):
        def make(*args, **kwargs):
            made.append(cls.__name__)
            return cls(*args, **kwargs)

        return make

    for cls in (Constraint, Vertex):
        monkeypatch.setattr(polytope, cls.__name__, counting(cls))
    game = parse_game("[5;3,2,2,1]")
    big = parse_game("[20;9,8,7,6,5,4,3,2,1]")
    average_weight_index(game)
    average_representation_index(game)
    poly, big_poly = builder(game), builder(big)
    centroid(poly)
    estimate_centroid_mc(poly, 2_000, seed=1)
    with pytest.raises(EstimateInconclusiveError):
        estimate_centroid_mc(big_poly, 2_000, seed=1)
    shown = [repr(poly), repr(big_poly)]
    assert made == []

    monkeypatch.undo()
    for p, g in ((poly, game), (big_poly, big)):
        assert p.constraints == oracle(g).constraints
        assert {type(c) for c in p.constraints} == {Constraint}
    assert shown == [
        f"HPolytope(dim={p.dim}, constraints={len(p.constraints)})"
        for p in (poly, big_poly)
    ]
    assert enumerate_vertices(poly) == enumerate_vertices(builder(game))
    assert {type(v) for v in enumerate_vertices(poly)} == {Vertex}


@pytest.mark.parametrize("builder, oracle", PAIRS)
def test_game_polytopes_pickle_before_and_after_their_constraints(builder, oracle):
    game = parse_game("[5;3,2,2,1]")
    poly = builder(game)
    fresh = pickle.loads(pickle.dumps(poly))
    assert fresh.constraints == poly.constraints == oracle(game).constraints
    assert pickle.loads(pickle.dumps(poly)).constraints == poly.constraints
