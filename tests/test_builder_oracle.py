"""Polytope builders against their from-the-definition references.

Each builder must return the reference's constraints, labels included,
and write integer rows equal to those its Fractions rescale to. It
writes them only when an exact stage or its constraints first read
them: a build, an estimate and an exact stage refused past the voter
cap write none. The exact stages and the Monte Carlo estimator build no
Constraint or Vertex.
"""

import pickle

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerpoly import polytope
from powerpoly.estimate import EstimateInconclusiveError, estimate_centroid_mc
from powerpoly.game_core import ScaleExceededError, WeightedGame, parse_game
from powerpoly.indices import average_representation_index, average_weight_index
from powerpoly.polytope import (
    Constraint,
    Vertex,
    _rows,
    _scaled_rows,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    enumerate_vertices,
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
    assert _rows(got) == _scaled_rows(got.constraints)


@pytest.mark.parametrize("builder, oracle", PAIRS)
def test_builders_on_catalogue_and_mc_games(builder, oracle):
    for spec in (*TABLE, *MC_GAMES):
        assert_builds_reference(builder, oracle, parse_game(spec))


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_builders_on_drawn_games(game):
    for builder, oracle in PAIRS:
        assert_builds_reference(builder, oracle, game)


@st.composite
def larger_games(draw):
    n = draw(st.integers(6, 8))
    weights = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    assume(sum(weights) > 0)
    return WeightedGame(draw(st.integers(1, sum(weights))), weights)


@settings(max_examples=60, deadline=None)
@given(larger_games())
def test_builders_on_drawn_larger_games(game):
    for builder, oracle in PAIRS:
        assert_builds_reference(builder, oracle, game)


@pytest.mark.parametrize(
    "builder, index",
    [
        (build_weight_polytope, average_weight_index),
        (build_representation_polytope, average_representation_index),
    ],
)
def test_builds_estimates_and_refused_exact_stages_write_no_rows(
    monkeypatch, builder, index
):
    small = builder(parse_game("[5;3,2,2,1]"))
    big = builder(parse_game("[4;1,1,1,1,1,1,1,1,1]"))
    shown = [repr(small), repr(big)]
    assert "rows" not in small._cache and "rows" not in big._cache
    estimate_centroid_mc(small, 2_000, seed=1)
    with pytest.raises(EstimateInconclusiveError):
        estimate_centroid_mc(big, 2_000, seed=1)
    assert "rows" not in small._cache and "rows" not in big._cache
    with pytest.raises(ScaleExceededError, match="at most 8 voters"):
        centroid(big)
    assert "rows" not in big._cache
    # an exact stage that runs writes them, under the key checked above
    centroid(small)
    assert small._cache["rows"] == _scaled_rows(small.constraints)
    assert shown == [repr(small), repr(big)]

    def game_rows(*args):
        raise AssertionError("integer rows were written")

    monkeypatch.setattr(polytope, "_game_rows", game_rows)
    with pytest.raises(ScaleExceededError, match="at most 8 voters"):
        index(parse_game("[4;1,1,1,1,1,1,1,1,1]"))


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
