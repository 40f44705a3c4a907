"""Geometry tests: polytope builders, vertices, volume, moments, MC."""

import time
from fractions import Fraction
from itertools import combinations
from math import lcm

import numpy as np
import pytest

from powerpoly import estimate, polytope
from powerpoly.estimate import EstimateInconclusiveError, estimate_centroid_mc
from powerpoly.game_core import ScaleExceededError, parse_game
from powerpoly.polytope import (
    Constraint,
    DegenerateGeometryError,
    HPolytope,
    build_representation_polytope,
    build_weight_polytope,
    centroid,
    constraint_count,
    enumerate_vertices,
    moments,
    polytope_to_json,
    triangulate,
    volume,
)
from conftest import poly_from
from expected_values import TABLE, WORKED
from integration_oracle import _eliminate, oracle_integrals


def vertex_coords(poly):
    return {v.coords for v in enumerate_vertices(poly)}


def determinant(rows):
    """Fraction determinant by the oracle's elimination; 0 when singular."""
    rnk, det = _eliminate(rows)
    return det if rnk == len(rows) else Fraction(0)


UNIT_TRIANGLE = [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)]
# triangle with vertices (1/3,1/3), (1/2,0), (1/2,1/2)
EDGE_TRIANGLE = [((-1, 1), 0), ((1, 0), Fraction(1, 2)), ((-2, -1), -1)]
UNIT_TETRA = [
    ((-1, 0, 0), 0),
    ((0, -1, 0), 0),
    ((0, 0, -1), 0),
    ((1, 1, 1), 1),
]


class TestInputChecks:
    def test_negative_dimension(self):
        with pytest.raises(ValueError, match="nonnegative"):
            HPolytope(-1, [])

    def test_constraint_arity_must_match_dimension(self):
        with pytest.raises(ValueError, match="arity"):
            HPolytope(2, [Constraint((Fraction(1),), Fraction(0))])

    @pytest.mark.parametrize(
        "con",
        [
            Constraint((0.5,), Fraction(1)),
            Constraint((Fraction(1),), 1.0),
            Constraint((np.float64(1),), Fraction(1)),
        ],
    )
    def test_entries_must_be_rational(self, con):
        # a float used to build, then fail in the first exact stage
        with pytest.raises(ValueError, match="must be rational"):
            HPolytope(1, [con, Constraint((Fraction(-1),), Fraction(0))])

    def test_int_entries_are_rational(self):
        poly = HPolytope(1, [Constraint((1,), 1), Constraint((-1,), 0)])
        assert vertex_coords(poly) == {(0,), (1,)}

    def test_numpy_integer_entries_are_read_as_ints(self):
        # 2^62 * 3 wraps in int64 where the row clears the denominator 3
        big = 2**62

        def system(k):
            return HPolytope(
                2,
                [
                    Constraint((k(big), Fraction(1, 3)), k(big)),
                    Constraint((k(-1), k(0)), k(0)),
                    Constraint((0, -1), 0),
                    Constraint((0, 1), 1),
                ],
            )

        want, got = system(int), system(np.int64)
        assert polytope._rows(got) == polytope._rows(want)
        assert enumerate_vertices(got) == enumerate_vertices(want)
        assert volume(got) == volume(want) == 1 - Fraction(1, 6 * big)

    def test_numpy_zero_entry_enumerates(self):
        # its Fraction used to keep the numpy type and fail when hashed
        poly = HPolytope(1, [Constraint((1,), 1), Constraint((-1,), np.int64(0))])
        assert vertex_coords(poly) == {(0,), (1,)}


class TestWeightPolytope:
    def test_worked_example_vertices(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        assert vertex_coords(poly) == WORKED["weight_vertices"]

    def test_matches_hand_built_system(self):
        built = build_weight_polytope(parse_game("[3;2,1,1]"))
        manual = poly_from(
            2,
            [
                ((-1, 0), 0),
                ((0, -1), 0),
                ((1, 1), 1),
                ((-2, -1), -1),
                ((-1, 1), 0),
            ],
        )
        assert vertex_coords(built) == vertex_coords(manual)
        assert volume(built) == volume(manual)
        assert moments(built) == moments(manual)

    def test_single_voter_is_a_point(self):
        poly = build_weight_polytope(parse_game("[1;1]"))
        assert poly.dim == 0
        assert volume(poly) == 1
        assert centroid(poly) == ()

    def test_two_voter_segment(self):
        poly = build_weight_polytope(parse_game("[1;1,1]"))
        assert vertex_coords(poly) == {(Fraction(0),), (Fraction(1),)}
        assert volume(poly) == 1
        assert centroid(poly) == (Fraction(1, 2),)

    def test_three_symmetric_voters(self):
        # pairwise wins against singletons cut the triangle with corners
        # at the three half-half splits
        poly = build_weight_polytope(parse_game("[2;1,1,1]"))
        assert vertex_coords(poly) == {
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(1, 2)),
        }
        assert centroid(poly) == (Fraction(1, 3), Fraction(1, 3))


class TestRepresentationPolytope:
    def test_worked_example_values(self):
        poly = build_representation_polytope(parse_game("[3;2,1,1]"))
        assert volume(poly) == WORKED["rep_volume"]
        moms = moments(poly)
        assert moms[0] == WORKED["rep_quota_moment"]
        assert moms[1:] == WORKED["rep_w_moments"]

    def test_single_voter_quota_segment(self):
        poly = build_representation_polytope(parse_game("[1;1]"))
        assert poly.dim == 1
        assert vertex_coords(poly) == {(Fraction(0),), (Fraction(1),)}
        assert centroid(poly) == (Fraction(1, 2),)

    def test_two_voter_unanimity_triangle(self):
        poly = build_representation_polytope(parse_game("[2;1,1]"))
        assert vertex_coords(poly) == {
            (Fraction(1, 2), Fraction(1, 2)),
            (Fraction(1), Fraction(0)),
            (Fraction(1), Fraction(1)),
        }
        assert volume(poly) == Fraction(1, 4)
        assert centroid(poly) == (Fraction(5, 6), Fraction(1, 2))


@pytest.mark.parametrize(
    "spec", [*TABLE, "[9;5,4,3,2,1,1]", "[20;9,8,7,6,5,4,3,2,1]"]
)
def test_constraint_count_matches_the_builders(spec):
    game = parse_game(spec)
    weight = build_weight_polytope(game)
    rep = build_representation_polytope(game)
    assert constraint_count(game) == len(weight.constraints)
    assert constraint_count(game, representation=True) == len(rep.constraints)


@pytest.mark.parametrize(
    "builder, spec, rows",
    [
        (
            build_weight_polytope,
            "[70;1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16]",
            6627560,
        ),
        (build_representation_polytope, "[8;" + ",".join("1" * 16) + "]", 24328),
    ],
    ids=["weight", "rep"],
)
def test_builders_refuse_past_the_row_cap_before_writing_a_row(
    monkeypatch, builder, spec, rows
):
    def coalition_str(mask):
        raise AssertionError("a coalition row was written")

    game = parse_game(spec)
    monkeypatch.setattr(polytope, "coalition_str", coalition_str)
    start = time.perf_counter()
    with pytest.raises(ScaleExceededError, match=f"has {rows} constraint rows"):
        builder(game)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "builder", [build_weight_polytope, build_representation_polytope]
)
def test_exact_stages_refuse_past_the_voter_cap(monkeypatch, builder):
    # 9 voters: the weight polytope's double description runs for minutes
    def cone_rays(*args):
        raise AssertionError("vertex enumeration started")

    monkeypatch.setattr(polytope, "_cone_rays", cone_rays)
    poly = builder(parse_game("[4;1,1,1,1,1,1,1,1,1]"))
    with pytest.raises(ScaleExceededError, match="at most 8 voters"):
        volume(poly)


class TestVertexEnumeration:
    def test_vertices_satisfy_all_constraints_exactly(self, corpus):
        for game in corpus:
            if game.n > 4:
                continue
            for poly in (
                build_weight_polytope(game),
                build_representation_polytope(game),
            ):
                for v in enumerate_vertices(poly):
                    for idx, con in enumerate(poly.constraints):
                        val = sum(
                            (c * x for c, x in zip(con.a, v.coords)),
                            Fraction(0),
                        )
                        assert val <= con.b
                        assert (val == con.b) == (idx in v.active)

    def test_active_sets_have_full_rank(self, corpus):
        for game in corpus:
            if game.n > 4:
                continue
            for poly in (
                build_weight_polytope(game),
                build_representation_polytope(game),
            ):
                d = poly.dim
                for v in enumerate_vertices(poly):
                    rows = [list(poly.constraints[i].a) for i in sorted(v.active)]
                    assert _eliminate(rows)[0] == d

    def test_every_nonsingular_active_subset_reproduces_vertex(self):
        # independent solve route: any d active boundaries with full rank
        # must intersect exactly at the vertex they are active on
        for builder in (build_weight_polytope, build_representation_polytope):
            poly = builder(parse_game("[3;2,1,1]"))
            d = poly.dim
            for v in enumerate_vertices(poly):
                confirmed = 0
                for subset in combinations(sorted(v.active), d):
                    rows = [list(poly.constraints[i].a) for i in subset]
                    rhs = [poly.constraints[i].b for i in subset]
                    det = determinant(rows)
                    if det:
                        # Cramer's rule: column k replaced by the bounds
                        sol = tuple(
                            determinant(
                                [r[:k] + [b] + r[k + 1 :] for r, b in zip(rows, rhs)]
                            )
                            / det
                            for k in range(d)
                        )
                        assert sol == v.coords
                        confirmed += 1
                assert confirmed >= 1

    def test_empty_polytope_has_no_vertices(self):
        poly = poly_from(1, [((1,), 0), ((-1,), -1)])
        assert enumerate_vertices(poly) == []
        assert volume(poly) == 0

    def test_vertices_sorted_lexicographically(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        coords = [v.coords for v in enumerate_vertices(poly)]
        assert coords == sorted(coords)


class TestTriangulation:
    def test_simplex_is_single_cell(self):
        poly = poly_from(2, UNIT_TRIANGLE)
        assert len(triangulate(poly)) == 1

    def test_segment_is_single_cell(self):
        poly = poly_from(1, [((-1,), 0), ((1,), 1)])
        assert len(triangulate(poly)) == 1

    def test_quadrilateral_splits_in_two(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        cells = triangulate(poly)
        assert len(cells) == 2
        assert all(len(c.vertices) == 3 for c in cells)

    def test_apex_rules_agree_on_volume_and_moments(self, corpus):
        # the integer integrals over the lexmin cells against the Fraction
        # oracle's integrals over a second triangulation, its lexmax cells
        for game in corpus:
            if game.n > 4:
                continue
            for poly in (
                build_weight_polytope(game),
                build_representation_polytope(game),
            ):
                if poly.dim == 0:
                    continue
                assert (volume(poly), moments(poly)) == oracle_integrals(
                    poly, "lexmax"
                )


class TestVolumeAndMoments:
    def test_unit_triangle(self):
        poly = poly_from(2, UNIT_TRIANGLE)
        assert volume(poly) == Fraction(1, 2)
        assert moments(poly) == (Fraction(1, 6), Fraction(1, 6))
        assert centroid(poly) == (Fraction(1, 3), Fraction(1, 3))

    def test_worked_weight_polytope(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        assert volume(poly) == WORKED["weight_volume"]
        assert moments(poly) == WORKED["weight_moments"]
        # chart drops the last weight; the unit sum recovers it
        assert centroid(poly) == WORKED["avg_weight"][:-1]

    def test_volumes_positive_for_small_corpus(self, corpus):
        for game in corpus:
            if game.n > 4:
                continue
            assert volume(build_weight_polytope(game)) > 0 or game.n == 1
            assert volume(build_representation_polytope(game)) > 0

    def test_tight_redundant_constraint_changes_nothing(self):
        base = build_weight_polytope(parse_game("[3;2,1,1]"))
        extra = (
            # supporting line through vertex (1, 0): tight but redundant
            Constraint((Fraction(1), Fraction(0)), Fraction(1), "w1 <= 1"),
            # strictly redundant halfspace
            Constraint((Fraction(1), Fraction(1)), Fraction(2), "slack"),
        )
        padded = HPolytope(base.dim, base.constraints + extra)
        assert vertex_coords(padded) == vertex_coords(base)
        assert volume(padded) == volume(base)
        assert moments(padded) == moments(base)

    def test_centroid_of_empty_polytope_raises(self):
        poly = poly_from(1, [((1,), 0), ((-1,), -1)])
        with pytest.raises(DegenerateGeometryError):
            centroid(poly)

    def test_centroid_of_infeasible_point_raises(self):
        poly = HPolytope(0, [Constraint((), Fraction(-1))])
        with pytest.raises(DegenerateGeometryError):
            centroid(poly)


def midpoint_riemann(rows, dim, n_cells):
    """Midpoint-rule volume and moments over [0,1]^dim, exact arithmetic.

    Midpoints have coordinates (2i+1)/(2N); clearing denominators turns
    every membership test into an integer comparison, so the only error
    is the O(1/N) boundary-cell term.
    """
    u = 2 * np.arange(n_cells, dtype=np.int64) + 1
    if dim == 2:
        axes = (u[:, None], u[None, :])
    else:
        axes = (u[:, None, None], u[None, :, None], u[None, None, :])
    inside = np.ones((n_cells,) * dim, dtype=bool)
    for a, b in rows:
        scale = lcm(*(Fraction(c).denominator for c in (*a, b)))
        coeffs = [int(Fraction(c) * scale) for c in a]
        bound = int(Fraction(b) * scale)
        lhs = 0
        for c, ax in zip(coeffs, axes):
            lhs = lhs + c * ax
        inside &= lhs <= bound * 2 * n_cells
    vol = inside.sum() / n_cells**dim
    moms = tuple(
        float((ax * inside).sum()) / (2 * n_cells) / n_cells**dim for ax in axes
    )
    return vol, moms


class TestRiemannOracle:
    # midpoint error observed at <= 0.5/N on all three bodies; 1/N is
    # a doubled safety margin
    @pytest.mark.parametrize(
        "rows,dim,n_cells",
        [
            (UNIT_TRIANGLE, 2, 512),
            (EDGE_TRIANGLE, 2, 512),
            (UNIT_TETRA, 3, 128),
        ],
        ids=["unit-triangle", "edge-triangle", "unit-tetra"],
    )
    def test_exact_integrals_match_riemann_sums(self, rows, dim, n_cells):
        poly = poly_from(dim, rows)
        vol_hat, moms_hat = midpoint_riemann(rows, dim, n_cells)
        tol = 1.0 / n_cells
        assert abs(vol_hat - float(volume(poly))) <= tol
        for approx, exact in zip(moms_hat, moments(poly)):
            assert abs(approx - float(exact)) <= tol


class TestMonteCarlo:
    def test_worked_polytope_estimate(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        est, se = estimate_centroid_mc(poly, 1_000_000, seed=42)
        for apx, exact in zip(est, WORKED["avg_weight"]):
            assert abs(apx - float(exact)) < 5e-3
        assert all(s > 0 for s in se)

    def test_same_seed_is_deterministic(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        first = estimate_centroid_mc(poly, 50_000, seed=9)
        second = estimate_centroid_mc(poly, 50_000, seed=9)
        assert first == second

    def test_zero_dimensional_estimate_is_empty(self):
        poly = HPolytope(0, [])
        assert estimate_centroid_mc(poly, 10, seed=0) == ((), ())

    def test_rejects_nonpositive_sample_count(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        with pytest.raises(ValueError):
            estimate_centroid_mc(poly, 0, seed=1)

    def test_starved_sampler_is_inconclusive(self):
        # a 9-voter representation polytope: 40 chamber draws essentially
        # never land two hits
        poly = build_representation_polytope(
            parse_game("[20;9,8,7,6,5,4,3,2,1]")
        )
        with pytest.raises(EstimateInconclusiveError):
            estimate_centroid_mc(poly, 40, seed=7)

    def test_polytope_without_a_game_is_refused_before_drawing(
        self, monkeypatch
    ):
        def set_up(*args):
            raise LookupError("set-up or a draw started")

        monkeypatch.setattr(estimate, "_proposal", set_up)
        monkeypatch.setattr(np.random, "default_rng", set_up)
        poly = poly_from(2, UNIT_TRIANGLE)
        with pytest.raises(ValueError, match="built from a game"):
            estimate_centroid_mc(poly, 1_000, seed=1)

    def test_sample_count_past_the_cap_is_refused_before_set_up(
        self, monkeypatch
    ):
        def set_up(*args):
            raise LookupError("set-up started")

        monkeypatch.setattr(estimate, "_proposal", set_up)
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        with pytest.raises(ScaleExceededError, match="more than the supported"):
            estimate_centroid_mc(poly, estimate.MAX_MC_SAMPLES + 1, seed=1)
        with pytest.raises(LookupError):
            estimate_centroid_mc(poly, estimate.MAX_MC_SAMPLES, seed=1)


class TestJsonDump:
    def test_schema_fields_and_values(self):
        poly = build_weight_polytope(parse_game("[3;2,1,1]"))
        doc = polytope_to_json(poly)
        assert doc["dim"] == 2
        assert doc["volume"] == "1/6"
        assert doc["moments"] == ["11/108", "7/216"]
        assert ["1", "0"] in doc["vertices"]
        assert len(doc["constraints"]) == len(poly.constraints)
        first = doc["constraints"][0]
        assert set(first) == {"a", "b", "label"}
