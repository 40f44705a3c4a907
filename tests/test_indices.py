"""Index computations: Shapley-Shubik, centroid indices, axiom checks."""

from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from powerpoly import polytope
from powerpoly import (
    AxiomReport,
    IndexVector,
    KIND_AVG_REP,
    KIND_AVG_WEIGHT,
    KIND_SSI,
    ScaleExceededError,
    average_representation_index,
    average_weight_index,
    check_axioms,
    dummy_revealing,
    index_to_json,
    is_representation_compatible_at,
    parse_game,
    shapley_shubik,
)
from expected_values import FRONTIER


def ssi_by_permutations(game):
    """Direct pivotal count over all voter orderings."""
    counts = [0] * game.n
    for order in permutations(range(game.n)):
        mask = 0
        for voter in order:
            mask |= 1 << voter
            if game.is_winning(mask):
                counts[voter] += 1
                break
    total = factorial(game.n)
    return tuple(Fraction(c, total) for c in counts)


def frac_vec(*vals):
    return tuple(Fraction(v) for v in vals)


class TestShapleyShubik:
    def test_worked_example(self):
        idx = shapley_shubik(parse_game("[3;2,1,1]"))
        assert idx.values == frac_vec("2/3", "1/6", "1/6")
        assert idx.kind == KIND_SSI
        assert idx.avg_quota is None

    def test_symmetric_game(self):
        idx = shapley_shubik(parse_game("[2;1,1,1]"))
        assert idx.values == frac_vec("1/3", "1/3", "1/3")

    def test_four_voter_example(self):
        idx = shapley_shubik(parse_game("[3;2,1,1,1]"))
        assert idx.values == frac_vec("1/2", "1/6", "1/6", "1/6")

    def test_dictator_with_dummy(self):
        idx = shapley_shubik(parse_game("[1;1,0]"))
        assert idx.values == frac_vec(1, 0)

    def test_matches_permutation_oracle_on_corpus(self, corpus):
        for game in corpus:
            assert shapley_shubik(game).values == ssi_by_permutations(game)

    def test_fractional_weights(self):
        game = parse_game("[1/2;1/4,1/4,1/2]")
        assert shapley_shubik(game).values == ssi_by_permutations(game)


class TestAverageWeightIndex:
    def test_worked_example(self):
        idx = average_weight_index(parse_game("[3;2,1,1]"))
        assert idx.values == frac_vec("11/18", "7/36", "7/36")
        assert idx.kind == KIND_AVG_WEIGHT
        assert idx.avg_quota is None

    def test_dictator_with_dummy_scores_it(self):
        idx = average_weight_index(parse_game("[1;1,0]"))
        assert idx.values == frac_vec("3/4", "1/4")

    def test_four_voter_example(self):
        idx = average_weight_index(parse_game("[4;3,2,2,1]"))
        assert idx.values == frac_vec("193/480", "31/120", "31/120", "13/160")

    def test_scale_cap(self):
        with pytest.raises(ScaleExceededError):
            average_weight_index(parse_game("[4;1,1,1,1,1,1,1,1,1]"))


class TestAverageRepresentationIndex:
    def test_worked_example(self):
        idx = average_representation_index(parse_game("[3;2,1,1]"))
        assert idx.values == frac_vec("7/12", "5/24", "5/24")
        assert idx.kind == KIND_AVG_REP
        assert idx.avg_quota == Fraction(2, 3)

    def test_dictator_with_two_dummies(self):
        idx = average_representation_index(parse_game("[1;1,0,0]"))
        assert idx.values == frac_vec("3/4", "1/8", "1/8")

    def test_five_voter_example(self):
        idx = average_representation_index(parse_game("[2;2,1,1,1]"))
        assert idx.values == frac_vec(
            "139/300", "161/900", "161/900", "161/900"
        )

    def test_average_quota_with_weights_represents_the_game(self, corpus):
        from powerpoly import is_representation

        for game in corpus:
            idx = average_representation_index(game)
            assert is_representation(game, idx.avg_quota, idx.values)

    def test_scale_cap(self):
        with pytest.raises(ScaleExceededError):
            average_representation_index(parse_game("[4;1,1,1,1,1,1,1,1,1]"))


@pytest.mark.parametrize(
    "index", [average_weight_index, average_representation_index]
)
@pytest.mark.parametrize(
    "spec", ["[4;1,1,1,1,1,1,1,1,1]", "[20;9,8,7,6,5,4,3,2,1]"]
)
def test_indices_refuse_past_the_voter_cap_before_vertex_enumeration(
    monkeypatch, index, spec
):
    # the polytope is built; its exact stages refuse before double description
    def cone_rays(*args):
        raise AssertionError("vertex enumeration started")

    monkeypatch.setattr(polytope, "_cone_rays", cone_rays)
    with pytest.raises(ScaleExceededError, match="at most 8 voters"):
        index(parse_game(spec))


def test_weight_index_past_the_row_cap_names_the_rows():
    # the weight polytope of 10 tied voters is refused by its builder
    with pytest.raises(ScaleExceededError, match="has 52930 constraint rows"):
        average_weight_index(parse_game("[5;1,1,1,1,1,1,1,1,1,1]"))


@pytest.mark.parametrize("spec", list(FRONTIER))
def test_eight_voter_frontier(spec):
    # at the 8-voter cap the indices are still exact and pinned
    weight, rep, avg_quota = FRONTIER[spec]
    game = parse_game(spec)
    assert average_weight_index(game).values == weight
    index = average_representation_index(game)
    assert index.values == rep
    assert index.avg_quota == avg_quota


class TestDummyRevealing:
    def test_zero_weight_dummy_zeroed(self):
        idx = dummy_revealing(KIND_AVG_WEIGHT, parse_game("[1;1,0]"))
        assert idx.values == frac_vec(1, 0)
        assert idx.kind == "avg-weight-dummy-revealing"

    def test_reduction_reorders_nothing(self):
        idx = dummy_revealing(KIND_AVG_WEIGHT, parse_game("[2;2,1,1,0]"))
        assert idx.values == frac_vec("11/18", "7/36", "7/36", 0)

    def test_average_quota_carries_over(self):
        idx = dummy_revealing(KIND_AVG_REP, parse_game("[2;2,1,1,0]"))
        assert idx.values == frac_vec("7/12", "5/24", "5/24", 0)
        assert idx.avg_quota == Fraction(1, 3)

    def test_positive_weight_dummy_zeroed(self):
        idx = dummy_revealing(KIND_SSI, parse_game("[5;3,3,3,1]"))
        assert idx.values == frac_vec("1/3", "1/3", "1/3", 0)

    def test_dummy_free_game_matches_base(self):
        game = parse_game("[3;2,1,1]")
        base = average_weight_index(game)
        idx = dummy_revealing(KIND_AVG_WEIGHT, game)
        assert idx.values == base.values
        assert idx.kind == "avg-weight-dummy-revealing"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            dummy_revealing("banzhaf", parse_game("[3;2,1,1]"))


class TestRepresentationCompatibility:
    def test_centroid_indices_compatible_on_corpus(self, corpus):
        from conftest import cached_index

        for game in corpus:
            for kind in (KIND_AVG_WEIGHT, KIND_AVG_REP):
                assert is_representation_compatible_at(
                    game, cached_index(kind, game)
                )

    def test_ssi_compatible_at_three_voters(self):
        game = parse_game("[3;2,1,1]")
        assert is_representation_compatible_at(game, shapley_shubik(game))

    def test_ssi_incompatible_at_four_voters(self):
        # the scores are not usable as weights: coalitions of equals
        # reach a half both ways
        game = parse_game("[3;2,1,1,1]")
        assert not is_representation_compatible_at(game, shapley_shubik(game))


class TestAxioms:
    def test_worked_example_all_pass(self):
        game = parse_game("[3;2,1,1]")
        report = check_axioms(game, average_weight_index(game))
        assert report == AxiomReport(True, True, True, True, True)

    def test_dummy_gets_positive_share_of_weight_average(self):
        game = parse_game("[1;1,0]")
        report = check_axioms(game, average_weight_index(game))
        assert report.dummy_property is False
        assert report.efficient and report.positive
        assert report.representation_compatible

    def test_dummy_revealing_variant_restores_the_axiom(self):
        game = parse_game("[1;1,0]")
        report = check_axioms(game, dummy_revealing(KIND_AVG_WEIGHT, game))
        assert report.dummy_property is True

    def test_structural_symmetry_despite_unequal_weights(self):
        # all pairs win and all singletons lose, so the voters are
        # interchangeable even though the listed weights differ
        game = parse_game("[4;3,2,2]")
        report = check_axioms(game, shapley_shubik(game))
        assert report.symmetric is True
        assert shapley_shubik(game).values == frac_vec("1/3", "1/3", "1/3")

    def test_symmetry_violation_detected(self):
        game = parse_game("[4;3,2,2]")
        lopsided = IndexVector(frac_vec("1/2", "1/4", "1/4"), "ad-hoc")
        assert check_axioms(game, lopsided).symmetric is False

    def test_length_mismatch_rejected(self):
        game = parse_game("[3;2,1,1]")
        with pytest.raises(ValueError):
            check_axioms(game, IndexVector(frac_vec("1/2", "1/2"), "ad-hoc"))


class TestIndexVector:
    def test_rejects_deficient_sum(self):
        with pytest.raises(ValueError):
            IndexVector(frac_vec("1/2", "1/4"), "ad-hoc")

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            IndexVector(frac_vec("3/2", "-1/2"), "ad-hoc")

    @pytest.mark.parametrize("values", [("1/2", "1/4"), ("3/2", "-1/2")])
    def test_replace_checks_the_values(self, values):
        index = IndexVector(frac_vec("1/2", "1/2"), "ad-hoc")
        assert index._replace(kind="other") == (index.values, "other", None)
        with pytest.raises(ValueError):
            index._replace(values=frac_vec(*values))


class TestJson:
    def test_weight_index_document(self):
        game = parse_game("[3;2,1,1]")
        doc = index_to_json(game, average_weight_index(game))
        assert doc["game"] == "[3; 2, 1, 1]"
        assert doc["kind"] == "avg-weight"
        assert doc["values"] == ["11/18", "7/36", "7/36"]
        assert doc["decimals"] == ["0.611111", "0.194444", "0.194444"]
        assert "avg_quota" not in doc
        assert "axioms" not in doc

    def test_representation_index_document(self):
        game = parse_game("[3;2,1,1]")
        doc = index_to_json(game, average_representation_index(game))
        assert doc["avg_quota"] == "2/3"
        assert doc["values"] == ["7/12", "5/24", "5/24"]

    def test_precision_and_axioms(self):
        game = parse_game("[3;2,1,1]")
        idx = average_weight_index(game)
        doc = index_to_json(game, idx, check_axioms(game, idx), precision=3)
        assert doc["decimals"] == ["0.611", "0.194", "0.194"]
        assert doc["axioms"] == {
            "symmetric": True,
            "positive": True,
            "efficient": True,
            "dummy_property": True,
            "representation_compatible": True,
        }

    def test_refuses_precision_past_the_bound(self):
        game = parse_game("[3;2,1,1]")
        with pytest.raises(ValueError, match="at most 1000"):
            index_to_json(game, shapley_shubik(game), None, 4301)
