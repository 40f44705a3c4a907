"""Game parsing, coalition structure, duality, and feasibility tests."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powerpoly import (
    GameFormatError,
    NormalizedRepresentation,
    ScaleExceededError,
    WeightedGame,
    canonical_games,
    coalition,
    desirability_classes,
    is_feasible_weights,
    is_representation,
    l1_distance,
    members,
    parse_game,
)
from approx_oracle import oracle_transposition_automorphisms
from expected_values import ACCEPTED_LITERALS, REJECTED_LITERALS, TABLE


def brute_minimal_winning(game):
    out = set()
    for mask in range(1, 1 << game.n):
        if not game.is_winning(mask):
            continue
        if all(
            not game.is_winning(mask ^ (1 << i))
            for i in range(game.n)
            if mask >> i & 1
        ):
            out.add(mask)
    return frozenset(out)


def brute_maximal_losing(game):
    full = (1 << game.n) - 1
    out = set()
    for mask in range(1 << game.n):
        if game.is_winning(mask):
            continue
        if all(
            game.is_winning(mask | (1 << i))
            for i in range(game.n)
            if not mask >> i & 1
        ):
            out.add(mask)
    return frozenset(out)


@st.composite
def small_games(draw):
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    assume(sum(weights) > 0)
    quota = draw(st.integers(1, sum(weights)))
    return WeightedGame(quota, weights)


class TestParse:
    def test_worked_example(self):
        game = parse_game("[3;2,1,1]")
        assert game.n == 3
        assert game.quota == 3
        assert game.weights == (Fraction(2), Fraction(1), Fraction(1))

    def test_three_symmetric_voters(self):
        game = parse_game("[2;1,1,1]")
        assert game.minimal_winning == {
            coalition([1, 2]),
            coalition([1, 3]),
            coalition([2, 3]),
        }

    def test_dictator(self):
        game = parse_game("[1;1]")
        assert game.n == 1
        assert game.is_winning(coalition([1]))

    def test_whitespace_and_fractions(self):
        game = parse_game(" [ 1/2 ; 1/4 , 1/4, 1/2 ] ")
        assert game.quota == Fraction(1, 2)
        assert game.weights == (
            Fraction(1, 4),
            Fraction(1, 4),
            Fraction(1, 2),
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "[3;2,1",
            "[3 2,1,1]",
            "[;1,1]",
            "[3;]",
            "[0;1,1]",
            "[-1;1,1]",
            "[3;2,-1,1]",
            "[5;2,1,1]",
            "[1;1.5]",
            "[1/0;1]",
        ],
    )
    def test_rejects_malformed_specs(self, bad):
        with pytest.raises(GameFormatError):
            parse_game(bad)

    @pytest.mark.parametrize("field", ["quota", "weight"])
    @pytest.mark.parametrize("text", ACCEPTED_LITERALS)
    def test_accepts_rational_literals(self, text, field):
        value = ACCEPTED_LITERALS[text]
        spec = f"[{text};9]" if field == "quota" else f"[1;{text},9]"
        if value < 0:
            # the literal parses; the game's own value checks refuse it
            with pytest.raises(GameFormatError, match=f"^{field}s? must be"):
                parse_game(spec)
        else:
            game = parse_game(spec)
            assert (game.quota if field == "quota" else game.weights[0]) == value

    @pytest.mark.parametrize("field", ["quota", "weight"])
    @pytest.mark.parametrize("text", REJECTED_LITERALS)
    def test_rejects_non_rational_literals_naming_the_field(self, text, field):
        spec = f"[{text};9]" if field == "quota" else f"[1;{text},9]"
        with pytest.raises(GameFormatError, match=f"bad {field} entry"):
            parse_game(spec)

    def test_voter_cap(self):
        with pytest.raises(ScaleExceededError):
            parse_game("[1;" + ",".join("1" * 17) + "]")

    def test_needs_a_voter(self):
        with pytest.raises(GameFormatError, match="at least one voter"):
            WeightedGame(1, [])

    def test_catalogue_needs_a_voter(self):
        with pytest.raises(ValueError, match="at least 1"):
            canonical_games(0)

    def test_round_trip_on_canonical_specs(self, corpus):
        for game in corpus:
            spec = game.to_spec()
            again = parse_game(spec)
            assert again == game
            assert again.to_spec() == spec


class TestWinning:
    def test_listed_winning_coalition(self):
        game = parse_game("[3;2,1,1]")
        assert game.is_winning(coalition([1, 2]))

    def test_empty_coalition_loses(self, corpus):
        assert all(not g.is_winning(0) for g in corpus)

    def test_grand_coalition_wins(self, corpus):
        assert all(g.is_winning((1 << g.n) - 1) for g in corpus)

    def test_coalition_weight(self):
        game = parse_game("[3;2,1,1]")
        assert game.coalition_weight(coalition([2, 3])) == 2

    def test_unknown_voter_rejected(self):
        game = parse_game("[3;2,1,1]")
        with pytest.raises(ValueError):
            game.is_winning(1 << 3)
        with pytest.raises(ValueError, match="coalition contains unknown voters"):
            game.coalition_weight(1 << 3)
        with pytest.raises(ValueError, match="voter ids are 1-based"):
            coalition([0])


class TestStructure:
    def test_worked_example_minimal_winning(self):
        game = parse_game("[3;2,1,1]")
        assert game.minimal_winning == {
            coalition([1, 2]),
            coalition([1, 3]),
        }

    def test_worked_example_maximal_losing(self):
        game = parse_game("[3;2,1,1]")
        assert game.maximal_losing == {
            coalition([1]),
            coalition([2, 3]),
        }

    def test_symmetric_game_maximal_losing(self):
        game = parse_game("[2;1,1,1]")
        assert game.maximal_losing == {
            coalition([1]),
            coalition([2]),
            coalition([3]),
        }

    def test_dictator_with_dummy(self):
        game = parse_game("[1;1,0]")
        assert game.minimal_winning == {coalition([1])}
        assert game.maximal_losing == {coalition([2])}

    def test_structure_matches_brute_force_on_corpus(self, corpus):
        for game in corpus:
            assert game.minimal_winning == brute_minimal_winning(game)
            assert game.maximal_losing == brute_maximal_losing(game)

    def test_every_winning_contains_minimal_winning(self):
        # exhaustive containment check on a 6-voter game
        game = parse_game("[7;4,3,2,2,1,1]")
        for mask in range(1 << game.n):
            if game.is_winning(mask):
                assert any(
                    s & mask == s for s in game.minimal_winning
                )
            else:
                assert any(
                    t | mask == t for t in game.maximal_losing
                )


class TestDummies:
    def test_zero_weight_dummy(self):
        assert parse_game("[1;1,0]").dummies == {2}

    def test_trailing_dummy_voter(self):
        assert parse_game("[3;2,1,1,1,0]").dummies == {5}

    def test_symmetric_game_has_none(self):
        assert parse_game("[2;1,1,1]").dummies == frozenset()

    def test_positive_weight_dummy(self):
        # voter 4 carries weight 1 yet never tips any coalition
        assert parse_game("[5;3,3,3,1]").dummies == {4}

    def test_definitional_check(self, corpus):
        for game in corpus:
            for i in range(1, game.n + 1):
                bit = 1 << (i - 1)
                never_tips = all(
                    game.is_winning(mask | bit) == game.is_winning(mask)
                    for mask in range(1 << game.n)
                    if not mask & bit
                )
                assert (i in game.dummies) == never_tips


class TestDummyReduced:
    def test_dictator_reduction(self):
        reduced, id_map = parse_game("[1;1,0]").dummy_reduced()
        assert reduced == parse_game("[1;1]")
        assert id_map == {1: 1}

    def test_catalogue_pair(self):
        reduced, id_map = parse_game("[2;2,1,1,0]").dummy_reduced()
        assert reduced == parse_game("[2;2,1,1]")
        assert id_map == {1: 1, 2: 2, 3: 3}

    def test_dummy_free_game_is_identity(self):
        game = parse_game("[3;2,1,1]")
        reduced, id_map = game.dummy_reduced()
        assert reduced is game
        assert id_map == {1: 1, 2: 2, 3: 3}

    def test_positive_weight_dummy_dropped(self):
        reduced, id_map = parse_game("[5;3,3,3,1]").dummy_reduced()
        assert reduced == parse_game("[2;1,1,1]")
        assert id_map == {1: 1, 2: 2, 3: 3}


class TestDual:
    def test_listed_pairs(self):
        assert parse_game("[1;1,1,1]").dual() == parse_game("[3;1,1,1]")
        assert parse_game("[2;2,1,1]").dual() == parse_game("[3;2,1,1]")

    def test_swaps_winning_with_complement_losing(self, corpus):
        for game in corpus:
            dual = game.dual()
            full = (1 << game.n) - 1
            assert dual.minimal_winning == {
                full ^ t for t in game.maximal_losing
            }
            assert dual.maximal_losing == {
                full ^ s for s in game.minimal_winning
            }

    def test_complement_identity_brute_force(self):
        for spec in ("[3;2,1,1]", "[7;4,3,2,2,1]", "[2;1,1,1]"):
            game = parse_game(spec)
            dual = game.dual()
            full = (1 << game.n) - 1
            for mask in range(1 << game.n):
                assert dual.is_winning(mask) == (
                    not game.is_winning(full ^ mask)
                )

    def test_involution_on_corpus(self, corpus):
        for game in corpus:
            assert game.dual().dual() == game

    def test_fractional_weights(self):
        game = parse_game("[1/2;1/3,1/4,1/4]")
        dual = game.dual()
        full = (1 << game.n) - 1
        for mask in range(1 << game.n):
            assert dual.is_winning(mask) == (not game.is_winning(full ^ mask))


class TestFeasibility:
    def test_listed_feasible_vector(self):
        assert is_feasible_weights(parse_game("[2;1,1,1]"), (49, 48, 3))

    def test_listed_infeasible_vector(self):
        assert not is_feasible_weights(parse_game("[2;1,1,1]"), (50, 25, 25))

    def test_ssi_vector_infeasible_at_four_voters(self):
        game = parse_game("[3;2,1,1,1]")
        vec = (Fraction(1, 2), Fraction(1, 6), Fraction(1, 6), Fraction(1, 6))
        assert not is_feasible_weights(game, vec)

    def test_own_weights_always_feasible(self, corpus):
        for game in corpus:
            assert is_feasible_weights(game, game.weights)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_feasible_weights(parse_game("[2;1,1,1]"), (1, 1))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            is_feasible_weights(parse_game("[2;1,1,1]"), (1, 1, -1))


class TestRepresentation:
    def test_listed_representation(self):
        assert is_representation(parse_game("[2;1,1,1]"), 60, (34, 33, 33))

    def test_defining_representation(self):
        assert is_representation(parse_game("[3;2,1,1]"), 3, (2, 1, 1))

    def test_losing_coalition_reaching_quota_fails(self):
        assert not is_representation(
            parse_game("[2;1,1,1]"), 51, (50, 25, 25)
        )

    def test_own_representation_on_corpus(self, corpus):
        for game in corpus:
            assert is_representation(game, game.quota, game.weights)


class TestNormalize:
    def test_worked_example(self):
        rep = parse_game("[3;2,1,1]").normalize()
        assert rep == NormalizedRepresentation(
            Fraction(3, 4),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        )

    def test_symmetric_game(self):
        rep = parse_game("[2;1,1,1]").normalize()
        assert rep.quota == Fraction(2, 3)
        assert rep.weights == (
            Fraction(1, 3),
            Fraction(1, 3),
            Fraction(1, 3),
        )

    def test_dictator(self):
        rep = parse_game("[1;1]").normalize()
        assert rep == NormalizedRepresentation(Fraction(1), (Fraction(1),))

    def test_normalized_weights_still_represent(self, corpus):
        for game in corpus:
            rep = game.normalize()
            assert is_representation(game, rep.quota, rep.weights)


class TestL1Distance:
    def test_worked_distance(self):
        assert l1_distance(
            (Fraction(1, 2), Fraction(49, 100), Fraction(1, 100)),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        ) == Fraction(97, 150)

    def test_identical_vectors(self):
        assert l1_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_index_gap(self):
        assert l1_distance(
            (Fraction(11, 18), Fraction(7, 36), Fraction(7, 36)),
            (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)),
        ) == Fraction(1, 9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_distance((1,), (1, 2))


class TestNumpyIntegers:
    """numpy integers are read as Python ints, so no sum of them wraps."""

    BIG = 2**62

    def test_game_equals_the_python_int_game(self):
        want = WeightedGame(3, [self.BIG, self.BIG, 1])
        got = WeightedGame(
            np.int64(3), [np.int64(self.BIG), np.int64(self.BIG), np.int64(1)]
        )
        assert (got.quota, got.weights) == (want.quota, want.weights)
        assert got.to_spec() == want.to_spec()
        assert got.minimal_winning == want.minimal_winning
        assert got.maximal_losing == want.maximal_losing
        assert got.dummies == want.dummies
        for x in (got.quota, *got.weights):
            assert type(x.numerator) is int and type(x.denominator) is int

    @pytest.mark.parametrize("vector", [(BIG, BIG, BIG), (BIG, BIG, 1)])
    def test_weight_vectors_equal_the_python_int_vectors(self, vector):
        game = parse_game("[2;1,1,1]")
        as_numpy = [np.int64(x) for x in vector]
        assert is_feasible_weights(game, as_numpy)
        assert is_feasible_weights(game, vector)
        quota = 2 * self.BIG
        assert is_representation(game, quota, as_numpy) == is_representation(
            game, quota, vector
        )

    def test_l1_distance(self):
        distance = l1_distance([np.int64(self.BIG)], [np.int64(-self.BIG)])
        assert distance == 2 * self.BIG


class TestGameIdentity:
    def test_equality_ignores_representation(self):
        assert parse_game("[2;2,1,1]") == parse_game("[4;4,2,2]")
        assert parse_game("[2;2,1,1]") != parse_game("[3;2,1,1]")
        # a non-game operand gets NotImplemented, so Python compares identity
        assert (parse_game("[3;2,1,1]") == 3) is False

    def test_repr(self):
        assert repr(parse_game("[3;2,1,1]")) == "WeightedGame('[3; 2, 1, 1]')"

    def test_hash_consistent_with_equality(self):
        games = {parse_game("[2;2,1,1]"), parse_game("[4;4,2,2]")}
        assert len(games) == 1

    def test_members_helper(self):
        assert members(coalition([2, 5])) == (2, 5)


@settings(max_examples=150, deadline=None)
@given(small_games())
def test_structure_invariants_on_random_games(game):
    assert game.minimal_winning == brute_minimal_winning(game)
    assert game.maximal_losing == brute_maximal_losing(game)
    assert game.dual().dual() == game
    assert is_representation(game, game.quota, game.weights)


@st.composite
def fractional_games(draw):
    """1-8 voters, weights p/q with p in 0..7 (zeros and ties) and q in
    {1, 2, 3, 7}; the quota is a coalition's weight or a share of the
    total, so winning coalitions often weigh exactly the quota."""
    n = draw(st.integers(1, 8))
    weight = st.builds(Fraction, st.integers(0, 7), st.sampled_from([1, 2, 3, 7]))
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    total = sum(weights)
    assume(total > 0)
    mask = draw(st.integers(1, (1 << n) - 1))
    hit = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    if not hit or draw(st.booleans()):
        hit = total * Fraction(draw(st.integers(1, 60)), 60)
    return WeightedGame(hit, weights)


@settings(max_examples=100, deadline=None)
@given(fractional_games())
def test_structure_matches_brute_force_on_fractional_games(game):
    mwc = brute_minimal_winning(game)
    assert game.minimal_winning == mwc
    assert game.maximal_losing == brute_maximal_losing(game)
    assert game.dummies == {
        i for i in range(1, game.n + 1) if not any(m >> (i - 1) & 1 for m in mwc)
    }


@settings(max_examples=60, deadline=None)
@given(small_games())
def test_monotonicity_from_nonnegative_weights(game):
    for mask in range(1 << game.n):
        if game.is_winning(mask):
            for i in range(game.n):
                assert game.is_winning(mask | (1 << i))


@st.composite
def tied_games(draw):
    """1-10 voters with zero and tied weights; the quota is a coalition's
    weight or a share of the total, so voters of unequal weight are often
    equally desirable."""
    n = draw(st.integers(1, 10))
    weight = st.sampled_from([0, 0, 1, 1, 2, 3, 5])
    weights = draw(st.lists(weight, min_size=n, max_size=n))
    total = sum(weights)
    assume(total > 0)
    mask = draw(st.integers(1, (1 << n) - 1))
    quota = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    if not quota or draw(st.booleans()):
        quota = Fraction(total * draw(st.integers(1, 12)), 12)
    return WeightedGame(quota, weights)


@settings(max_examples=120, deadline=None)
@given(tied_games())
def test_classes_are_the_swaps_that_keep_the_structure(game):
    classes = desirability_classes(game)
    order = [v for cls in classes for v in cls]
    assert sorted(order) == list(range(1, game.n + 1))
    assert [game.weights[v - 1] for v in order] == sorted(game.weights, reverse=True)
    pairs = sorted(
        (min(i, j), max(i, j))
        for cls in classes
        for k, i in enumerate(cls)
        for j in cls[k + 1 :]
    )
    assert pairs == oracle_transposition_automorphisms(game)
