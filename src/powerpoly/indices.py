"""Power indices: the Shapley-Shubik index and two centroid indices.

The average weight index is the barycenter of the game's weight polytope;
the average representation index is the weight part of the barycenter of
its representation polytope, which also yields an average quota. Both are
exact rationals, sum to one, and (unlike the Shapley-Shubik index in
general) are themselves feasible weight vectors for the game they score.
Both are read off the barycenter's integer numerators over one common
denominator, the last weight included, and the index checks compare
such integers too.

Results come as NamedTuples, not dataclasses, so that importing the
package loads neither `dataclasses` nor `inspect`: IndexVector, which
checks its values whenever one is made, and AxiomReport, whose field
order is the order of the axioms in the CLI's output and JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple, Sequence

from .exact_math import common_denominator, decimal_str
from .game_core import (
    WeightedGame,
    desirability_classes,
    is_feasible_weights,
)
from .polytope import (
    _centroid_sums,
    build_representation_polytope,
    build_weight_polytope,
)

__all__ = [
    "AxiomReport",
    "INDICES",
    "IndexVector",
    "KIND_AVG_REP",
    "KIND_AVG_WEIGHT",
    "KIND_SSI",
    "average_representation_index",
    "average_weight_index",
    "check_axioms",
    "dummy_revealing",
    "index_to_json",
    "is_representation_compatible_at",
    "shapley_shubik",
]

KIND_SSI = "ssi"
KIND_AVG_WEIGHT = "avg-weight"
KIND_AVG_REP = "avg-rep"

class _IndexFields(NamedTuple):
    values: tuple[Fraction, ...]
    kind: str
    avg_quota: Fraction | None = None


class IndexVector(_IndexFields):
    """Per-voter scores summing to one.

    `avg_quota` is populated only by the average representation index
    (and its dummy-revealing variant), where the quota coordinate of the
    centroid is meaningful. The values are checked whenever a vector is
    made, by `_replace` too, in integers over their common denominator.
    """

    __slots__ = ()

    def __new__(cls, values, kind, avg_quota=None):
        nums, den = common_denominator(values)
        if any(x < 0 for x in nums):
            raise ValueError("index values must be nonnegative")
        if sum(nums) != den:
            raise ValueError("index values must sum to one")
        return super().__new__(cls, values, kind, avg_quota)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class AxiomReport(NamedTuple):
    symmetric: bool
    positive: bool
    efficient: bool
    dummy_property: bool
    representation_compatible: bool


def shapley_shubik(game: WeightedGame) -> IndexVector:
    """Exact Shapley-Shubik index.

    Sums marginal contributions over all coalitions with the usual
    |S|! (n-1-|S|)! / n! ordering weights. Monotonicity lets the scan
    skip coalitions that already win.
    """
    n = game.n
    table, q = game._mask_weight, game._int_quota
    fact = [factorial(k) for k in range(n + 1)]
    nums = [0] * n
    for m in range(1 << n):
        if table[m] >= q:
            continue
        coeff = fact[m.bit_count()] * fact[n - 1 - m.bit_count()]
        for i in range(n):
            bit = 1 << i
            if not m & bit and table[m | bit] >= q:
                nums[i] += coeff
    return IndexVector(
        tuple(Fraction(c, fact[n]) for c in nums), KIND_SSI
    )


def average_weight_index(game: WeightedGame) -> IndexVector:
    """Barycenter of the polytope of compatible normalized weights."""
    sums, den = _centroid_sums(build_weight_polytope(game))
    return IndexVector(_unit_sum(sums, den), KIND_AVG_WEIGHT)


def average_representation_index(game: WeightedGame) -> IndexVector:
    """Weight part of the representation polytope's barycenter.

    The quota coordinate of the same barycenter is reported as
    `avg_quota`; together they form a representation of the game.
    """
    (quota, *sums), den = _centroid_sums(build_representation_polytope(game))
    return IndexVector(
        _unit_sum(sums, den), KIND_AVG_REP, avg_quota=Fraction(quota, den)
    )


def _unit_sum(sums: list[int], den: int) -> tuple[Fraction, ...]:
    """Chart weights sums / den, then the last weight the unit sum leaves."""
    return tuple(Fraction(s, den) for s in (*sums, den - sum(sums)))


# The one registry of index kinds: kind name -> exact index function.
INDICES = {
    KIND_SSI: shapley_shubik,
    KIND_AVG_WEIGHT: average_weight_index,
    KIND_AVG_REP: average_representation_index,
}


def dummy_revealing(kind: str, game: WeightedGame) -> IndexVector:
    """Compute `kind` on the dummy-reduced game; dummies score exactly 0.

    On a dummy-free game the values match the base index. The reduced
    game's average quota (if any) carries over unchanged, since padding a
    representation with zero weights represents the original game.
    """
    if kind not in INDICES:
        raise ValueError(f"unknown index kind: {kind!r}")
    reduced, id_map = game.dummy_reduced()
    base = INDICES[kind](reduced)
    values = [Fraction(0)] * game.n
    for new_id, old_id in id_map.items():
        values[old_id - 1] = base.values[new_id - 1]
    return IndexVector(
        tuple(values), f"{kind}-dummy-revealing", avg_quota=base.avg_quota
    )


def is_representation_compatible_at(
    game: WeightedGame, index: IndexVector
) -> bool:
    """True when the index vector is a feasible weight vector for `game`."""
    return is_feasible_weights(game, index.values)


def check_axioms(game: WeightedGame, index: IndexVector) -> AxiomReport:
    """Evaluate the classic index axioms plus representation compatibility.

    Symmetry means equal scores for interchangeable voters, those in one
    class of desirability_classes; positivity means nonnegative scores
    with at least one positive; efficiency means the scores sum to one;
    the dummy property means dummies score zero (vacuously true without
    dummies).
    """
    if len(index.values) != game.n:
        raise ValueError("index length does not match the game")
    nums, den = common_denominator(index.values)
    symmetric = all(
        len({nums[v - 1] for v in cls}) == 1
        for cls in desirability_classes(game)
    )
    positive = all(x >= 0 for x in nums) and any(x > 0 for x in nums)
    efficient = sum(nums) == den
    dummy_ok = all(nums[i - 1] == 0 for i in game.dummies)
    compatible = is_feasible_weights(game, nums)
    return AxiomReport(symmetric, positive, efficient, dummy_ok, compatible)


def index_to_json(
    game: WeightedGame,
    index: IndexVector,
    axioms: AxiomReport | None = None,
    precision: int = 6,
) -> dict:
    """JSON document for an index result; schema is stable across kinds."""
    doc: dict = {
        "game": game.to_spec(),
        "kind": index.kind,
        "values": [str(v) for v in index.values],
        "decimals": [decimal_str(v, precision) for v in index.values],
    }
    if index.avg_quota is not None:
        doc["avg_quota"] = str(index.avg_quota)
    if axioms is not None:
        doc["axioms"] = axioms._asdict()
    return doc
