"""Weighted majority games: parsing, coalition structure, feasibility tests.

A game is a positive quota plus a vector of nonnegative rational weights
for voters 1..n; a coalition wins exactly when its weight reaches the
quota. Coalitions are plain int bitmasks (bit i-1 set means voter i is a
member), and the full coalition structure is derived exhaustively and
exactly at construction time. Spec entries are read by
`exact_math.parse_rational`, the package's one parser for rational
literals, and every other rational input by `exact_math.rational`. The
constructor and the weight-vector tests compare integers over one common
denominator. The grid scans and the Monte Carlo estimator read the minimal
winning and maximal losing coalitions as one pair of membership
matrices, _structure_matrices, the only code here that imports numpy.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .exact_math import common_denominator, parse_rational, rational

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Coalition",
    "GameFormatError",
    "MAX_VOTERS",
    "NormalizedRepresentation",
    "ScaleExceededError",
    "WeightedGame",
    "coalition",
    "coalition_str",
    "desirability_classes",
    "is_feasible_weights",
    "is_representation",
    "l1_distance",
    "members",
    "parse_game",
]

Coalition = int

# Structure derivation scans all 2^n coalitions; refuse anything bigger.
MAX_VOTERS = 16

_GAME_RE = re.compile(r"^\s*\[([^;\[\]]*);([^\[\]]*)\]\s*$")


class GameFormatError(ValueError):
    """Malformed game spec text or invalid game parameters."""


class ScaleExceededError(RuntimeError):
    """Request beyond a scale limit, refused before its work starts."""


def coalition(voters: Iterable[int]) -> Coalition:
    """Bitmask for a set of 1-based voter ids."""
    mask = 0
    for v in voters:
        if v < 1:
            raise ValueError("voter ids are 1-based")
        mask |= 1 << (v - 1)
    return mask


def members(mask: Coalition) -> tuple[int, ...]:
    """Voter ids of a coalition, ascending."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def coalition_str(mask: Coalition) -> str:
    return "{" + ",".join(str(v) for v in members(mask)) + "}"


class NormalizedRepresentation(NamedTuple):
    """Quota and weights rescaled so the weights sum to one."""

    quota: Fraction
    weights: tuple[Fraction, ...]


class WeightedGame:
    """A quota game on voters 1..n with nonnegative rational weights.

    Games are value objects: equality and hashing go by coalition
    structure (voter count plus the set of minimal winning coalitions),
    because many weight vectors describe the same game. The structure
    fields `minimal_winning`, `maximal_losing` and `dummies` are computed
    once in the constructor and never change.
    """

    __slots__ = (
        "n",
        "quota",
        "weights",
        "minimal_winning",
        "maximal_losing",
        "dummies",
        "_scale",
        "_int_quota",
        "_mask_weight",
    )

    def __init__(self, quota, weights) -> None:
        quota = rational(quota)
        ws = tuple(map(rational, weights))
        if not ws:
            raise GameFormatError("a game needs at least one voter")
        if len(ws) > MAX_VOTERS:
            raise ScaleExceededError(f"at most {MAX_VOTERS} voters are supported")
        # One common denominator turns every check and every coalition-weight
        # comparison into integer arithmetic.
        (q, *int_weights), scale = common_denominator((quota, *ws))
        if q <= 0:
            raise GameFormatError("quota must be positive")
        if any(w < 0 for w in int_weights):
            raise GameFormatError("weights must be nonnegative")
        if sum(int_weights) < q:
            raise GameFormatError("the grand coalition must reach the quota")
        self.n = len(ws)
        self.quota = quota
        self.weights = ws
        self._scale = scale
        self._int_quota = q

        # light[m] is the bit of a lightest member of m. Weights are >= 0, so
        # a winning m is minimal iff it loses without a lightest member, and
        # a losing m is maximal iff it wins with a lightest outsider.
        size = 1 << self.n
        table = [0] * size
        light = [0] * size
        for m in range(1, size):
            low = m & -m
            rest = m ^ low
            w = int_weights[low.bit_length() - 1]
            table[m] = table[rest] + w
            light[m] = light[rest] if rest and table[light[rest]] < w else low
        self._mask_weight = table

        full = size - 1
        self.minimal_winning = frozenset(
            m for m in range(size) if table[m] >= q > table[m ^ light[m]]
        )
        self.maximal_losing = frozenset(
            m for m in range(size) if table[m] < q <= table[m | light[full ^ m]]
        )
        covered = 0
        for m in self.minimal_winning:
            covered |= m
        self.dummies = frozenset(i + 1 for i in range(self.n) if not covered >> i & 1)

    def is_winning(self, mask: Coalition) -> bool:
        if mask < 0 or mask >> self.n:
            raise ValueError("coalition contains unknown voters")
        return self._mask_weight[mask] >= self._int_quota

    def coalition_weight(self, mask: Coalition) -> Fraction:
        if mask < 0 or mask >> self.n:
            raise ValueError("coalition contains unknown voters")
        return Fraction(self._mask_weight[mask], self._scale)

    def dummy_reduced(self) -> tuple["WeightedGame", dict[int, int]]:
        """Drop dummy voters; returns the reduced game and an id map.

        The map sends new (reduced) voter ids to the originals. A
        dummy-free game comes back as itself with the identity map.
        """
        if not self.dummies:
            return self, {i: i for i in range(1, self.n + 1)}
        keep = [i for i in range(1, self.n + 1) if i not in self.dummies]
        reduced = WeightedGame(self.quota, [self.weights[i - 1] for i in keep])
        return reduced, {new: old for new, old in enumerate(keep, start=1)}

    def dual(self) -> "WeightedGame":
        """Game whose winners are complements of this game's losers.

        The dual quota is total - quota + delta with delta chosen small
        enough not to cross any coalition weight: 1 for all-integer input,
        otherwise half the smallest positive gap between the quota and a
        coalition weight.
        """
        total, q, scale = self._mask_weight[-1], self._int_quota, self._scale
        if scale == 1:
            return WeightedGame(total - q + 1, self.weights)
        gap = min(abs(w - q) for w in self._mask_weight if w != q)
        return WeightedGame(Fraction(2 * (total - q) + gap, 2 * scale), self.weights)

    def normalize(self) -> NormalizedRepresentation:
        """Same game with weights scaled to sum to one."""
        total = self._mask_weight[-1]
        return NormalizedRepresentation(
            Fraction(self._int_quota, total),
            tuple(Fraction(self._mask_weight[1 << i], total) for i in range(self.n)),
        )

    def to_spec(self) -> str:
        """Canonical text form, single spaces after separators."""
        body = ", ".join(str(w) for w in self.weights)
        return f"[{self.quota}; {body}]"

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGame):
            return NotImplemented
        return self.n == other.n and self.minimal_winning == other.minimal_winning

    def __hash__(self) -> int:
        return hash((self.n, self.minimal_winning))

    def __repr__(self) -> str:
        return f"WeightedGame({self.to_spec()!r})"


def parse_game(text: str) -> WeightedGame:
    """Parse "[q; w1, w2, ..., wn]" with integer or p/q entries."""
    m = _GAME_RE.match(text)
    if not m:
        raise GameFormatError(f"not a game spec: {text!r}")
    quota_text, body = m.groups()
    try:
        quota = parse_rational(quota_text)
    except ValueError as exc:
        raise GameFormatError(f"bad quota entry: {exc}") from None
    if not body.strip():
        raise GameFormatError("a game needs at least one voter")
    try:
        weights = [parse_rational(tok) for tok in body.split(",")]
    except ValueError as exc:
        raise GameFormatError(f"bad weight entry: {exc}") from None
    return WeightedGame(quota, weights)


def desirability_classes(game: WeightedGame) -> tuple[tuple[int, ...], ...]:
    """Voters in decreasing weight order, in runs of equally desirable ones.

    Ties in weight keep voter order. Voter i is more desirable than j
    when some coalition without either wins with i and loses with j; a
    weighted game ranks every pair that way or calls it equal, and the
    heavier voter is never the less desirable, so each class is a run of
    the weight order and only neighbours need a test. For w_i >= w_j,
    i is strictly more desirable exactly when some minimal winning
    coalition holds i but not j and loses once j replaces i.
    """
    table, q = game._mask_weight, game._int_quota
    order = sorted(range(game.n), key=lambda i: -table[1 << i])
    classes = [[order[0] + 1]]
    for i, j in zip(order, order[1:]):
        swap = 1 << i | 1 << j
        if table[1 << i] != table[1 << j] and any(
            table[m ^ swap] < q
            for m in game.minimal_winning
            if m >> i & 1 and not m >> j & 1
        ):
            classes.append([])
        classes[-1].append(j + 1)
    return tuple(map(tuple, classes))


def _structure_matrices(game: WeightedGame) -> tuple[np.ndarray, np.ndarray]:
    """Membership matrices of the minimal winning and maximal losing coalitions.

    Row j, column i of each is bit i of its j-th coalition in ascending
    mask order, the order the polytope builders write their rows in, as
    int8. The grid scans and the Monte Carlo estimator weigh coalitions
    with them; numpy is imported here, on the first call.
    """
    import numpy as np

    def mat(masks):
        masks = np.array(sorted(masks), dtype=np.int64)
        return (masks[:, None] >> np.arange(game.n) & 1).astype(np.int8)

    return mat(game.minimal_winning), mat(game.maximal_losing)


def _checked_vector(game: WeightedGame, vector: Sequence, *lead) -> list[int]:
    """Numerators of the `lead` values, then `vector`, over one denominator.

    The vector must hold game.n nonnegative rationals.
    """
    nums, _ = common_denominator((*lead, *vector))
    xs = nums[len(lead) :]
    if len(xs) != game.n:
        raise ValueError("weight vector length mismatch")
    if any(x < 0 for x in xs):
        raise ValueError("weights must be nonnegative")
    return nums


def _weigh(xs: Sequence[int], masks: Iterable[Coalition]) -> list[int]:
    """Weight of each coalition in `masks` under the weights `xs`."""
    return [sum(x for i, x in enumerate(xs) if m >> i & 1) for m in masks]


def is_feasible_weights(game: WeightedGame, vector: Sequence) -> bool:
    """True when some quota turns `vector` into a representation of `game`.

    Equivalent test: every minimal winning coalition outweighs every
    maximal losing one, strictly. Scaling the vector by a positive factor
    does not change the answer.
    """
    xs = _checked_vector(game, vector)
    lightest_win = min(_weigh(xs, game.minimal_winning))
    return lightest_win > max(_weigh(xs, game.maximal_losing))


def is_representation(game: WeightedGame, quota, vector: Sequence) -> bool:
    """True when (quota, vector) describes exactly this game.

    Winning coalitions must reach the quota and losing ones must fall
    strictly below it; by monotonicity it is enough to check minimal
    winning and maximal losing coalitions.
    """
    q, *xs = _checked_vector(game, vector, rational(quota))
    if min(_weigh(xs, game.minimal_winning)) < q:
        return False
    return max(_weigh(xs, game.maximal_losing)) < q


def l1_distance(x: Sequence, y: Sequence) -> Fraction:
    """Sum of componentwise absolute differences, exact."""
    if len(x) != len(y):
        raise ValueError("vectors must have equal length")
    return sum((abs(rational(a) - rational(b)) for a, b in zip(x, y)), Fraction(0))
