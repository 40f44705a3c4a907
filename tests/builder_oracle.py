"""The polytope builders from their definitions, one Fraction per entry.

In the chart w_n = 1 - (w_1 + ... + w_{n-1}) a coalition weighs
w(C) = sum_{i<n} (c_i - c_n) w_i + c_n, with c_i its membership bits.
The weight polytope asks w(T) - w(S) <= 0 for every minimal winning S
and maximal losing T; the representation polytope asks q - w(S) <= 0
and w(T) - q <= 0 over (q, w_1 .. w_{n-1}). Both add the bounds
0 <= w_i, and the representation polytope 0 <= q <= 1. The library
writes these rows in integers over a few shared Fractions, so it must
build exactly the constraints below, labels included.
"""

from fractions import Fraction

from powerpoly.game_core import WeightedGame, coalition_str
from powerpoly.polytope import Constraint, HPolytope


def _unit(dim: int, j: int, value: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(value if i == j else 0) for i in range(dim))


def oracle_weight_polytope(game: WeightedGame) -> HPolytope:
    n, d = game.n, game.n - 1
    cons = [
        Constraint(_unit(d, i, -1), Fraction(0), f"w{i + 1} >= 0") for i in range(d)
    ]
    cons.append(Constraint((Fraction(1),) * d, Fraction(1), f"w{n} >= 0"))
    for s in sorted(game.minimal_winning):
        for t in sorted(game.maximal_losing):
            s_n, t_n = s >> d & 1, t >> d & 1
            a = tuple(
                Fraction(((t >> i & 1) - t_n) - ((s >> i & 1) - s_n)) for i in range(d)
            )
            label = f"w({coalition_str(s)}) >= w({coalition_str(t)})"
            cons.append(Constraint(a, Fraction(s_n - t_n), label))
    return HPolytope(d, cons)


def oracle_representation_polytope(game: WeightedGame) -> HPolytope:
    n, d = game.n, game.n - 1
    cons = [
        Constraint(_unit(n, 0, -1), Fraction(0), "q >= 0"),
        Constraint(_unit(n, 0, 1), Fraction(1), "q <= 1"),
    ]
    cons += [
        Constraint(_unit(n, i, -1), Fraction(0), f"w{i} >= 0") for i in range(1, n)
    ]
    ones = (Fraction(0),) + (Fraction(1),) * d
    cons.append(Constraint(ones, Fraction(1), f"w{n} >= 0"))
    for s in sorted(game.minimal_winning):
        s_n = s >> d & 1
        a = (Fraction(1),) + tuple(Fraction(s_n - (s >> i & 1)) for i in range(d))
        cons.append(Constraint(a, Fraction(s_n), f"w({coalition_str(s)}) >= q"))
    for t in sorted(game.maximal_losing):
        t_n = t >> d & 1
        a = (Fraction(-1),) + tuple(Fraction((t >> i & 1) - t_n) for i in range(d))
        cons.append(Constraint(a, Fraction(-t_n), f"w({coalition_str(t)}) <= q"))
    return HPolytope(n, cons)
