"""Brute-force vertex enumeration, kept as the reference for the DD method.

The integer rows are derived here from the Fraction constraints, sharing
no code with the enumerator. Every independent d-subset of their
boundaries is solved as an equality system; the feasible solutions are
the vertices, and each vertex's active set is recomputed in Fractions
against the polytope's full constraint list. Cost grows combinatorially
with the number of constraints, so this belongs in tests only.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from powerpoly.polytope import HPolytope, Vertex


def _oracle_rows(poly: HPolytope):
    """Distinct nonconstant primitive integer rows, or None if one is 0 <= b < 0.

    Each row is scaled by the lcm of its denominators, then divided by
    the gcd of its entries; exact duplicates go, first occurrence kept.
    """
    rows = []
    for con in poly.constraints:
        den = lcm(con.b.denominator, *(c.denominator for c in con.a))
        row = [c.numerator * (den // c.denominator) for c in (*con.a, con.b)]
        g = gcd(*row) or 1
        a, b = tuple(c // g for c in row[:-1]), row[-1] // g
        if any(a):
            rows.append((a, b))
        elif b < 0:
            return None
    return list(dict.fromkeys(rows))


def _solve_echelon(ech: list[list[int]], pivots: list[int], d: int):
    """Back-substitute an integer echelon system with d distinct pivots."""
    x: list[Fraction] = [Fraction(0)] * d
    for idx in reversed(range(d)):
        row = ech[idx]
        pc = pivots[idx]
        s = Fraction(row[d])
        for t in range(d):
            if t != pc and row[t]:
                s -= row[t] * x[t]
        x[pc] = s / row[pc]
    den = 1
    for v in x:
        den = lcm(den, v.denominator)
    return tuple(int(v * den) for v in x), den


def _basis_solutions(rows: list[tuple[tuple[int, ...], int]], d: int) -> set:
    """Solutions of every independent d-subset of boundaries.

    A prefix recursion shares elimination work between subsets and prunes
    dependent rows early; dependent prefixes can never become a
    nonsingular square system. Solutions come back as primitive
    (numerators, denominator) pairs with a positive denominator.
    """
    m = len(rows)
    sols: set[tuple[tuple[int, ...], int]] = set()
    ech: list[list[int]] = []
    pivots: list[int] = []

    def reduce_row(a: tuple[int, ...], b: int) -> list[int]:
        r = list(a) + [b]
        for prow, pc in zip(ech, pivots):
            if r[pc]:
                f, q = prow[pc], r[pc]
                for t in range(d + 1):
                    r[t] = r[t] * f - prow[t] * q
        g = 0
        for t in range(d + 1):
            g = gcd(g, r[t])
        if g > 1:
            for t in range(d + 1):
                r[t] //= g
        return r

    def recurse(start: int, depth: int) -> None:
        if depth == d:
            sols.add(_solve_echelon(ech, pivots, d))
            return
        for j in range(start, m - (d - depth) + 1):
            r = reduce_row(*rows[j])
            pc = -1
            for t in range(d):
                if r[t]:
                    pc = t
                    break
            if pc < 0:
                continue
            ech.append(r)
            pivots.append(pc)
            recurse(j + 1, depth + 1)
            ech.pop()
            pivots.pop()

    recurse(0, 0)
    return sols


def _filter_feasible(rows: list[tuple[tuple[int, ...], int]], candidates: set) -> list:
    """Keep candidate points satisfying every constraint, exactly.

    A vectorized float pass rejects points that violate some constraint
    by more than 1e-9 (conversion error is orders of magnitude smaller,
    so no feasible point is lost); survivors are confirmed with integer
    arithmetic. No candidates (a constraint matrix of rank below d)
    means no vertices.
    """
    cand = list(candidates)
    if not cand:
        return []
    a_mat = np.array([list(a) for a, _ in rows], dtype=float)
    b_vec = np.array([b for _, b in rows], dtype=float)
    pts = np.array(
        [[num / den for num in nums] for nums, den in cand], dtype=float
    )
    slack = b_vec[None, :] - pts @ a_mat.T
    near = np.nonzero((slack >= -1e-9).all(axis=1))[0]
    out = []
    for idx in near:
        nums, den = cand[idx]
        ok = True
        for a, b in rows:
            acc = 0
            for coef, num in zip(a, nums):
                if coef:
                    acc += coef * num
            if acc > b * den:
                ok = False
                break
        if ok:
            out.append((nums, den))
    return out


def oracle_vertices(poly: HPolytope) -> list[Vertex]:
    """Vertices by brute force, sorted lexicographically; never cached."""
    d = poly.dim
    pre = _oracle_rows(poly)
    verts: list[Vertex] = []
    if pre is None:
        pass
    elif d == 0:
        active = frozenset(
            i for i, con in enumerate(poly.constraints) if con.b == 0
        )
        verts = [Vertex((), active)]
    elif len(pre) >= d:
        feasible = _filter_feasible(pre, _basis_solutions(pre, d))
        for nums, den in feasible:
            coords = tuple(Fraction(num, den) for num in nums)
            active = frozenset(
                i
                for i, con in enumerate(poly.constraints)
                if sum((ca * x for ca, x in zip(con.a, coords)), Fraction(0)) == con.b
            )
            verts.append(Vertex(coords, active))
        verts.sort(key=lambda v: v.coords)
    return verts
