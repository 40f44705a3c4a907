"""Halfspace polytopes over the rationals, built from weighted games.

Two constructions matter here. The weight polytope of a game collects the
normalized weight vectors compatible with its coalition structure; the
representation polytope additionally carries the quota as a coordinate.
Both live in a chart that eliminates the last weight via
w_n = 1 - (w_1 + ... + w_{n-1}), and both close the strict separation
inequalities: the closure only adds boundary slices of measure zero, so
volumes and centroids are unchanged while vertex enumeration gets a
compact polytope to work on. Past MAX_POLYTOPE_ROWS rows the builders
raise ScaleExceededError; otherwise the polytope they return keeps only
the game and its kind. Every exact stage starts from primitive integer
rows, written once per polytope on first read: from the game by one
writer for both polytopes (_game_rows), or from the Fractions of a
polytope built by hand. A game polytope writes its Constraint objects,
labels included, only when its `constraints` are first read (polytope
--json, library callers); no exact stage reads them, nor does the Monte
Carlo estimator (estimate.py), which writes its own rows from the game.
So a build, an estimate and an exact stage refused at the voter cap
write no row, nor does polytope_to_json, which enumerates the vertices
before it reads the constraints. The value types here, like the
package's others, are NamedTuples, which a process defines far faster
than dataclasses.

Everything downstream of construction is exact: vertices are the extreme
rays of the homogenized cone, found by integer double description, and
their zero sets say which constraints are tight where. The same pass
fills one vertex table, memoized as one value, that every later exact
stage reads through _vertex_table: the rays and their common
denominator (`rays`, `den`), per distinct row the bitmask of the
vertices tight on it (`cols`), the rays' zero sets (`zeros`), each
distinct row's constraints (`groups`) and whether the polytope is
`unbounded`. Only enumerate_vertices turns the table into Vertex
objects, with Fraction coordinates, on its first call. Vertex
enumeration refuses a game polytope of more than EXACT_MAX_VOTERS
voters (check_exact_scale), and with it every exact stage; the stages
after it refuse an unbounded polytope, which double description shows
by a ray or line at infinity. The polytope is
cut into simplices by recursive apex coning over facets read off the
table's columns, with no rank test. Volumes and first moments add up
integer determinants (Bareiss) of each cell's homogeneous ray rows
(x_v, t_v) over the table's common denominator, so the only Fractions
are the values volume, moments and centroid return, built from those
integer sums. This module has no floating point and never imports
numpy; the Monte Carlo estimator that cross-checks its centroids lives
in estimate.py.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, prod
from numbers import Rational
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .estimate import MAX_MC_SAMPLES
from .exact_math import bareiss, common_denominator
from .game_core import ScaleExceededError, WeightedGame, coalition_str

__all__ = [
    "Constraint",
    "DegenerateGeometryError",
    "EXACT_MAX_VOTERS",
    "HPolytope",
    "MAX_POLYTOPE_ROWS",
    "Simplex",
    "Vertex",
    "build_representation_polytope",
    "build_weight_polytope",
    "centroid",
    "check_exact_scale",
    "constraint_count",
    "enumerate_vertices",
    "moments",
    "polytope_to_json",
    "triangulate",
    "volume",
]


# Largest polytope, in constraint rows, the builders build. A build only
# counts the rows, so this bounds what is written from the polytope later:
# its constraints and an estimate's Monte Carlo set-up (the exact stages
# stop at the voter cap first). The weight polytope of [33;11,10,...,1],
# 17,301 rows, writes its integer rows in 33-68 ms (3.3 MB) and their
# Constraint objects in 51-88 ms more (4.8 MB) on the first `constraints`
# read. Its Monte Carlo set-up takes 5 ms and 1.5 MB (3.6 MB at its peak),
# and a 100,000-sample estimate peaks at 39 MB RSS for the whole process,
# numpy included (Python 3.11, numpy 2.4 on 2 vCPUs). So this keeps either
# well within a second. The weight polytope has |MWC| * |MLC| rows, which
# passes it from 10 voters on (52,930 rows for [5;1x10], about 6.6M for
# [70;1..16]).
MAX_POLYTOPE_ROWS = 20_000

# Exact scale policy: the most voters a game polytope's exact stages take.
# Survey (Python 3.11, 2 vCPUs, one fresh process per polytope): on 102
# eight-voter games each polytope took at most 0.73 s and 23 MB RSS, the
# hardest being [18;8,7,6,5,4,3,2,1] (0.37 / 0.73 s, weight /
# representation). At 9 voters 12 drawn games took a median of 0.78 /
# 0.11 s, but [20;9,...,1] and [22;9,...,1] took 3.7-5.4 s, so the cap
# stays at 8. check_exact_scale is the one place that applies it: the
# vertex table calls it before any work on a game polytope, so every exact
# stage refuses there, the indices and the CLI included.
EXACT_MAX_VOTERS = 8

_SMALL = {v: Fraction(v) for v in range(-2, 3)}  # every entry of a game row


def check_exact_scale(kind: str, n: int) -> None:
    """Refuse an exact pipeline run on the `kind` polytope with n voters.

    `kind` is "weight" or "rep" and only names the polytope in the
    error. Raises ScaleExceededError beyond EXACT_MAX_VOTERS.
    """
    if n > EXACT_MAX_VOTERS:
        raise ScaleExceededError(
            f"exact {kind} polytope pipeline supports at most "
            f"{EXACT_MAX_VOTERS} voters; at this scale estimate_centroid_mc "
            f"(polytope --estimate-centroid-mc) needs up to {MAX_MC_SAMPLES} "
            f"samples and may still land none"
        )


class DegenerateGeometryError(ValueError):
    """Centroid requested for an empty or zero-volume polytope."""


class Constraint(NamedTuple):
    """One closed halfspace a . x <= b."""

    a: tuple[Fraction, ...]
    b: Fraction
    label: str = ""


class Vertex(NamedTuple):
    """Extreme point with the indices of the constraints tight at it."""

    coords: tuple[Fraction, ...]
    active: frozenset[int]


class Simplex(NamedTuple):
    """Affinely independent vertex tuple; a cell of a triangulation."""

    vertices: tuple[Vertex, ...]


class HPolytope:
    """Intersection of closed halfspaces in Q^dim.

    Instances are immutable once built; derived data (integer rows, the
    vertex table, vertices, cells, integral sums) is computed on demand
    and memoized on the instance, one cache entry each, and so are the
    constraints of a polytope built from a game. Every entry must be
    rational (an int or a Fraction, say); anything else, a float
    included, raises ValueError. Only vertex enumeration takes an
    unbounded polytope; the exact stages after it raise ValueError.
    """

    __slots__ = ("dim", "_constraints", "_cache")

    def __init__(self, dim: int, constraints: Iterable[Constraint]) -> None:
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        cons = tuple(constraints)
        for c in cons:
            if len(c.a) != dim:
                raise ValueError("constraint arity does not match dimension")
            if not all(isinstance(x, Rational) for x in (*c.a, c.b)):
                raise ValueError(f"constraint entries must be rational: {c!r}")
        self.dim = dim
        self._constraints: tuple[Constraint, ...] | None = cons
        self._cache: dict = {}

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        """The halfspaces; a game polytope writes its own on first access."""
        if self._constraints is None:
            labels = _game_labels(self._cache["game"], self._cache["kind"])
            self._constraints = tuple(
                Constraint(tuple(map(_SMALL.__getitem__, a)), _SMALL[b], label)
                for (a, b), label in zip(_rows(self), labels)
            )
        return self._constraints

    def __repr__(self) -> str:
        if self._constraints is None:
            count = constraint_count(self._cache["game"], self._cache["kind"] == "rep")
        else:
            count = len(self._constraints)
        return f"HPolytope(dim={self.dim}, constraints={count})"


def build_weight_polytope(game: WeightedGame) -> HPolytope:
    """Normalized weight vectors compatible with the game's structure.

    Chart coordinates are (w_1 .. w_{n-1}); consumers recover the last
    weight from the unit sum. One constraint per (minimal winning,
    maximal losing) pair demands the winner to outweigh the loser, with
    the strict inequality closed.
    """
    return _game_polytope(game, "weight")


def build_representation_polytope(game: WeightedGame) -> HPolytope:
    """Normalized (quota, weights) pairs that represent the game.

    Coordinates are (q, w_1 .. w_{n-1}). Minimal winning coalitions must
    reach q, maximal losing ones must not exceed it (strictness closed),
    and 0 <= q <= 1 bounds the quota.
    """
    return _game_polytope(game, "rep")


def _game_polytope(game: WeightedGame, kind: str) -> HPolytope:
    """The `kind` ("weight" or "rep") polytope of the game.

    Refuses it past MAX_POLYTOPE_ROWS. The polytope keeps only the game
    and its kind: _rows writes its integer rows, and `constraints` its
    Constraint objects, on first read.
    """
    rows = constraint_count(game, representation=kind == "rep")
    if rows > MAX_POLYTOPE_ROWS:
        raise ScaleExceededError(
            f"the {kind} polytope of this game has {rows} constraint rows, "
            f"more than the supported {MAX_POLYTOPE_ROWS}"
        )
    poly = HPolytope(game.n - (kind == "weight"), ())
    poly._constraints = None
    poly._cache.update(game=game, kind=kind)
    return poly


def _game_rows(game: WeightedGame, kind: str) -> list[tuple[tuple[int, ...], int]]:
    """The `kind` polytope's integer rows a.x <= b, in constraint order.

    Each row is first written homogeneous over (q, w_1 .. w_n), as
    (c, plus, minus) for c q + w(plus) - w(minus) <= 0, with w(C) the
    weight of coalition C: the bounds -q <= 0, q - w(N) <= 0 (so q <= 1)
    and -w_i <= 0, then the coalition rows. It is then projected to the
    chart through w_n = 1 - (w_1 + ... + w_{n-1}), where
    w(C) = sum_{i<n} (c_i - c_n) w_i + c_n for the membership bits c_i.

    So every entry is a difference of at most four membership bits, and
    every row is primitive, as it holds a +-1: the bound rows and the
    representation rows have a +-1 entry, and a weight row has b = +-1
    unless its two coalitions agree on the last voter, when they differ
    on another one, whose entry is +-1. So the rows are the vertex
    enumerator's integer rows as they stand.
    """
    n, d = game.n, game.n - 1
    rep = kind == "rep"
    wins, losers = sorted(game.minimal_winning), sorted(game.maximal_losing)
    homogeneous = [(-1, 0, 0), (1, 0, (1 << n) - 1)] if rep else []
    homogeneous += [(0, 0, 1 << i) for i in range(n)]
    if rep:
        homogeneous += [(1, 0, s) for s in wins] + [(-1, t, 0) for t in losers]
    else:
        homogeneous += [(0, t, s) for s in wins for t in losers]
    rows = []
    for c, plus, minus in homogeneous:
        last = (plus >> d & 1) - (minus >> d & 1)
        a = tuple([(plus >> i & 1) - (minus >> i & 1) - last for i in range(d)])
        rows.append(((c, *a) if rep else a, -last))
    return rows


def _game_labels(game: WeightedGame, kind: str) -> Iterator[str]:
    """The `kind` polytope's constraint labels, in the order of its rows."""
    rep = kind == "rep"
    if rep:
        yield from ("q >= 0", "q <= 1")
    yield from (f"w{i} >= 0" for i in range(1, game.n + 1))
    wins = [f"w({coalition_str(s)})" for s in sorted(game.minimal_winning)]
    losers = [f"w({coalition_str(t)})" for t in sorted(game.maximal_losing)]
    if rep:
        yield from (f"{s} >= q" for s in wins)
        yield from (f"{t} <= q" for t in losers)
    else:
        yield from (f"{s} >= {t}" for s in wins for t in losers)


def constraint_count(game: WeightedGame, representation: bool = False) -> int:
    """Rows of the weight (or representation) polytope, without building it.

    The weight polytope has one row per (minimal winning, maximal losing)
    pair, so its size is a product; the representation polytope has one
    row per coalition.
    """
    mwc = len(game.minimal_winning)
    mlc = len(game.maximal_losing)
    if representation:
        return game.n + 2 + mwc + mlc
    return game.n + mwc * mlc


# -- vertex enumeration -------------------------------------------------

def _scaled_rows(
    constraints: Sequence[Constraint],
) -> list[tuple[tuple[int, ...], int]]:
    """Primitive integer rows (a, b), each a positive multiple of its constraint.

    Row j is constraint j over its common denominator (common_denominator,
    which reads the entries through `rational`, so a numpy integer becomes
    a Python int first and nothing wraps), divided by its gcd (_primitive).
    """
    rows = []
    for con in constraints:
        *a, b = _primitive(common_denominator((*con.a, con.b))[0])
        rows.append((tuple(a), b))
    return rows


def _rows(poly: HPolytope) -> list[tuple[tuple[int, ...], int]]:
    """The polytope's primitive integer rows (a, b), written on first read.

    A game polytope writes them from its game (_game_rows), a polytope
    built by hand from its constraints (_scaled_rows). Vertex
    enumeration and a game polytope's constraints read them.
    """
    if "rows" not in poly._cache:
        game = poly._cache.get("game")
        poly._cache["rows"] = (
            _scaled_rows(poly.constraints)
            if game is None
            else _game_rows(game, poly._cache["kind"])
        )
    return poly._cache["rows"]


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = gcd(*v)
    return tuple(c // g for c in v) if g > 1 else tuple(v)


def _dot(h: Sequence[int], r: Sequence[int]) -> int:
    return sum(map(mul, h, r))


def _project(r: tuple[int, ...], hr: int, pivot: tuple[int, ...], hp: int):
    """Move r along the pivot line onto the hyperplane h = 0.

    hr = h.r and hp = h.pivot < 0; the result is a positive multiple of
    r plus a multiple of the pivot, so it keeps r's side of every row
    the pivot line is zero on.
    """
    if not hr:
        return r
    return _primitive([-hp * c + hr * p for c, p in zip(r, pivot)])


def _cone_rays(rows: list[tuple[tuple[int, ...], int]], d: int):
    """Extreme rays of the cone {(x, t) : a.x <= b t, t >= 0}.

    Double description (Motzkin et al. 1953; Fukuda & Prodon 1996) in
    integers. The cone starts as all of Z^(d+1), spanned by lines, and
    the rows arrive one at a time, t >= 0 first. A row that some line
    crosses pivots that line out: oriented into the row's halfspace it
    becomes a ray, and the other lines and rays are projected along it
    onto the row's hyperplane. Otherwise the rays on the infeasible side
    are dropped and each adjacent pair straddling the hyperplane adds
    the ray where their edge crosses it. Two rays are adjacent when no
    third ray's zero set contains their common one, tried only when the
    common zero set is large enough to cut out a 2-face.

    Rows are taken as they stand, constant ones too: 0 <= 0 is zero on
    every ray and 0 <= b < 0 leaves no ray with t > 0. Rays come back as
    primitive integer vectors with their zero sets as bitmasks (bit j
    for rows[j], bit len(rows) for t >= 0), beside whether a line
    survives every row: then the polytope has no vertex. Every line has
    t = 0, so the polytope is empty exactly when no ray has t > 0.
    """
    m = len(rows)
    lines = [tuple(int(i == k) for i in range(d + 1)) for k in range(d + 1)]
    rays: list[tuple[tuple[int, ...], int]] = []
    done = 0
    cone_rows = [((0,) * d + (-1,), 1 << m)]
    cone_rows += [(a + (-b,), 1 << j) for j, (a, b) in enumerate(rows)]
    for h, bit in cone_rows:
        line_values = [_dot(h, l) for l in lines]
        k = next((i for i, hl in enumerate(line_values) if hl), None)
        if k is not None:
            pivot = lines.pop(k)
            hp = line_values.pop(k)
            if hp > 0:
                pivot = tuple(-c for c in pivot)
                hp = -hp
            lines = [_project(l, hl, pivot, hp) for l, hl in zip(lines, line_values)]
            rays = [(_project(r, _dot(h, r), pivot, hp), z | bit) for r, z in rays]
            rays.append((pivot, done))
        else:
            masks = [z for _, z in rays]
            need = d - 1 - len(lines)
            kept = []
            pos = []
            neg = []
            for r, z in rays:
                v = _dot(h, r)
                if v > 0:
                    pos.append((r, z, v))
                elif v < 0:
                    neg.append((r, z, v))
                    kept.append((r, z))
                else:
                    kept.append((r, z | bit))
            for rp, zp, vp in pos:
                for rn, zn, vn in neg:
                    common = zp & zn
                    if common.bit_count() < need or any(
                        z & common == common and z != zp and z != zn
                        for z in masks
                    ):
                        continue
                    ray = _primitive([vp * cn - vn * cp for cp, cn in zip(rp, rn)])
                    kept.append((ray, common | bit))
            rays = kept
        done |= bit
    return rays, bool(lines)


class _VertexTable(NamedTuple):
    """What double description finds; every later exact stage reads it.

    Distinct rows come in first-seen order, bit i of a column is vertex
    i, and zero and repeated columns are dropped.
    """

    rays: list[tuple[int, ...]]  # the vertices' primitive (x, t), in coordinate order
    den: int  # T, the lcm of the rays' t
    cols: list[int]  # per distinct row, the bitmask of the vertices tight on it
    zeros: list[int]  # each ray's zero set, over the distinct rows
    groups: list[list[int]]  # each distinct row's constraint indices
    unbounded: bool  # nonempty (some t > 0), with a ray of t = 0 or a line too


def _vertex_table(poly: HPolytope) -> _VertexTable:
    """The polytope's vertex table (_VertexTable), memoized.

    The vertices are the extreme rays (x, t) with t > 0 of the
    homogenized cone over the polytope's distinct integer rows (_rows),
    in first-seen order, found by exact double description, and ordered
    by their integer numerators x T / t. Raises ScaleExceededError,
    before any of that work, for a game polytope past check_exact_scale.
    """
    if "table" in poly._cache:
        return poly._cache["table"]
    d = poly.dim
    game = poly._cache.get("game")
    if game is not None:
        check_exact_scale(poly._cache["kind"], game.n)
    ids: dict[tuple[tuple[int, ...], int], list[int]] = {}
    for i, row in enumerate(_rows(poly)):
        ids.setdefault(row, []).append(i)
    rays, lined = _cone_rays(list(ids), d)
    found = [(ray, zero) for ray, zero in rays if ray[d]]  # t >= 0 on every ray
    unbounded = bool(found) and (lined or len(found) < len(rays))
    if lined:
        found = []
    den = lcm(*(ray[d] for ray, _ in found))
    found.sort(key=lambda rz: [c * (den // rz[0][d]) for c in rz[0][:d]])
    cols = [0] * len(ids)
    for i, (_, zero) in enumerate(found):
        for j in range(len(ids)):
            if zero >> j & 1:
                cols[j] |= 1 << i
    table = poly._cache["table"] = _VertexTable(
        [ray for ray, _ in found],
        den,
        list(dict.fromkeys(col for col in cols if col)),
        [zero for _, zero in found],
        list(ids.values()),
        unbounded,
    )
    return table


def enumerate_vertices(poly: HPolytope) -> list[Vertex]:
    """All extreme points, sorted lexicographically by coordinates.

    They are the vertex table's rays (_vertex_table), built into Vertex
    objects on the first call and memoized. A constraint is active at a
    vertex when its integer row is in the ray's zero set. Raises
    ScaleExceededError, before any work, for a game polytope past
    check_exact_scale.
    """
    if "vertices" not in poly._cache:
        table = _vertex_table(poly)
        d = poly.dim
        poly._cache["vertices"] = [
            Vertex(
                tuple(Fraction(c, ray[d]) for c in ray[:d]),
                frozenset(
                    chain.from_iterable(
                        group for j, group in enumerate(table.groups) if zero >> j & 1
                    )
                ),
            )
            for ray, zero in zip(table.rays, table.zeros)
        ]
    return poly._cache["vertices"]


# -- triangulation and exact integrals ----------------------------------

def _cone_cells(
    cols: list[int], face: int, k: int, memo: dict
) -> list[tuple[int, ...]]:
    """Cells of a k-face given as a vertex bitmask, as vertex-index tuples.

    Bit i stands for the i-th vertex in lexicographic order, so the apex,
    the face's lexicographically smallest vertex, is its lowest bit. The
    face's facets are the maximal proper nonempty traces face & col:
    every facet of a face is its intersection with some constraint's
    boundary, and every such trace is a face. Facets come in the order of
    the first constraint that cuts them out. A 0-face is one cell, its
    lone vertex; the empty face has none.
    """
    if face in memo:
        return memo[face]
    apex = (face & -face).bit_length() - 1
    if k == 0:
        cells = [(apex,)] if face else []
    elif k == 1:
        high = face.bit_length() - 1
        cells = [(apex, high)] if apex != high else []
    else:
        traces: dict[int, None] = {}
        for col in cols:
            sub = face & col
            if sub and sub != face:
                traces[sub] = None
        facets: list[int] = []
        for sub in sorted(traces, key=int.bit_count, reverse=True):
            if not any(sub & f == sub for f in facets):
                facets.append(sub)
        facets_set = set(facets)
        cells = [
            cell + (apex,)
            for sub in traces
            if sub in facets_set and not sub >> apex & 1
            for cell in _cone_cells(cols, sub, k - 1, memo)
        ]
    memo[face] = cells
    return cells


def _cells(poly: HPolytope) -> list[tuple[int, ...]]:
    """Memoized cells as index tuples into the vertex table's rays.

    The constraint columns come from the vertex table as they stand.
    Every exact stage reads the cells, so this is where an unbounded
    polytope is refused, with ValueError.
    """
    if "cells" not in poly._cache:
        table = _vertex_table(poly)
        if table.unbounded:
            raise ValueError(
                "the polytope is unbounded; exact volume, moments, centroid "
                "and triangulation need a bounded one"
            )
        face = (1 << len(table.rays)) - 1
        poly._cache["cells"] = _cone_cells(table.cols, face, poly.dim, {})
    return poly._cache["cells"]


def triangulate(poly: HPolytope) -> list[Simplex]:
    """Cut the polytope into simplices with pairwise disjoint interiors.

    Recursive facet coning: the apex (lexicographically smallest vertex)
    is coned over a triangulation of every facet not containing it.
    Facets are found by vertex incidence alone: within a face, the vertex
    sets tight on one constraint that are maximal by inclusion. A
    polytope that is not full-dimensional has no cells, since its
    recursion runs out of vertices before it reaches the edges. Each
    call builds its Simplex list afresh from the memoized cells. Raises
    ValueError for an unbounded polytope.
    """
    cells = _cells(poly)
    verts = enumerate_vertices(poly)
    return [Simplex(tuple(verts[i] for i in cell)) for cell in cells]


def _integrate(poly: HPolytope) -> tuple[int, list[int]]:
    """Integer volume and moment sums from one pass over the triangulation.

    Each vertex v is x_v / t_v for its primitive ray (x_v, t_v) from
    double description, and T is the vertex table's common denominator,
    the lcm of the t_v. With the integer numerators R_v = x_v T / t_v, a
    cell's volume is |D| / (d! T^d), where D is the determinant of its
    edge matrix of R_v, and the integral of x_i over it is that volume
    times the vertex average of R_v,i / T. So the pass adds up integers
    only: |D| into the volume sum V and onto a weight per vertex of the
    cell, the moment sums being S_i = sum_v weight_v R_v,i. Then the
    volume is V / (d! T^d), moment i is S_i / ((d + 1)! T^(d+1)), and
    centroid coordinate i is S_i / (T (d + 1) V). A lone vertex (dim 0)
    is one cell of volume 1. Returns (V, [S_i]), memoized; volume and
    moments build their Fractions from it.

    D itself is one bareiss determinant of the cell's homogeneous ray
    rows (x_v, t_v): D = det(x_v, t_v) * prod(T / t_v) / T. Those rows
    keep the small entries of the rays, where T grows with every new
    denominator.

    Every cell is a full simplex, as triangulate returns it: d + 1
    affinely independent vertices, whose ray rows have rank d + 1, so
    each determinant is taken as it stands. Each level of _cone_cells
    passes from a face to one of its facets (a maximal proper trace of a
    constraint column) and adds the face's apex, which lies off that
    facet's hyperplane, so every level adds one dimension. A polytope
    that is not full-dimensional has no cell at all (triangulate).
    tests/test_integration_oracle.py pins both.
    """
    if "integrals" in poly._cache:
        return poly._cache["integrals"]
    d = poly.dim
    cells = _cells(poly)
    table = _vertex_table(poly)
    rays, den = table.rays, table.den
    lift = [den // ray[d] for ray in rays]
    weight = [0] * len(rays)
    total = 0
    for cell in cells:
        _, det = bareiss([list(rays[i]) for i in cell])
        det = abs(det) * prod(lift[i] for i in cell) // den
        total += det
        for i in cell:
            weight[i] += det
    sums = [
        sum(w * r[i] * s for w, r, s in zip(weight, rays, lift)) for i in range(d)
    ]
    poly._cache["integrals"] = total, sums
    return total, sums


def volume(poly: HPolytope) -> Fraction:
    """Exact volume; a single point (dim 0) has volume 1 by convention.

    Raises ValueError for an unbounded polytope, as do moments,
    centroid, triangulate and polytope_to_json.
    """
    total, _ = _integrate(poly)
    d = poly.dim
    return Fraction(total, factorial(d) * _vertex_table(poly).den ** d)


def moments(poly: HPolytope) -> tuple[Fraction, ...]:
    """Exact coordinate integrals over the polytope."""
    _, sums = _integrate(poly)
    d = poly.dim
    scale = factorial(d + 1) * _vertex_table(poly).den ** (d + 1)
    return tuple(Fraction(s, scale) for s in sums)


def _centroid_sums(poly: HPolytope) -> tuple[list[int], int]:
    """The barycenter's integer numerators and their common denominator.

    Raises DegenerateGeometryError for an empty or zero-volume polytope:
    a point's volume sum is 1, so in dimension 0 only the empty one has
    none.
    """
    total, sums = _integrate(poly)
    if not total:
        raise DegenerateGeometryError(
            "zero-volume polytope has no well-defined centroid"
            if poly.dim
            else "empty polytope has no centroid"
        )
    return sums, _vertex_table(poly).den * (poly.dim + 1) * total


def centroid(poly: HPolytope) -> tuple[Fraction, ...]:
    """Exact barycenter (moments divided by volume), from the integer sums."""
    sums, den = _centroid_sums(poly)
    return tuple(Fraction(s, den) for s in sums)


def polytope_to_json(poly: HPolytope) -> dict:
    """Schema-stable dump: dim, constraints, vertices, volume, moments.

    Raises ValueError for an unbounded polytope, which has no volume.
    """
    # first, so a polytope past the voter cap is refused before its
    # constraints are written
    vertices = enumerate_vertices(poly)
    return {
        "dim": poly.dim,
        "constraints": [
            {"a": [str(c) for c in con.a], "b": str(con.b), "label": con.label}
            for con in poly.constraints
        ],
        "vertices": [[str(c) for c in v.coords] for v in vertices],
        "volume": str(volume(poly)),
        "moments": [str(m) for m in moments(poly)],
    }
