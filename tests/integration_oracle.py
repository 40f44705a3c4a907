"""Rank-tested coning and Fraction integrals, kept as the reference.

The triangulation cones the apex over every candidate facet whose affine
dimension, found by a Fraction rank, is one less than the face's; the
integrals add Fraction simplex volumes and vertex averages cell by cell.
Both run in rationals throughout, with their own elimination loops, so
they share no arithmetic with the integer layer they check. The
constraint columns are rebuilt from the public Vertex.active sets, which
the vertex table that enumerate_vertices keeps must equal.
"""

from fractions import Fraction
from math import factorial
from typing import Sequence

from powerpoly.polytope import (
    DegenerateGeometryError,
    HPolytope,
    Simplex,
    Vertex,
    enumerate_vertices,
)


def _eliminate(rows: list[list[Fraction]]) -> tuple[int, Fraction]:
    """Gaussian elimination; returns (rank, signed product of pivots)."""
    work = [list(row) for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if work else 0
    rnk = 0
    det = Fraction(1)
    for col in range(ncols):
        piv = next((r for r in range(rnk, nrows) if work[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rnk:
            work[rnk], work[piv] = work[piv], work[rnk]
            det = -det
        prow = work[rnk]
        det *= prow[col]
        for r in range(rnk + 1, nrows):
            f = work[r][col]
            if f:
                ratio = f / prow[col]
                work[r] = [x - y * ratio for x, y in zip(work[r], prow)]
        rnk += 1
        if rnk == nrows:
            break
    return rnk, det


def _affine_dim(vertices: Sequence[Vertex]) -> int:
    if len(vertices) <= 1:
        return 0
    base = vertices[0].coords
    diffs = [[c - b for c, b in zip(v.coords, base)] for v in vertices[1:]]
    return _eliminate(diffs)[0]


def _triangulate_face(face: tuple[Vertex, ...], k: int, apex_rule: str) -> list:
    # face is a k-dimensional face given by its vertices
    if k == 0:
        return [(face[0],)]
    if k == 1:
        pts = sorted(face, key=lambda v: v.coords)
        if len(pts) < 2:
            return []
        return [(pts[0], pts[-1])]
    pick = min if apex_rule == "lexmin" else max
    apex = pick(face, key=lambda v: v.coords)
    constraint_ids = sorted(set().union(*(v.active for v in face)))
    seen: set[frozenset] = set()
    cells = []
    for ci in constraint_ids:
        if ci in apex.active:
            continue
        sub = tuple(v for v in face if ci in v.active)
        if len(sub) < k:
            continue
        ident = frozenset(v.coords for v in sub)
        if ident in seen:
            continue
        if _affine_dim(sub) != k - 1:
            continue
        seen.add(ident)
        for cell in _triangulate_face(sub, k - 1, apex_rule):
            cells.append(cell + (apex,))
    return cells


def oracle_columns(poly: HPolytope) -> list[int]:
    """Vertex bitmask per constraint, rebuilt from the Vertex.active sets.

    One column per constraint index, in index order, with the columns
    that no vertex is tight on and the repeated ones dropped: the
    incidence the triangulation reads.
    """
    incidence: dict[int, int] = {}
    for i, v in enumerate(enumerate_vertices(poly)):
        for j in v.active:
            incidence[j] = incidence.get(j, 0) | 1 << i
    return list(dict.fromkeys(incidence[j] for j in sorted(incidence)))


def oracle_triangulate(poly: HPolytope, apex_rule: str = "lexmin") -> list[Simplex]:
    verts = enumerate_vertices(poly)
    if not verts:
        return []
    if poly.dim == 0:
        return [Simplex((verts[0],))]
    return [
        Simplex(c) for c in _triangulate_face(tuple(verts), poly.dim, apex_rule)
    ]


def _simplex_volume(cell: Simplex) -> Fraction:
    pts = [v.coords for v in cell.vertices]
    d = len(pts) - 1
    if d == 0:
        return Fraction(1)
    rows = [[c - b for c, b in zip(p, pts[0])] for p in pts[1:]]
    rnk, det = _eliminate(rows)
    return abs(det) / factorial(d) if rnk == d else Fraction(0)


def oracle_integrals(
    poly: HPolytope,
    apex_rule: str = "lexmin",
    cells: list[Simplex] | None = None,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(volume, moments), a Fraction volume and vertex average per cell
    of the apex_rule triangulation, or of `cells` when given."""
    if cells is None:
        cells = oracle_triangulate(poly, apex_rule)
    d = poly.dim
    vol = Fraction(0)
    totals = [Fraction(0)] * d
    for cell in cells:
        cell_vol = _simplex_volume(cell)
        if cell_vol == 0:
            continue
        vol += cell_vol
        count = len(cell.vertices)
        for i in range(d):
            avg = sum((v.coords[i] for v in cell.vertices), Fraction(0)) / count
            totals[i] += cell_vol * avg
    return vol, tuple(totals)


def oracle_centroid(
    poly: HPolytope, integrals: tuple[Fraction, tuple[Fraction, ...]]
) -> tuple[Fraction, ...]:
    """Centroid from the polytope's oracle_integrals, or its refusal."""
    if poly.dim == 0:
        if not enumerate_vertices(poly):
            raise DegenerateGeometryError("empty polytope has no centroid")
        return ()
    vol, totals = integrals
    if vol == 0:
        raise DegenerateGeometryError(
            "zero-volume polytope has no well-defined centroid"
        )
    return tuple(m / vol for m in totals)
