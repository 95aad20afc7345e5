"""Exact face enumeration for bounded rational H-polytopes.

A polytope is given by inequalities ``coeffs . x + const >= 0`` with
Fraction data.  Vertices come from solving square tight subsystems, faces
from intersecting facet vertex sets.  Everything is exact; no floating
point enters.  Intended for small instances (a dozen inequalities or so),
where brute force over square constraint subsets is perfectly adequate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Point = tuple[Fraction, ...]
Inequality = tuple[tuple[Fraction, ...], Fraction]

__all__ = [
    "Face",
    "affine_rank",
    "enumerate_faces",
    "enumerate_vertices",
    "face_from_tight",
    "satisfies",
]


def _solve_square(rows: list[list[Fraction]]) -> Point | None:
    """Solve a d x d system given as rows [a_1..a_d, b]; None if singular."""
    d = len(rows)
    m = [row[:] for row in rows]
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(d):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[r][d] for r in range(d))


def satisfies(point: Point, ineq: Inequality) -> bool:
    coeffs, const = ineq
    return sum(c * x for c, x in zip(coeffs, point)) + const >= 0


def _is_tight(point: Point, ineq: Inequality) -> bool:
    coeffs, const = ineq
    return sum(c * x for c, x in zip(coeffs, point)) + const == 0


def enumerate_vertices(ineqs: Sequence[Inequality]) -> tuple[Point, ...]:
    """All vertices of the polytope {x : a.x + b >= 0 for each (a, b)}.

    Assumes the polytope is bounded.  Runs over all d-subsets of the
    constraints, so keep the instance small.
    """
    if not ineqs:
        return ()
    d = len(ineqs[0][0])
    seen: set[Point] = set()
    for subset in itertools.combinations(range(len(ineqs)), d):
        rows = [list(ineqs[i][0]) + [-ineqs[i][1]] for i in subset]
        sol = _solve_square(rows)
        if sol is None or sol in seen:
            continue
        if all(satisfies(sol, q) for q in ineqs):
            seen.add(sol)
    return tuple(sorted(seen))


def affine_rank(points: Sequence[Point]) -> int:
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    if not points:
        return -1
    base = points[0]
    vecs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    cols = len(base)
    row_used = [False] * len(vecs)
    for col in range(cols):
        piv = next(
            (r for r in range(len(vecs)) if not row_used[r] and vecs[r][col] != 0),
            None,
        )
        if piv is None:
            continue
        row_used[piv] = True
        rank += 1
        pv = vecs[piv]
        inv = Fraction(1) / pv[col]
        for r in range(len(vecs)):
            if r != piv and not row_used[r] and vecs[r][col] != 0:
                f = vecs[r][col] * inv
                vecs[r] = [x - f * y for x, y in zip(vecs[r], pv)]
    return rank


@dataclass(frozen=True)
class Face:
    """One face: which vertices lie on it, which constraints are tight there."""

    vertex_ids: frozenset[int]
    tight: frozenset[int]
    dim: int


def _active_masks(ineqs: Sequence[Inequality], vertices: Sequence[Point]) -> list[int]:
    masks = []
    for q in ineqs:
        m = 0
        for vid, p in enumerate(vertices):
            if _is_tight(p, q):
                m |= 1 << vid
        masks.append(m)
    return masks


def _mask_face(
    mask: int,
    ineqs: Sequence[Inequality],
    vertices: Sequence[Point],
    masks: list[int],
) -> Face:
    ids = frozenset(i for i in range(len(vertices)) if mask >> i & 1)
    tight = frozenset(i for i, m in enumerate(masks) if m & mask == mask)
    dim = affine_rank([vertices[i] for i in sorted(ids)])
    return Face(ids, tight, dim)


def enumerate_faces(
    ineqs: Sequence[Inequality], vertices: Sequence[Point] | None = None
) -> tuple[Face, ...]:
    """All nonempty faces, the whole polytope included.

    Every proper face of a polytope is an intersection of facets, so
    closing the constraints' vertex sets under intersection finds each face
    exactly once: after the k-th constraint, the set holds the nonempty
    intersections over every subset of the first k.
    """
    if vertices is None:
        vertices = enumerate_vertices(ineqs)
    masks = _active_masks(ineqs, vertices)
    found = {(1 << len(vertices)) - 1}
    for f in masks:
        found |= {f & m for m in found} - {0}
    faces = [_mask_face(m, ineqs, vertices, masks) for m in found]
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_ids)))
    return tuple(faces)


def face_from_tight(
    ineqs: Sequence[Inequality],
    vertices: Sequence[Point],
    tight_indices: Sequence[int],
) -> Face:
    """The face on which the given constraints all hold with equality."""
    masks = _active_masks(ineqs, vertices)
    m = (1 << len(vertices)) - 1
    for i in tight_indices:
        m &= masks[i]
    return _mask_face(m, ineqs, vertices, masks)
