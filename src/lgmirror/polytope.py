"""Exact face enumeration for bounded rational H-polytopes.

A polytope is given by inequalities ``coeffs . x + const >= 0`` with
Fraction data.  Vertices come from solving square tight subsystems, faces
from intersecting facet vertex sets.  Everything is exact; no floating
point enters.

The elimination runs on Python ints, fraction-free (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", 1968).
Two scale invariances make that possible without changing any answer:

* an inequality times a positive number is the same halfspace with the
  same tight set, so each is scaled once to an integer row by the LCM of
  its denominators;
* the affine rank of a point list does not change when every point is
  scaled by one number, so face dimensions are ranks of the vertices
  scaled once to a common denominator.

A candidate vertex is an integer vector over one positive denominator; it
becomes a Fraction tuple only when returned.  The vertex search still runs
over all square constraint subsets, so keep the instance small.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]
Inequality = tuple[tuple[Fraction, ...], Fraction]
IntRow = tuple[tuple[int, ...], int]

__all__ = [
    "Face",
    "enumerate_faces",
    "enumerate_vertices",
]


def _integer_rows(ineqs: Sequence[Inequality]) -> list[IntRow]:
    """Each inequality times the positive LCM of its denominators."""
    out = []
    for coeffs, const in ineqs:
        scale = lcm(const.denominator, *(c.denominator for c in coeffs))
        out.append(
            (
                tuple(c.numerator * (scale // c.denominator) for c in coeffs),
                const.numerator * (scale // const.denominator),
            )
        )
    return out


def _integer_points(points: Sequence[Point]) -> tuple[int, list[list[int]]]:
    """The positive LCM D of all the points' denominators, and the points
    times D."""
    den = lcm(*(x.denominator for p in points for x in p))
    return den, [[x.numerator * (den // x.denominator) for x in p] for p in points]


def _eliminate(
    m: list[list[int]], pivot: int, col: int, targets: Iterable[int], prev: int
) -> int:
    """One fraction-free step: clear column ``col`` of the rows ``targets``
    against row ``pivot`` and divide by the previous pivot ``prev``.
    Returns the new pivot."""
    pr = m[pivot]
    p = pr[col]
    for r in targets:
        row = m[r]
        f = row[col]
        # every entry is a minor of the input, so the division is exact
        if f:
            m[r] = [(p * x - f * y) // prev for x, y in zip(row, pr)]
        elif p != prev:
            m[r] = [p * x // prev for x in row]
    return p


def _solve_square(rows: Sequence[list[int]]) -> tuple[tuple[int, ...], int] | None:
    """Solve a d x d integer system given as rows [a_1..a_d, b].

    Fraction-free Gauss-Jordan: after the last step every diagonal entry is
    the determinant of the row-swapped system and the right-hand column
    holds its Cramer numerators, so x is their quotient.  Returns x = N / D
    in lowest terms with D > 0, or None if singular.
    """
    d = len(rows)
    m = [row[:] for row in rows]
    prev = 1
    for col in range(d):
        piv = next((r for r in range(col, d) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        prev = _eliminate(m, col, col, itertools.chain(range(col), range(col + 1, d)), prev)
    g = gcd(prev, *(m[r][d] for r in range(d)))
    if prev < 0:
        g = -g
    return tuple(m[r][d] // g for r in range(d)), prev // g


def _rank(vecs: list[list[int]]) -> int:
    """Rank of integer row vectors by fraction-free elimination; a column
    with no pivot left is skipped."""
    rows = list(vecs)
    rank = 0
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prev = _eliminate(rows, rank, col, range(rank + 1, len(rows)), prev)
        rank += 1
    return rank


def enumerate_vertices(ineqs: Sequence[Inequality]) -> tuple[Point, ...]:
    """All vertices of the polytope {x : a.x + b >= 0 for each (a, b)}.

    Assumes the polytope is bounded.  Runs over all d-subsets of the
    constraints, so keep the instance small.  A solution N / D, in lowest
    terms, is tested as a.N + b.D >= 0 and deduplicated in that form.
    """
    if not ineqs:
        return ()
    rows = _integer_rows(ineqs)
    d = len(rows[0][0])
    seen: set[tuple[tuple[int, ...], int]] = set()
    for subset in itertools.combinations([[*a, -b] for a, b in rows], d):
        sol = _solve_square(subset)
        if sol is None or sol in seen:
            continue
        nums, den = sol
        if all(sum(c * x for c, x in zip(a, nums)) + b * den >= 0 for a, b in rows):
            seen.add(sol)
    return tuple(sorted(tuple(Fraction(x, den) for x in nums) for nums, den in seen))


def _affine_rank(points: Sequence[list[int]]) -> int:
    """Dimension of the affine hull of one or more integer points."""
    base = points[0]
    return _rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


@dataclass(frozen=True)
class Face:
    """One face: which vertices lie on it, which constraints are tight there."""

    vertex_ids: frozenset[int]
    tight: frozenset[int]
    dim: int


def _tight_masks(
    ineqs: Sequence[Inequality], vertices: Sequence[Point]
) -> tuple[list[list[int]], list[int]]:
    """The vertices scaled to integers over one denominator D, and for each
    inequality the mask of the vertices where it is tight."""
    den, points = _integer_points(vertices)
    masks = []
    for a, b in _integer_rows(ineqs):
        m = 0
        for vid, p in enumerate(points):
            if sum(c * x for c, x in zip(a, p)) + b * den == 0:
                m |= 1 << vid
        masks.append(m)
    return points, masks


def _mask_face(mask: int, points: Sequence[list[int]], masks: list[int]) -> Face:
    ids = [i for i in range(len(points)) if mask >> i & 1]
    tight = frozenset(i for i, m in enumerate(masks) if m & mask == mask)
    dim = _affine_rank([points[i] for i in ids]) if ids else -1
    return Face(frozenset(ids), tight, dim)


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
    points, masks = _tight_masks(ineqs, vertices)
    found = {(1 << len(vertices)) - 1}
    for f in masks:
        found |= {f & m for m in found} - {0}
    faces = [_mask_face(m, points, masks) for m in found]
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_ids)))
    return tuple(faces)

