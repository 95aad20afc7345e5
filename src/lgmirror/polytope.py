"""Exact face enumeration for bounded rational H-polytopes.

A polytope is given by inequalities ``coeffs . x + const >= 0`` with
Fraction data.  Vertices come from solving square tight subsystems, faces
from intersecting facet vertex sets.  Everything is exact; no floating
point enters.

The elimination runs on Python ints, fraction-free: an inequality times a
positive number is the same halfspace with the same tight set, so each is
scaled once to an integer row by the LCM of its denominators, and an
eliminated row may be divided by its content.  A candidate vertex is an
integer vector over one positive denominator; it becomes a Fraction tuple
only when returned.

The vertex search walks the square constraint subsets depth first and
reduces each new row once against the echelon form of the prefix; a row
that reduces to zero cuts off every subset containing that prefix and
row.  Face dimensions are read off the face lattice itself, with no
elimination: one more than the dimension of a facet.  The search still
visits every independent prefix, so keep the instance small.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Sequence

Point = tuple[Fraction, ...]
Inequality = tuple[tuple[Fraction, ...], Fraction]
IntRow = tuple[tuple[int, ...], int]
# an eliminated row [a_1..a_d, b] with the column of its pivot
EchelonRow = tuple[int, list[int]]

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


def _reduce(row: list[int], echelon: Sequence[EchelonRow]) -> EchelonRow | None:
    """A row [a_1..a_d, b] reduced fraction-free against the echelon rows
    and divided by its content, with its pivot column: the first nonzero
    coefficient.  None if the coefficients reduce to zero, that is if a
    lies in the span of the echelon rows' coefficients.

    Each echelon row is zero at the pivot columns of those before it, so
    clearing one pivot column keeps the earlier ones clear.
    """
    for col, e in echelon:
        f = row[col]
        if f:
            p = e[col]
            row = [p * x - f * y for x, y in zip(row, e)]
    col = next((c for c in range(len(row) - 1) if row[c]), None)
    if col is None:
        return None
    g = gcd(*row)
    return col, [x // g for x in row] if g > 1 else row


def _back_substitute(echelon: Sequence[EchelonRow]) -> tuple[tuple[int, ...], int]:
    """The solution N / D, lowest terms, D > 0, of a square echelon system
    of rows [a_1..a_d, b] meaning a.x = b.

    The last row has one nonzero coefficient, at its pivot; each row before
    it adds one unknown.  All unknowns found so far are N / D over one
    denominator, and solving for the next one multiplies D by its pivot.
    """
    d = len(echelon)
    nums = [0] * d
    den = 1
    for col, row in reversed(echelon):
        p = row[col]
        rest = row[d] * den - sum(map(mul, row, nums))
        if p != 1:
            nums = [x * p for x in nums]
            den *= p
        nums[col] = rest
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(x // g for x in nums), den // g


def enumerate_vertices(ineqs: Sequence[Inequality]) -> tuple[Point, ...]:
    """All vertices of the polytope {x : a.x + b >= 0 for each (a, b)}.

    Assumes the polytope is bounded.  A vertex is the solution of d tight
    constraints with independent normals.  The constraint d-subsets are
    walked depth first, in ``itertools.combinations`` order, carrying the
    echelon form of the current prefix: each row is reduced once against
    it and divided by its content.  A row whose normal reduces to zero
    lies in the span of the prefix, so every subset that contains both is
    singular and none is visited.  A full subset is solved by back
    substitution, and the solution N / D is kept when a.N + b.D >= 0 for
    every row.  Each vertex found keeps the mask of its tight rows: a full
    subset whose rows are all tight at a found vertex has that vertex as
    its unique solution, so it is skipped unsolved.  The polytopes here
    are degenerate, every vertex lying on more than d facets, and most
    full subsets are of that kind.
    """
    if not ineqs:
        return ()
    rows = _integer_rows(ineqs)
    d = len(rows[0][0])
    system = [[*a, -b] for a, b in rows]
    found: list[tuple[tuple[int, ...], int]] = []
    tight_masks: list[int] = []
    echelon: list[EchelonRow] = []

    def extend(start: int, subset: int) -> None:
        if len(echelon) == d:
            if any(subset & t == subset for t in tight_masks):
                return
            nums, den = _back_substitute(echelon)
            slacks = [sum(c * x for c, x in zip(a, nums)) + b * den for a, b in rows]
            if all(s >= 0 for s in slacks):
                found.append((nums, den))
                tight_masks.append(sum(1 << k for k, s in enumerate(slacks) if s == 0))
            return
        for k in range(start, len(system) - (d - len(echelon)) + 1):
            step = _reduce(system[k], echelon)
            if step is not None:
                echelon.append(step)
                extend(k + 1, subset | 1 << k)
                echelon.pop()

    extend(0, 0)
    return tuple(sorted(tuple(Fraction(x, den) for x in nums) for nums, den in found))


@dataclass(frozen=True)
class Face:
    """One face: which vertices lie on it, which constraints are tight there."""

    vertex_ids: frozenset[int]
    tight: frozenset[int]
    dim: int


def _tight_masks(ineqs: Sequence[Inequality], vertices: Sequence[Point]) -> list[int]:
    """For each inequality the mask of the vertices where it is tight; the
    vertices are scaled to integers over one denominator D first."""
    den, points = _integer_points(vertices)
    masks = []
    for a, b in _integer_rows(ineqs):
        m = 0
        for vid, p in enumerate(points):
            if sum(c * x for c, x in zip(a, p)) + b * den == 0:
                m |= 1 << vid
        masks.append(m)
    return masks


def _bit_indices(mask: int) -> list[int]:
    """The set bits of a mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def enumerate_faces(
    ineqs: Sequence[Inequality], vertices: Sequence[Point] | None = None
) -> tuple[Face, ...]:
    """All nonempty faces, the whole polytope included; none if the
    polytope is empty.

    Every proper face of a polytope is an intersection of facets, so
    closing the constraints' vertex sets under intersection finds each face
    exactly once: after the k-th constraint, the set holds the nonempty
    intersections over every subset of the first k.

    Dimensions are read off the same lattice, faces in order of vertex
    count.  A face with one vertex has dimension 0.  Any other face F has
    dimension 1 + dim G, where G is the largest F & m over the constraint
    masks m that do not contain F.  G is a facet of F: each F & m is a
    proper face of F, perhaps empty.  Conversely, take a proper face H of
    F.  A face is the set of points where the constraints tight on all of
    it are tight, so some constraint k is tight on H but not on all of F,
    or F would lie in H; hence H lies in F & m_k.  So every facet of F,
    being a maximal proper face, equals the F & m containing it, and the
    F & m that are maximal under inclusion are exactly the facets of F.
    The largest one is maximal, and a facet of a polytope of dimension
    at least 1 has dimension one less.
    """
    if vertices is None:
        vertices = enumerate_vertices(ineqs)
    if not vertices:
        return ()
    masks = _tight_masks(ineqs, vertices)
    found = {(1 << len(vertices)) - 1}
    for f in masks:
        found |= {f & m for m in found} - {0}
    dims: dict[int, int] = {}
    faces = []
    for f in sorted(found, key=int.bit_count):
        if f & (f - 1):
            facet = max((f & m for m in masks if f & m != f), key=int.bit_count)
            dims[f] = dims[facet] + 1
        else:
            dims[f] = 0
        ids = _bit_indices(f)
        tight = frozenset(i for i, m in enumerate(masks) if m & f == f)
        faces.append((dims[f], ids, Face(frozenset(ids), tight, dims[f])))
    faces.sort(key=lambda t: t[:2])
    return tuple(face for _, _, face in faces)
