"""Vertex and face enumeration by Gaussian elimination over Fractions, the
reference for the integer kernels of lgmirror.polytope.

Every step divides by its pivot and keeps rational entries, so it shares
no scaling with the fraction-free routes: the two can check each other.
"""
import itertools
from fractions import Fraction

from lgmirror.polytope import Face


def solve_square(rows):
    """Solve a d x d system given as rows [a_1..a_d, b]; None if singular."""
    d = len(rows)
    m = [list(row) for row in rows]
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


def _value(point, ineq):
    coeffs, const = ineq
    return sum(c * x for c, x in zip(coeffs, point)) + const


def satisfies(point, ineq):
    return _value(point, ineq) >= 0


def is_tight(point, ineq):
    return _value(point, ineq) == 0


def enumerate_vertices(ineqs):
    if not ineqs:
        return ()
    d = len(ineqs[0][0])
    seen = set()
    for subset in itertools.combinations(range(len(ineqs)), d):
        rows = [list(ineqs[i][0]) + [-ineqs[i][1]] for i in subset]
        sol = solve_square(rows)
        if sol is None or sol in seen:
            continue
        if all(_value(sol, q) >= 0 for q in ineqs):
            seen.add(sol)
    return tuple(sorted(seen))


def affine_rank(points):
    """Dimension of the affine hull; -1 for no points, 0 for a single point."""
    if not points:
        return -1
    base = points[0]
    vecs = [[x - b for x, b in zip(p, base)] for p in points[1:]]
    rank = 0
    row_used = [False] * len(vecs)
    for col in range(len(base)):
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


def enumerate_faces(ineqs, vertices=None):
    if vertices is None:
        vertices = enumerate_vertices(ineqs)
    if not vertices:
        return ()
    masks = [
        sum(1 << vid for vid, p in enumerate(vertices) if _value(p, q) == 0)
        for q in ineqs
    ]
    found = {(1 << len(vertices)) - 1}
    for f in masks:
        found |= {f & m for m in found} - {0}
    faces = []
    for mask in found:
        ids = frozenset(i for i in range(len(vertices)) if mask >> i & 1)
        tight = frozenset(i for i, m in enumerate(masks) if m & mask == mask)
        faces.append(Face(ids, tight, affine_rank([vertices[i] for i in sorted(ids)])))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_ids)))
    return tuple(faces)


def face_from_tight(ineqs, vertices, tight_indices):
    """The face on which the given constraints all hold with equality."""
    ids = frozenset(
        i for i, p in enumerate(vertices) if all(is_tight(p, ineqs[k]) for k in tight_indices)
    )
    tight = frozenset(
        k for k, q in enumerate(ineqs) if all(is_tight(vertices[i], q) for i in ids)
    )
    return Face(ids, tight, affine_rank([vertices[i] for i in sorted(ids)]))
