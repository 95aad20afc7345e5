"""Vertex and face enumeration by the all-subsets scan, the reference for
the kernels of lgmirror.polytope.

Every square constraint subset is solved from scratch by fraction-free
Gauss-Jordan elimination, and every face's dimension is the affine rank of
its vertices, found by a fresh elimination.  The integer scaling of the
inequalities and of the vertices is shared with lgmirror.polytope; the
elimination, the pruning and the face dimensions are not.
"""
import itertools
from fractions import Fraction
from math import gcd

from lgmirror.polytope import Face, _integer_points, _integer_rows, _tight_masks


def _eliminate(m, pivot, col, targets, prev):
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


def solve_square(rows):
    """Solve a d x d integer system given as rows [a_1..a_d, b].

    Fraction-free Gauss-Jordan: after the last step every diagonal entry is
    the determinant of the row-swapped system and the right-hand column
    holds its Cramer numerators, so x is their quotient.  Returns x = N / D
    in lowest terms with D > 0, or None if singular.
    """
    d = len(rows)
    m = [list(row) for row in rows]
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


def rank(vecs):
    """Rank of integer row vectors by fraction-free elimination; a column
    with no pivot left is skipped."""
    rows = list(vecs)
    found = 0
    prev = 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(found, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[found], rows[piv] = rows[piv], rows[found]
        prev = _eliminate(rows, found, col, range(found + 1, len(rows)), prev)
        found += 1
    return found


def affine_rank(points):
    """Dimension of the affine hull of one or more integer points."""
    base = points[0]
    return rank([[x - b for x, b in zip(p, base)] for p in points[1:]])


def enumerate_vertices(ineqs):
    """Every d-subset of the constraints solved as a square system; the
    feasible solutions, deduplicated in lowest terms, sorted."""
    if not ineqs:
        return ()
    rows = _integer_rows(ineqs)
    d = len(rows[0][0])
    seen = set()
    for subset in itertools.combinations([[*a, -b] for a, b in rows], d):
        sol = solve_square(subset)
        if sol is None or sol in seen:
            continue
        nums, den = sol
        if all(sum(c * x for c, x in zip(a, nums)) + b * den >= 0 for a, b in rows):
            seen.add(sol)
    return tuple(sorted(tuple(Fraction(x, den) for x in nums) for nums, den in seen))


def enumerate_faces(ineqs, vertices=None):
    """The intersection closure of the constraints' vertex sets, each face's
    dimension the affine rank of its vertices; () for an empty polytope."""
    if vertices is None:
        vertices = enumerate_vertices(ineqs)
    if not vertices:
        return ()
    _, points = _integer_points(vertices)
    masks = _tight_masks(ineqs, vertices)
    found = {(1 << len(vertices)) - 1}
    for f in masks:
        found |= {f & m for m in found} - {0}
    faces = []
    for mask in found:
        ids = [i for i in range(len(points)) if mask >> i & 1]
        tight = frozenset(i for i, m in enumerate(masks) if m & mask == mask)
        faces.append(Face(frozenset(ids), tight, affine_rank([points[i] for i in ids])))
    faces.sort(key=lambda f: (f.dim, sorted(f.vertex_ids)))
    return tuple(faces)
