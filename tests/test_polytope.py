"""Tests for the exact H-polytope face machinery."""
import itertools
from fractions import Fraction

import pytest

from lgmirror.ladder import moment_inequalities
from lgmirror.polytope import (
    affine_rank,
    enumerate_faces,
    enumerate_vertices,
    face_from_tight,
    satisfies,
)

F = Fraction


def _ineq(coeffs, const):
    return tuple(F(c) for c in coeffs), F(const)


def _unit_cube():
    # 0 <= x_i <= 1 in three variables
    qs = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        qs.append(_ineq(e, 0))
        e2 = [0, 0, 0]
        e2[i] = -1
        qs.append(_ineq(e2, 1))
    return qs


def test_cube_vertices():
    verts = enumerate_vertices(_unit_cube())
    assert len(verts) == 8
    assert all(set(v) <= {F(0), F(1)} for v in verts)


def test_cube_face_lattice():
    qs = _unit_cube()
    faces = enumerate_faces(qs)
    by_dim = {}
    for f in faces:
        by_dim[f.dim] = by_dim.get(f.dim, 0) + 1
    assert by_dim == {0: 8, 1: 12, 2: 6, 3: 1}


def _simplex():
    return [
        _ineq([1, 0, 0], 0),
        _ineq([0, 1, 0], 0),
        _ineq([0, 0, 1], 0),
        _ineq([-1, -1, -1], 1),
    ]


def test_simplex_every_vertex_subset_is_a_face():
    qs = _simplex()
    faces = enumerate_faces(qs)
    assert len(faces) == 15  # all nonempty subsets of 4 vertices
    dims = sorted(f.dim for f in faces)
    assert dims == [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_redundant_constraint_is_harmless():
    qs = _unit_cube() + [_ineq([1, 1, 1], 5)]  # never tight
    verts = enumerate_vertices(qs)
    assert len(verts) == 8
    faces = enumerate_faces(qs, verts)
    assert sum(1 for f in faces if f.dim == 2) == 6


def test_affine_rank_basics():
    assert affine_rank([]) == -1
    assert affine_rank([(F(3), F(4))]) == 0
    line = [(F(0), F(0)), (F(1), F(2)), (F(2), F(4))]
    assert affine_rank(line) == 1
    plane = line + [(F(0), F(1))]
    assert affine_rank(plane) == 2


def test_face_from_tight_picks_the_facet():
    qs = _unit_cube()
    verts = enumerate_vertices(qs)
    f = face_from_tight(qs, verts, [0])  # x0 = 0
    assert f.dim == 2
    assert len(f.vertex_ids) == 4
    assert all(verts[i][0] == 0 for i in f.vertex_ids)
    edge = face_from_tight(qs, verts, [0, 2])  # x0 = 0, x1 = 0
    assert edge.dim == 1


def test_satisfies_is_closed_halfspace():
    q = _ineq([1, -1, 0], 2)
    assert satisfies((F(0), F(2), F(9)), q)
    assert satisfies((F(0), F(3), F(0)), q) is False


def _faces_by_subset_scan(qs, verts):
    # reference: the face of every constraint subset, empty ones dropped
    found = {}
    for k in range(len(qs) + 1):
        for subset in itertools.combinations(range(len(qs)), k):
            f = face_from_tight(qs, verts, subset)
            if f.vertex_ids:
                found[f.vertex_ids] = f
    return tuple(sorted(found.values(), key=lambda f: (f.dim, sorted(f.vertex_ids))))


@pytest.mark.parametrize(
    "qs",
    [_unit_cube(), _simplex(), moment_inequalities(4)[1], moment_inequalities(5)[1]],
    ids=["cube", "simplex", "ladder4", "ladder5"],
)
def test_faces_equal_the_subset_scan(qs):
    verts = enumerate_vertices(qs)
    assert enumerate_faces(qs, verts) == _faces_by_subset_scan(qs, verts)
