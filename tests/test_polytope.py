"""Tests for the exact H-polytope face machinery."""
import itertools
import random
from collections import Counter
from fractions import Fraction
from functools import cache
from math import lcm

import pytest

import fraction_polytope as ref
import polytope_by_subsets as old
from lgmirror import polytope
from lgmirror.ladder import moment_inequalities
from lgmirror.polytope import (
    _back_substitute,
    _integer_points,
    _reduce,
    enumerate_faces,
    enumerate_vertices,
)

F = Fraction


def affine_rank(points):
    """The integer affine-rank kernel on Fraction points; -1 for none."""
    return old.affine_rank(_integer_points(points)[1]) if points else -1


def _echelon_solve(rows):
    """The vertex search's kernels on one square system: each row reduced
    against those before it, then back substitution; None if singular."""
    echelon = []
    for row in rows:
        step = _reduce(row, echelon)
        if step is None:
            return None
        echelon.append(step)
    return _back_substitute(echelon)


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


def _faces_by_subset_scan(qs, verts):
    # reference: the face of every constraint subset, empty ones dropped
    found = {}
    for k in range(len(qs) + 1):
        for subset in itertools.combinations(range(len(qs)), k):
            f = ref.face_from_tight(qs, verts, subset)
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


# -- the integer kernels against the Fraction reference ----------------------


def _rational(rng, zero_share=0.3):
    if rng.random() < zero_share:
        return F(0)
    return F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))


def _integer_system(rows):
    # each row times the LCM of its denominators: the same solution set
    return [[int(x * lcm(*(y.denominator for y in row))) for x in row] for row in rows]


def _as_fractions(sol):
    return None if sol is None else tuple(F(x, sol[1]) for x in sol[0])


def _combinations(rng, basis, count):
    # ``count`` random rational combinations of the basis rows
    out = []
    for _ in range(count):
        coef = [_rational(rng, 0.2) for _ in basis]
        out.append([sum((c * x for c, x in zip(coef, col)), F(0)) for col in zip(*basis)])
    return out


@pytest.mark.parametrize("d", range(1, 7))
def test_solve_square_matches_the_fraction_reference(d):
    rng = random.Random(d)
    solved = 0
    for _ in range(300):
        rows = [[_rational(rng) for _ in range(d + 1)] for _ in range(d)]
        want = ref.solve_square(rows)
        assert _as_fractions(old.solve_square(_integer_system(rows))) == want
        assert _as_fractions(_echelon_solve(_integer_system(rows))) == want
        solved += want is not None and any(x.denominator > 1 for x in want)
    assert solved > 100  # mostly regular systems with non-integer solutions


@pytest.mark.parametrize("d", range(2, 7))
def test_solve_square_rejects_singular_systems(d):
    rng = random.Random(100 + d)
    for _ in range(100):
        # the coefficient rows span fewer than d dimensions; b is arbitrary
        basis = [[_rational(rng) for _ in range(d)] for _ in range(rng.randint(1, d - 1))]
        rows = [row + [_rational(rng)] for row in _combinations(rng, basis, d)]
        assert ref.solve_square(rows) is None
        assert old.solve_square(_integer_system(rows)) is None
        assert _echelon_solve(_integer_system(rows)) is None


def _affine_family(rng, dim, rank, count, skip):
    """``count`` points of a random affine space of dimension at most
    ``rank``; the directions vanish in the coordinates of ``skip``."""
    base = [_rational(rng) for _ in range(dim)]
    dirs = [[F(0) if j in skip else _rational(rng) for j in range(dim)] for _ in range(rank)]
    if not rank:
        return [tuple(base)] * count
    return [tuple(b + v for b, v in zip(base, step)) for step in _combinations(rng, dirs, count)]


@pytest.mark.parametrize("dim", range(1, 7))
def test_affine_rank_matches_the_fraction_reference(dim):
    rng = random.Random(200 + dim)
    for _ in range(150):
        rank = rng.randint(0, dim)
        skip = set(rng.sample(range(dim), rng.randint(0, dim - rank)))
        points = _affine_family(rng, dim, rank, rng.randint(1, 8), skip)
        points += rng.sample(points, rng.randint(0, len(points)))  # repeats
        rng.shuffle(points)
        assert affine_rank(points) == ref.affine_rank(points) <= rank


def test_affine_rank_skips_a_column_with_no_pivot_left():
    # after the first pivot both columns 1 and 2 are zero in the rest
    points = [(F(0), F(0), F(0), F(0)), (F(1, 2), F(1), F(2), F(0)),
              (F(1), F(2), F(4), F(1, 3)), (F(3, 2), F(3), F(6), F(1))]
    assert affine_rank(points) == ref.affine_rank(points) == 2


def _random_polytope(rng, d, cuts):
    """A box with fractional sides cut by random rational halfspaces that
    keep the origin."""
    qs = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(1)
        qs.append((tuple(e), F(rng.randint(1, 9), rng.randint(1, 4))))
        e[i] = F(-rng.randint(1, 3), rng.randint(1, 5))
        qs.append((tuple(e), F(rng.randint(1, 9), rng.randint(1, 4))))
    for _ in range(cuts):
        normal = tuple(_rational(rng) for _ in range(d))
        qs.append((normal, F(rng.randint(1, 9), rng.randint(1, 6))))
    rng.shuffle(qs)
    return qs


def _random_case(seed):
    return _random_polytope(random.Random(300 + seed), 2 + seed % 3, 1 + seed % 4)


@pytest.mark.parametrize("seed", range(12))
def test_random_polytopes_match_the_fraction_reference(seed):
    qs = _random_case(seed)
    verts = enumerate_vertices(qs)
    assert verts == ref.enumerate_vertices(qs)
    assert any(x.denominator > 1 for v in verts for x in v)
    assert enumerate_faces(qs, verts) == ref.enumerate_faces(qs, verts)


def _redundant_cube():
    cube = _unit_cube()
    return cube + [
        (tuple(F(2, 3) * c for c in cube[0][0]), F(0)),  # a scaled copy of x0 >= 0
        _ineq([1, 1, 1], 5),  # never tight
        _ineq([1, 1, 1], 0),  # tight only at the origin
        (tuple(F(1, 5) * c for c in cube[3][0]), F(1, 5)),  # a scaled x1 <= 1
    ]


def _square_pyramid():
    # the unit square at z = 0 under the apex (1/2, 1/2, 1), which lies on
    # all four side facets
    return [
        _ineq([0, 0, 1], 0),
        _ineq([2, 0, -1], 0),
        _ineq([-2, 0, -1], 2),
        _ineq([0, 2, -1], 0),
        _ineq([0, -2, -1], 2),
    ]


def _octahedron():
    # |x| + |y| + |z| <= 3/2: every vertex lies on four facets
    return [_ineq(s, F(3, 2)) for s in itertools.product([-1, 1], repeat=3)]


def _flat_square():
    # the unit square in R^3, held at z = 0 by z >= 0 and -z >= 0
    return [
        _ineq([1, 0, 0], 0),
        _ineq([-1, 0, 0], 1),
        _ineq([0, 1, 0], 0),
        _ineq([0, -1, 0], 1),
        _ineq([0, 0, 1], 0),
        _ineq([0, 0, -1], 0),
    ]


def _repeated_rows():
    # x0 >= 0 three times over, the last scaled by 3, then the cube: every
    # prefix holding two of the three is singular
    cube = _unit_cube()
    return [cube[0], cube[0], (tuple(3 * c for c in cube[0][0]), F(0))] + cube


@cache
def _reference(name):
    qs = _POLYTOPES[name]()
    verts = ref.enumerate_vertices(qs)
    return qs, verts, ref.enumerate_faces(qs, verts)


_POLYTOPES = {
    "cube": _unit_cube,
    "simplex": _simplex,
    "redundant_cube": _redundant_cube,
    "square_pyramid": _square_pyramid,
    "octahedron": _octahedron,
    "flat_square": _flat_square,
    "repeated_rows": _repeated_rows,
    **{f"ladder{n}": (lambda n=n: moment_inequalities(n)[1]) for n in range(4, 8)},
}


@pytest.mark.parametrize("name", sorted(_POLYTOPES))
def test_enumeration_matches_the_fraction_reference(name):
    qs, want_verts, want_faces = _reference(name)
    verts = enumerate_vertices(qs)
    assert verts == want_verts
    assert all(isinstance(x, Fraction) for v in verts for x in v)
    assert enumerate_faces(qs, verts) == want_faces
    assert enumerate_faces(qs) == want_faces


@pytest.mark.parametrize(
    "name,counts",
    [
        ("square_pyramid", {0: 5, 1: 8, 2: 5, 3: 1}),
        ("octahedron", {0: 6, 1: 12, 2: 8, 3: 1}),
        ("flat_square", {0: 4, 1: 4, 2: 1}),
        ("repeated_rows", {0: 8, 1: 12, 2: 6, 3: 1}),
    ],
)
def test_face_counts_by_dimension(name, counts):
    qs = _POLYTOPES[name]()
    assert Counter(f.dim for f in enumerate_faces(qs)) == counts


@pytest.mark.parametrize(
    "qs",
    [pytest.param(_POLYTOPES[name](), id=name) for name in sorted(_POLYTOPES)]
    + [pytest.param(_random_case(seed), id=f"random{seed}") for seed in range(12)],
)
def test_enumeration_matches_elimination_per_subset(qs):
    verts = enumerate_vertices(qs)
    assert verts == old.enumerate_vertices(qs)
    assert enumerate_faces(qs, verts) == old.enumerate_faces(qs, verts)


def test_each_vertex_is_solved_once(monkeypatch):
    # the n = 6 ladder polytope is degenerate: 217 full subsets were solved
    # for its 15 vertices before a subset tight at a found vertex was skipped
    qs = moment_inequalities(6)[1]
    solved = []

    def spy(echelon):
        nums, den = _back_substitute(echelon)
        solved.append(tuple(F(x, den) for x in nums))
        return nums, den

    monkeypatch.setattr(polytope, "_back_substitute", spy)
    verts = enumerate_vertices(qs)
    assert verts == old.enumerate_vertices(qs)
    assert Counter(p for p in solved if p in verts) == Counter(verts)


def test_empty_polytope_has_no_faces():
    qs = [_ineq([1], -1), _ineq([-1], 0)]  # x >= 1 and x <= 0
    assert enumerate_vertices(qs) == ()
    for route in (enumerate_faces, ref.enumerate_faces, old.enumerate_faces):
        assert route(qs) == ()
        assert route(qs, ()) == ()
