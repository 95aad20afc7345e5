"""Tests for ladder diagrams, face classification, and pair sets."""
import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror.ladder import (
    Diagram,
    admissible_diagrams,
    bounded_regions,
    check_pair_set,
    classify_face,
    diagram_from_pairs,
    index_sets,
    ladder_edges,
    moment_inequalities,
    monotone_point,
    positive_paths,
    tight_edge_indices,
)
from lgmirror.polytope import enumerate_faces, enumerate_vertices
from lgmirror.potentials import immersed_potential

from fraction_polytope import face_from_tight, satisfies
import regions_by_dict


def is_admissible(n: int, mask: int) -> bool:
    """True when the edge mask is precisely a union of positive paths."""
    union = 0
    for p in positive_paths(n):
        if p & mask == p:
            union |= p
    return bool(mask) and union == mask


def _full(n: int) -> int:
    return (1 << len(ladder_edges(n))) - 1


def _grid_path_count(n: int) -> int:
    # independent route: count monotone lattice paths by dynamic programming
    rows, cols = 3, n - 1
    table = [[0] * cols for _ in range(rows)]
    table[0][0] = 1
    for i in range(rows):
        for j in range(cols):
            if i:
                table[i][j] += table[i - 1][j]
            if j:
                table[i][j] += table[i][j - 1]
    return table[rows - 1][cols - 1]


@pytest.mark.parametrize("n", [4, 5, 6])
def test_positive_path_count(n):
    paths = positive_paths(n)
    assert len(paths) == _grid_path_count(n) == comb(n, 2)
    assert len(set(paths)) == len(paths)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_positive_path_masks_take_two_rungs_and_n_minus_2_rails(n):
    edges = ladder_edges(n)
    for p in positive_paths(n):
        assert p.bit_count() == n
        steps = [e for k, e in enumerate(edges) if p >> k & 1]
        rungs = [(a, b) for a, b in steps if a[1] == b[1]]
        assert len(rungs) == 2 and len(steps) - len(rungs) == n - 2


def test_edges_view_reencodes_to_the_mask():
    for n in (4, 5, 6):
        bit = {e: 1 << k for k, e in enumerate(ladder_edges(n))}
        for d in admissible_diagrams(n):
            assert sum(bit[e] for e in d.edges) == d.mask


def test_single_path_is_zero_dimensional():
    for n in (4, 5):
        for p in positive_paths(n):
            assert Diagram(n, p).dimension == 0


def test_full_ladder_dimension():
    for n in (4, 5, 6):
        assert Diagram(n, _full(n)).dimension == 2 * (n - 2)


def test_regions_are_cached_outside_equality_and_hash():
    d = Diagram(6, _full(6))
    regions = d.regions
    assert d.regions is regions
    fresh = Diagram(6, _full(6))
    assert "regions" not in vars(fresh)
    assert d == fresh and hash(d) == hash(fresh)
    assert len({d, fresh}) == 1
    assert fresh.regions == regions


@pytest.mark.parametrize("n", [4, 5, 6])
def test_diagrams_match_polytope_faces(n):
    diagrams = admissible_diagrams(n)
    _, ineqs, _ = moment_inequalities(n)
    verts = enumerate_vertices(ineqs)
    faces = enumerate_faces(ineqs, verts)
    assert len(diagrams) == len(faces)
    assert Counter(d.dimension for d in diagrams) == Counter(f.dim for f in faces)
    seen = set()
    for d in diagrams:
        f = face_from_tight(ineqs, verts, sorted(tight_edge_indices(d)))
        assert f.dim == d.dimension
        assert f.vertex_ids not in seen
        seen.add(f.vertex_ids)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_bounded_regions_match_the_dict_union_find(n):
    for d in admissible_diagrams(n):
        assert bounded_regions(n, d.mask) == regions_by_dict.bounded_regions(n, d.mask)


def test_census_matches_polytope_faces_at_n7():
    n = 7
    diagrams = admissible_diagrams(n)
    _, ineqs, _ = moment_inequalities(n)
    faces = enumerate_faces(ineqs, enumerate_vertices(ineqs))
    assert len(diagrams) == len(faces) == 5695
    assert Counter(d.dimension for d in diagrams) == Counter(f.dim for f in faces)
    assert sum(classify_face(d).lagrangian for d in diagrams) == 8
    # each diagram cuts out its own face, of its own dimension
    vertex_tight = {v: f.tight for f in faces if f.dim == 0 for v in f.vertex_ids}
    face_of = {f.vertex_ids: f for f in faces}
    seen = set()
    for d in diagrams:
        tight = tight_edge_indices(d)
        ids = frozenset(v for v, t in vertex_tight.items() if tight <= t)
        assert face_of[ids].dim == d.dimension
        seen.add(ids)
    assert len(seen) == len(diagrams)


def test_diagram_inclusion_is_face_inclusion():
    n = 4
    diagrams = admissible_diagrams(n)
    _, ineqs, _ = moment_inequalities(n)
    verts = enumerate_vertices(ineqs)
    vsets = {
        d.edges: face_from_tight(ineqs, verts, sorted(tight_edge_indices(d))).vertex_ids
        for d in diagrams
    }
    for d1 in diagrams:
        for d2 in diagrams:
            if d1.edges <= d2.edges:
                assert vsets[d1.edges] <= vsets[d2.edges]


@pytest.mark.parametrize(
    "n,count", [(4, 39), (5, 207), (6, 1087), (7, 5695), (8, 29823), (9, 156159)]
)
def test_admissible_diagram_counts(n, count):
    assert len(admissible_diagrams(n)) == count


def test_every_enumerated_diagram_is_a_path_union():
    for n in (4, 5):
        diagrams = admissible_diagrams(n)
        assert len({d.edges for d in diagrams}) == len(diagrams)
        for d in diagrams:
            assert is_admissible(n, d.mask)
    assert not is_admissible(4, 0)
    # a path with one edge dropped is not a union of paths
    p = positive_paths(4)[0]
    broken = p & (p - 1)
    assert not is_admissible(4, broken)


def test_gr24_has_six_facets():
    diagrams = admissible_diagrams(4)
    facets = [d for d in diagrams if d.dimension == 3]
    assert len(facets) == 6
    for d in facets:
        assert not classify_face(d).lagrangian


def test_classification_of_gr24_faces():
    full = Diagram(4, _full(4))
    c = classify_face(full)
    assert (c.lagrangian, c.n1, c.n2, c.diffeo_type) == (True, 4, 0, "T^4")
    block = diagram_from_pairs(4, frozenset({(1, 2)}))
    c2 = classify_face(block)
    assert (c2.lagrangian, c2.n1, c2.n2, c2.diffeo_type) == (True, 0, 1, "S^3 x S^1")
    assert block.dimension == 1


@pytest.mark.parametrize("n,count", [(4, 2), (5, 3), (6, 5), (7, 8)])
def test_lagrangian_count_matches_pair_sets(n, count):
    diagrams = admissible_diagrams(n)
    lag = [d for d in diagrams if classify_face(d).lagrangian]
    assert len(lag) == count
    all_sets, _ = index_sets(n)
    assert len(all_sets) == count
    assert {d.edges for d in lag} == {diagram_from_pairs(n, s).edges for s in all_sets}


def test_lagrangian_block_balance():
    for n in (4, 5, 6):
        for d in admissible_diagrams(n):
            c = classify_face(d)
            if c.lagrangian:
                assert c.n1 + 4 * c.n2 == 2 * (n - 2)
                assert c.n1 + c.n2 == d.dimension


def test_monotone_point_values_gr24():
    full = Diagram(4, _full(4))
    assert monotone_point(full) == {
        (1, 1): Fraction(0),
        (1, 2): Fraction(1),
        (2, 1): Fraction(-1),
        (2, 2): Fraction(0),
    }
    block = diagram_from_pairs(4, frozenset({(1, 2)}))
    assert monotone_point(block) == {
        (1, 1): Fraction(0),
        (1, 2): Fraction(0),
        (2, 1): Fraction(0),
        (2, 2): Fraction(0),
    }


def test_monotone_point_lies_in_polytope():
    for n in (4, 5, 6):
        labels, ineqs, _ = moment_inequalities(n)
        all_sets, _ = index_sets(n)
        for s in all_sets:
            pt = monotone_point(diagram_from_pairs(n, s))
            vec = tuple(pt[lab] for lab in labels)
            assert all(satisfies(vec, q) for q in ineqs)


def test_monotone_point_rejects_non_lagrangian():
    facet = next(d for d in admissible_diagrams(4) if d.dimension == 3)
    with pytest.raises(ValueError):
        monotone_point(facet)


def test_index_sets_small():
    all4, max4 = index_sets(4)
    assert set(all4) == {frozenset(), frozenset({(1, 2)})}
    assert set(max4) == {frozenset({(1, 2)})}
    all6, max6 = index_sets(6)
    assert set(all6) == {
        frozenset(),
        frozenset({(1, 2)}),
        frozenset({(2, 3)}),
        frozenset({(3, 4)}),
        frozenset({(1, 2), (3, 4)}),
    }
    assert set(max6) == {frozenset({(1, 2), (3, 4)}), frozenset({(2, 3)})}


@pytest.mark.parametrize("n", range(4, 13))
def test_index_sets_maximal_by_subset_definition(n):
    all_sets, maximal = index_sets(n)
    assert maximal == tuple(s for s in all_sets if not any(s < t for t in all_sets))


def _index_sets_by_subset_scan(n):
    """Reference: every subset of the consecutive pairs, by size, kept
    when its pairs are disjoint."""
    pairs = [(i, i + 1) for i in range(1, n - 2)]
    all_sets, maximal = [], []
    for k in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, k):
            used = {x for p in combo for x in p}
            if len(used) == 2 * k:
                all_sets.append(frozenset(combo))
                if all(i in used or j in used for i, j in pairs):
                    maximal.append(all_sets[-1])
    return tuple(all_sets), tuple(maximal)


@pytest.mark.parametrize("n", range(4, 15))
def test_index_sets_match_the_subset_scan(n):
    assert index_sets(n) == _index_sets_by_subset_scan(n)


# mostly consecutive pairs near the valid range, some arbitrary ones
_pairs = st.one_of(
    st.integers(-1, 10).map(lambda i: (i, i + 1)),
    st.tuples(st.integers(-1, 11), st.integers(-1, 11)),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(4, 10), pair_set=st.frozensets(_pairs, max_size=5))
def test_check_pair_set_accepts_exactly_the_index_sets(n, pair_set):
    valid, _ = index_sets(n)
    try:
        checked = check_pair_set(n, pair_set)
    except ValueError:
        assert pair_set not in valid
    else:
        assert pair_set in valid and checked == pair_set


@pytest.mark.parametrize("pair_set", [{(1.9, 2.9)}, {(1.5, 2.5)}, {(1.0, 2.0)}, {(1, 2), (3.5, 4.5)}])
def test_check_pair_set_rejects_non_integer_indices(pair_set):
    with pytest.raises(ValueError, match="not a valid pair set"):
        check_pair_set(6, pair_set)
    with pytest.raises(ValueError, match="not a valid pair set"):
        immersed_potential(6, pair_set)


@pytest.mark.parametrize("pairs", [[(1, 2), (1, 2)], ((1, 2), (3, 4), (1, 2))])
def test_check_pair_set_rejects_a_repeated_pair(pairs):
    with pytest.raises(ValueError, match="listed twice"):
        check_pair_set(6, pairs)


@pytest.mark.parametrize("n", [-1, 0, 2, 3])
def test_check_pair_set_rejects_small_n(n):
    with pytest.raises(ValueError, match="n >= 4"):
        check_pair_set(n, frozenset())


def test_moment_inequality_count_and_boundedness():
    for n in (4, 5):
        labels, ineqs, pinned = moment_inequalities(n)
        assert len(ineqs) == 3 * n - 6
        assert len(pinned) == len(ineqs)
        assert len(labels) == 2 * (n - 2)
        verts = enumerate_vertices(ineqs)
        assert verts  # nonempty and, being vertex-spanned, bounded
        top = enumerate_faces(ineqs, verts)[-1]
        assert top.dim == 2 * (n - 2)
