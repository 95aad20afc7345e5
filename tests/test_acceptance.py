"""End-to-end acceptance checks, one per shipped guarantee.

Each test is a single pass/fail line covering one criterion, with its
stated tolerance and wall-clock budget enforced inside the test body.
"""

import cmath
import math
import pathlib
import subprocess
import sys
import time
from collections import Counter

from lgmirror.atlas import (
    gr24_atlas,
    gr_product_atlas,
    local_model_atlas,
    og15_atlas,
    verify_cocycle,
    verify_potential_transport,
)
from lgmirror.cli import main
from lgmirror.critical import (
    atlas_critical_points,
    closed_form,
    critical_system,
    gr24_closed_points,
    og15_closed_points,
)
from lgmirror.koszul import gr24_koszul, koszul_square_check, og15_koszul
from lgmirror.ladder import (
    admissible_diagrams,
    classify_face,
    moment_inequalities,
    monotone_point,
    tight_edge_indices,
)
from lgmirror.novikov import novikov_expand
from lgmirror.plucker import covering_certificate, covering_check
from lgmirror.polytope import enumerate_faces, enumerate_vertices
from lgmirror.potentials import (
    immersed_potential,
    immersed_terms,
    og_potentials,
    verify_rietsch_identity,
)
from lgmirror.rational import parse

from fraction_polytope import face_from_tight, is_tight, satisfies


def budget(started, seconds):
    elapsed = time.perf_counter() - started
    assert elapsed <= seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def match_multiset(actual, expected, tol):
    rest = list(expected)
    for a in actual:
        hits = [k for k, e in enumerate(rest) if abs(a - e) <= tol]
        if not hits:
            return False
        rest.pop(hits[0])
    return not rest


def test_criterion_01_gr24_identity_via_cli():
    t0 = time.perf_counter()
    code = main(["verify", "rietsch", "--model", "gr", "--n", "4", "--pairs", "1,2"])
    assert code == 0
    budget(t0, 5)


# the kept facets in facet order, then the inserted terms
GR26_SINGLE_TERMS = [
    "z1_1^-1*z1_2",
    "T^6*z1_4^-1",
    "z2_3^-1*z2_4",
    "z1_1*z2_1^-1",
    "z1_4*z2_4^-1",
    "z2_1",
    "u2",
    "u2*z1_2*z2_3^-1",
    "v2*z2_1^-1*z2_3",
    "(v2*z1_2^-1*z1_4)/(u2*v2 - 1)",
]

GR26_DOUBLE_TERMS = [
    "u1",
    "u1*z1_1*z2_2^-1",
    "v1*z2_2",
    "(v1*z1_1^-1*z1_3)/(u1*v1 - 1)",
    "u3",
    "u3*z1_3*z2_4^-1",
    "v3*z2_2^-1*z2_4",
    "(T^6*v3*z1_3^-1)/(u3*v3 - 1)",
]


def test_criterion_02_gr26_both_maximal_charts():
    t0 = time.perf_counter()
    single = frozenset({(2, 3)})
    double = frozenset({(1, 2), (3, 4)})
    assert [str(t) for t in immersed_terms(6, single)] == GR26_SINGLE_TERMS
    assert [str(t) for t in immersed_terms(6, double)] == GR26_DOUBLE_TERMS
    assert verify_rietsch_identity("gr(2,6)", single)
    assert verify_rietsch_identity("gr(2,6)", double)
    budget(t0, 30)


def test_criterion_03_og15_identity():
    t0 = time.perf_counter()
    assert verify_rietsch_identity("og15")
    budget(t0, 5)


def test_criterion_04_gr24_critical_points():
    t0 = time.perf_counter()
    system = critical_system(immersed_potential(4, {(1, 2)}), {"T": 1})
    for coords in gr24_closed_points():
        assert system.gradient_residual(coords) <= 1e-10
    form = closed_form("gr24")
    points = atlas_critical_points(form, form.atlas())
    assert len(points) == 6
    expected = [4 * math.sqrt(2.0) * 1j**j for j in range(4)] + [0.0, 0.0]
    assert match_multiset([p.value for p in points], expected, 1e-8)
    budget(t0, 60)


def test_criterion_05_og15_critical_points():
    t0 = time.perf_counter()
    system = critical_system(og_potentials().immersed)
    for coords in og15_closed_points():
        assert system.gradient_residual(coords) <= 1e-10
    form = closed_form("og15")
    points = atlas_critical_points(form, form.atlas())
    assert len(points) == 4
    xi = cmath.exp(2j * cmath.pi / 3)
    expected = [3 * 4.0 ** (1.0 / 3.0) * xi**j for j in range(3)] + [0.0]
    assert match_multiset([p.value for p in points], expected, 1e-8)
    budget(t0, 30)


def test_criterion_06_lagrangian_faces():
    t0 = time.perf_counter()
    lag4 = [d for d in admissible_diagrams(4) if classify_face(d).lagrangian]
    assert len(lag4) == 2
    assert {classify_face(d).diffeo_type for d in lag4} == {"T^4", "S^3 x S^1"}
    lag6 = [d for d in admissible_diagrams(6) if classify_face(d).lagrangian]
    assert len(lag6) == 5
    for n, faces in ((4, lag4), (6, lag6)):
        labels, ineqs, pinned = moment_inequalities(n)
        for d in faces:
            point = monotone_point(d)
            vec = tuple(point[lab] for lab in labels)
            assert all(satisfies(vec, q) for q in ineqs)
            assert all(
                is_tight(vec, ineqs[idx]) == (e not in d.edges)
                for e, idx in pinned.items()
            )
    budget(t0, 10)


def test_criterion_07_oracle_equivalence():
    t0 = time.perf_counter()
    for n in (4, 5):
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
    budget(t0, 60)


def test_criterion_08_atlas_cocycle_and_transport():
    t0 = time.perf_counter()
    atlases = [local_model_atlas(), gr24_atlas(), gr_product_atlas(6), og15_atlas()]
    for atlas in atlases:
        assert verify_cocycle(atlas).passed, atlas.name
        assert verify_potential_transport(atlas).passed, atlas.name
    assert not verify_cocycle(local_model_atlas(perturb_cocycle=True)).passed
    assert not verify_potential_transport(gr24_atlas(flip_sign=True)).passed
    budget(t0, 30)


def test_criterion_09_novikov_wall_crossing_series():
    t0 = time.perf_counter()
    series = novikov_expand(
        parse("v/((u*v - 1)*z0)"), {"u": 1, "v": 1, "z0": 0}, 10
    )
    assert list(series.exponents()) == [1, 3, 5, 7, 9]
    for i in range(5):
        coeff = series.coefficient(2 * i + 1)
        expected = (-parse("v/z0") * parse("u*v") ** i).num
        assert coeff.key() == expected.key()
    budget(t0, 1)


def test_criterion_10_koszul_factorizations():
    t0 = time.perf_counter()
    og_report = koszul_square_check(og15_koszul())
    assert og_report.passed
    assert sum(v.name.startswith("square[") for v in og_report.verdicts) == 8
    gr_report = koszul_square_check(gr24_koszul())
    assert gr_report.passed
    assert sum(v.name.startswith("square[") for v in gr_report.verdicts) == 16
    budget(t0, 10)


def test_criterion_11_chart_covering():
    t0 = time.perf_counter()
    for n in (5, 6):
        report = covering_check(n, 1000, 42)
        assert report.ok
        assert not report.failures and not report.degenerate_failures
    for n in (4, 5, 6):
        assert all(row["covered"] for row in covering_certificate(n))
    budget(t0, 10)


def test_criterion_12_property_suites_standalone():
    t0 = time.perf_counter()
    suite = pathlib.Path(__file__).resolve().parent / "test_properties.py"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(suite), "-q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    budget(t0, 60)
