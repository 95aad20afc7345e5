"""Critical point solver: closed forms, per-chart solves, atlas union."""

import cmath
import math

import numpy as np
import pytest

import dedup_one_at_a_time as dedup
import lgmirror.critical as critical_module
import monomial_table_by_rows as rows
import newton_without_stop as ref
from lgmirror.critical import (
    CriticalPoint,
    SolveConfig,
    _model_charts,
    atlas_critical_points,
    closed_form,
    critical_system,
    gr24_closed_points,
    gr24_expected_values,
    og15_closed_points,
    og15_expected_values,
    solve,
    solve_potential,
    verify_counts,
    verify_known,
)
from lgmirror.potentials import Potential, gc_torus_potential, immersed_potential, og_potentials
from lgmirror.rational import parse


def _union(model, cfg=SolveConfig()):
    form = closed_form(model)
    return atlas_critical_points(form, form.atlas(), cfg)


def _per_chart(model):
    """Every chart of the model's atlas solved on its own: chart name -> points."""
    form = closed_form(model)
    charts, _ = _model_charts(form, form.atlas())
    return {
        name: solve_potential(potential, bindings)
        for name, potential, bindings, _ in charts
    }


@pytest.fixture(scope="module")
def gr24_per_chart():
    return _per_chart("gr24")


@pytest.fixture(scope="module")
def og15_per_chart():
    return _per_chart("og15")


@pytest.fixture(scope="module")
def gr24_union():
    return _union("gr24")


@pytest.fixture(scope="module")
def og15_union():
    return _union("og15")


def match_multiset(actual, expected, tol):
    rest = list(expected)
    for a in actual:
        hits = [k for k, e in enumerate(rest) if abs(a - e) <= tol]
        if not hits:
            return False
        rest.pop(hits[0])
    return not rest


# -- configuration ---------------------------------------------------------


def test_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        SolveConfig(seed=-1)


@pytest.mark.parametrize("starts", [0, -3])
def test_config_rejects_fewer_than_one_start(starts):
    # no starts would be a solve that examined nothing
    with pytest.raises(ValueError, match="starts"):
        SolveConfig(starts=starts)


def test_unbound_parameter_rejected():
    with pytest.raises(ValueError, match="unbound"):
        critical_system(gc_torus_potential(4))


def test_unknown_model_rejected():
    with pytest.raises(ValueError):
        closed_form("gr27")


# -- closed forms ----------------------------------------------------------


def test_gr24_closed_point_count():
    assert len(gr24_closed_points()) == 6
    assert len(gr24_expected_values()) == 6


def test_og15_closed_point_count():
    assert len(og15_closed_points()) == 4
    assert len(og15_expected_values()) == 4


def test_gr24_closed_points_have_tiny_gradients():
    system = critical_system(immersed_potential(4, {(1, 2)}), {"T": 1})
    for coords in gr24_closed_points():
        assert system.gradient_residual(coords) <= 1e-10


def test_og15_closed_points_have_tiny_gradients():
    system = critical_system(og_potentials().immersed)
    for coords in og15_closed_points():
        assert system.gradient_residual(coords) <= 1e-10


def test_gr24_closed_values_match_stored_points():
    system = critical_system(immersed_potential(4, {(1, 2)}), {"T": 1})
    values = [system.value_at(c) for c in gr24_closed_points()]
    assert match_multiset(values, gr24_expected_values(), 1e-10)


def test_og15_closed_values_match_stored_points():
    system = critical_system(og_potentials().immersed)
    values = [system.value_at(c) for c in og15_closed_points()]
    assert match_multiset(values, og15_expected_values(), 1e-10)


def test_gr24_expected_value_shape():
    r = 4 * math.sqrt(2.0)
    assert match_multiset(
        gr24_expected_values(), [r, r * 1j, -r, -r * 1j, 0.0, 0.0], 1e-12
    )


def test_og15_expected_value_shape():
    r = 3 * 4.0 ** (1.0 / 3.0)
    xi = cmath.exp(2j * cmath.pi / 3)
    assert match_multiset(og15_expected_values(), [r, r * xi, r * xi**2, 0.0], 1e-12)


@pytest.mark.parametrize("name", ["gr24", "Gr(2,4)", "og15", "OG(1, 5)"])
def test_verify_known_reports_pass(name):
    form = closed_form(name)
    report = verify_known(form, form.atlas())
    assert report.passed, [v.name for v in report.failures()]


# -- toy systems -----------------------------------------------------------


def toy(expr, *variables):
    return Potential([parse(expr)], "toy", tuple(variables), "toy")


def test_monomial_denominator_roots():
    pts = solve_potential(toy("x + 1/x", "x"), cfg=SolveConfig(starts=120))
    values = sorted(round(p.value.real, 8) for p in pts)
    assert values == [-2.0, 2.0]
    for p in pts:
        assert abs(p.coords["x"] ** 2 - 1) < 1e-9


def test_factored_denominator_roots():
    pts = solve_potential(toy("x + 1/(x - 1)", "x"), cfg=SolveConfig(starts=120))
    values = sorted(round(p.value.real, 8) for p in pts)
    assert values == [-1.0, 3.0]


def test_root_on_denominator_excluded():
    # clearing 1/y + x/y + y^2/x leaves a spurious common root at the
    # origin, squarely on both poles; the honest gradient check drops it
    pts = solve_potential(toy("1/y + x/y + y^2/x", "x", "y"), cfg=SolveConfig(starts=400))
    assert len(pts) == 3
    omega = cmath.exp(2j * cmath.pi / 3)
    assert match_multiset([p.value for p in pts], [3, 3 * omega, 3 * omega**2], 1e-8)
    for p in pts:
        assert min(abs(c) for c in p.coords.values()) > 1e-6
        assert p.residual <= 1e-10


def test_point_serialization():
    pt = CriticalPoint(coords={"x": 1 + 2j}, value=3 + 0j, residual=1e-14)
    data = pt.as_dict()
    assert data["coords"]["x"] == [1.0, 2.0]
    assert data["value"] == [3.0, 0.0]


# -- the monomial-table evaluator -------------------------------------------


EVALUATOR_CASES = {
    "torus5": lambda: critical_system(gc_torus_potential(5), {"T": 1}),
    "gr24-immersed[1,2]": lambda: critical_system(immersed_potential(4, {(1, 2)}), {"T": 1}),
    "og15-immersed": lambda: critical_system(og_potentials().immersed),
}


def random_points(m, count=50, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 3.0, (count, m)) * np.exp(1j * rng.uniform(0, 2 * math.pi, (count, m)))


def term_sum(poly, point):
    """Sum of the absolute values of the terms: the scale of the rounding
    error of any evaluation order."""
    total = 0.0
    names, rows = poly.dense()
    for exps, c in zip(rows, poly.terms.values()):
        term = abs(float(c))
        for v, e in zip(names, exps):
            term *= abs(point[v]) ** e
        total += term
    return total


@pytest.mark.parametrize("case", sorted(EVALUATOR_CASES))
def test_monomial_table_matches_exact_evaluation(case):
    system = EVALUATOR_CASES[case]()
    pts = random_points(len(system.variables))
    F, J, off = system._evaluate(pts)
    assert off.all()
    for row, f_row, j_row in zip(pts, F, J):
        point = dict(zip(system.variables, row))
        for i, eq in enumerate(system.equations):
            assert abs(f_row[i] - complex(eq.evaluate(point))) <= 1e-12 * term_sum(eq, point)
            for j, v in enumerate(system.variables):
                d = eq.partial(v)
                assert abs(j_row[i, j] - complex(d.evaluate(point))) <= 1e-12 * term_sum(d, point)


@pytest.mark.parametrize("case", sorted(EVALUATOR_CASES))
def test_rational_residuals_match_exact_gradient(case):
    # the gradient numerators carry negative powers, so this also covers the
    # reciprocal half of the power tables
    system = EVALUATOR_CASES[case]()
    pts = random_points(len(system.variables), count=20)
    got = system.rational_residuals(pts)
    for row, worst in zip(pts, got):
        want = system.gradient_residual(dict(zip(system.variables, row)))
        assert worst == pytest.approx(want, rel=1e-10)


def test_singular_jacobian_drops_only_its_own_start():
    system = EVALUATOR_CASES["gr24-immersed[1,2]"]()
    pts = random_points(len(system.variables), count=6)
    # u1 = v1 = 0 with z1_1*z2_2 = -1: off every denominator, but the
    # Jacobian is exactly singular there
    pts[2] = [0, 0, 1, -1]
    F, J, off = system._evaluate(pts)
    assert off.all()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(J, F[..., None])
    step, stay, res = system._newton_step(pts, SolveConfig.newton_tol)
    assert stay.tolist() == [True, True, False, True, True, True]
    assert step.shape == (5, len(system.variables))
    for row, k in zip(step, np.nonzero(stay)[0]):
        np.testing.assert_allclose(row, np.linalg.solve(J[k], F[k]), rtol=1e-13)
    np.testing.assert_array_equal(res, np.abs(F).max(axis=1))


@pytest.mark.parametrize(
    "case, variable, value",
    [("gr24-immersed[1,2]", "z1_1", 0.0), ("torus5", "z2_2", 1e-12)],
)
def test_step_stops_a_row_on_a_denominator(case, variable, value):
    system = EVALUATOR_CASES[case]()
    pts = random_points(len(system.variables), count=6)
    pts[2, system.variables.index(variable)] = value
    # a hundred times the floor: still on the chart
    pts[4, system.variables.index(variable)] = 1e-6
    F, J, off = system._evaluate(pts)
    assert off.tolist() == [True, True, False, True, True, True]
    # the same floor test as the final filter
    np.testing.assert_array_equal(off, system.off_denominators(pts))
    step, stay, res = system._newton_step(pts, SolveConfig.newton_tol)
    assert stay.tolist() == off.tolist()
    # the row on the denominator is not solved for: one step per staying row
    assert step.shape == (5, len(system.variables))
    for row, k in zip(step, np.nonzero(stay)[0]):
        np.testing.assert_allclose(row, np.linalg.solve(J[k], F[k]), rtol=1e-13)
    np.testing.assert_array_equal(res, np.abs(F).max(axis=1))
    # with the tolerance at row 0's residual, row 0 and every row as small
    # have converged and leave too
    step, stay, _ = system._newton_step(pts, res[0])
    assert stay.tolist() == (off & (res > res[0])).tolist()
    assert len(step) == stay.sum()


def _solve_cases():
    cases = {}
    for model in ("gr24", "og15"):
        form = closed_form(model)
        charts, _ = _model_charts(form, form.atlas())
        for name, potential, bindings, _ in charts:
            cases[f"{model}-{name}"] = (potential, bindings)
    cases["torus5"] = (gc_torus_potential(5), {"T": 1})
    return cases


SOLVE_CASES = _solve_cases()


def _case_args(case):
    """A solve case's potential and bindings; torus6, the gr(2,6) torus
    chart, is not in SOLVE_CASES because its solve takes longest."""
    return (gc_torus_potential(6), {"T": 1}) if case == "torus6" else SOLVE_CASES[case]


@pytest.mark.parametrize(
    "case, seed",
    [(case, seed) for seed in (0, 42) for case in sorted(SOLVE_CASES)]
    + [("torus6", 37), ("torus6", 53)],
)
def test_stopping_on_denominators_keeps_every_point(case, seed):
    # bit for bit the points of the loop that runs every iterate to the end
    system = critical_system(*_case_args(case))
    cfg = SolveConfig(seed=seed)
    points = solve(system, cfg)
    assert points and points == ref.solve(system, cfg)


def _float_hex(rows):
    return [[(c.real.hex(), c.imag.hex()) for c in row] for row in rows]


@pytest.mark.parametrize("seed", [37, 42])
def test_greedy_dedup_keeps_the_rows_of_the_one_at_a_time_loop(monkeypatch, seed):
    # the ten solves of the critical workload: every chart of gr24 and og15,
    # and the gr(2,5) and gr(2,6) torus charts
    greedy = critical_module._distinct_rows
    seen = []

    def both(pts):
        kept = greedy(pts)
        seen.append((len(pts), _float_hex(kept), _float_hex(dedup.distinct_rows(pts))))
        return kept

    monkeypatch.setattr(critical_module, "_distinct_rows", both)
    for case in sorted(SOLVE_CASES) + ["torus6"]:
        solve(critical_system(*_case_args(case)), SolveConfig(seed=seed))
    assert len(seen) == 10
    for _, got, want in seen:
        assert got == want
    # the certified rows repeat, so the filter had duplicates to drop
    assert sum(len(got) for _, got, _ in seen) < sum(size for size, _, _ in seen)


def _bitwise_equal(a, b):
    return all(
        np.array_equal(f(a), f(b))
        for f in (np.real, np.imag, lambda z: np.signbit(z.real), lambda z: np.signbit(z.imag))
    )


@pytest.mark.parametrize("dtype", [np.complex128, np.clongdouble])
@pytest.mark.parametrize("case", sorted(SOLVE_CASES) + ["torus6"])
def test_batch_last_table_matches_the_row_layout_bit_for_bit(case, dtype):
    # clongdouble is the dtype of rational_residuals
    system = critical_system(*_case_args(case))
    rng = np.random.default_rng(5)
    m = len(system.variables)
    radii = rng.uniform(0.05, 20.0, (200, m))
    pts = (radii * np.exp(1j * rng.uniform(0, 2 * math.pi, (200, m)))).astype(dtype)
    for monomials in (system._newton, system._gradient):
        table = monomials.table(pts)
        want = rows.table(monomials, pts)
        assert table.shape == want.T.shape
        assert _bitwise_equal(table.T, want)
        coeffs = monomials.coeffs.astype(dtype)
        assert _bitwise_equal(monomials.eval(pts), want @ coeffs)
        # written into the first 200 columns of a wider buffer, the same
        # bits, and the columns past them untouched
        wide = np.full((table.shape[0], 207), 7 - 3j, dtype=dtype)
        into = monomials.table(pts, wide)
        assert np.shares_memory(into, wide) and into.shape == table.shape
        assert _bitwise_equal(into, table)
        assert (wide[:, 200:] == 7 - 3j).all()


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_torus5_solve_finds_every_closed_form_value(seed):
    # the critical values of gr(2,5) are 5*(a + b) over pairs a != b of roots
    # of z^5 = -1; every pair lies on the torus chart since 5 is prime
    roots = [cmath.exp(1j * math.pi * (2 * k + 1) / 5) for k in range(5)]
    expected = [5 * (a + b) for k, a in enumerate(roots) for b in roots[k + 1 :]]
    pts = solve_potential(gc_torus_potential(5), {"T": 1}, SolveConfig(seed=seed))
    assert match_multiset([p.value for p in pts], expected, 1e-8)
    assert all(p.residual <= 1e-10 for p in pts)


# -- per-chart solves ------------------------------------------------------


def test_gr24_chart_counts(gr24_per_chart):
    counts = {k: len(v) for k, v in gr24_per_chart.items()}
    assert counts == {
        "immersed[1,2]": 6, "chekanov[1,2]": 4, "clifford[1,2]": 4, "torus": 4,
    }


def test_og15_chart_counts(og15_per_chart):
    counts = {k: len(v) for k, v in og15_per_chart.items()}
    assert counts == {"immersed": 4, "chekanov": 3, "clifford": 3, "toric-fiber": 3}


def test_gr24_node_chart_sees_everything(gr24_per_chart):
    values = [p.value for p in gr24_per_chart["immersed[1,2]"]]
    assert match_multiset(values, gr24_expected_values(), 1e-8)


def test_gr24_smoothed_charts_miss_the_nodal_points(gr24_per_chart):
    for chart in ("chekanov[1,2]", "clifford[1,2]", "torus"):
        values = [p.value for p in gr24_per_chart[chart]]
        assert match_multiset(values, gr24_expected_values()[:4], 1e-8)


def test_og15_smoothed_charts_miss_the_nodal_point(og15_per_chart):
    for chart in ("chekanov", "clifford", "toric-fiber"):
        values = [p.value for p in og15_per_chart[chart]]
        assert match_multiset(values, og15_expected_values()[:3], 1e-8)


def test_solver_residuals_are_tight(gr24_per_chart, og15_per_chart):
    for per_chart in (gr24_per_chart, og15_per_chart):
        for pts in per_chart.values():
            for p in pts:
                assert p.residual <= 1e-10


# -- atlas union -----------------------------------------------------------


def test_gr24_union_count_matches_cohomology_rank(gr24_union):
    assert len(gr24_union) == 6


def test_og15_union_count_matches_cohomology_rank(og15_union):
    assert len(og15_union) == 4


def test_gr24_union_values(gr24_union):
    assert match_multiset([p.value for p in gr24_union], gr24_expected_values(), 1e-8)


def test_og15_union_values(og15_union):
    assert match_multiset([p.value for p in og15_union], og15_expected_values(), 1e-8)


def test_gr24_union_nodal_points_have_vanishing_plucker_pair(gr24_union):
    zeros = [p for p in gr24_union if abs(p.value) < 1e-8]
    assert len(zeros) == 2
    for p in zeros:
        assert abs(p.coords["p_1,3"]) < 1e-8
        assert abs(p.coords["p_2,4"]) < 1e-8


def test_og15_union_nodal_point_vector(og15_union):
    zeros = [p for p in og15_union if abs(p.value) < 1e-8]
    assert len(zeros) == 1
    vec = zeros[0].coords
    assert abs(vec["p0"] - 1) < 1e-8
    assert abs(vec["p1"]) < 1e-8
    assert abs(vec["p2"]) < 1e-8
    assert abs(vec["p3"] + 1) < 1e-8


def test_union_projections_normalized(gr24_union, og15_union):
    for points in (gr24_union, og15_union):
        for p in points:
            mods = [abs(c) for c in p.coords.values()]
            assert max(mods) <= 1 + 1e-9
            assert any(abs(c - 1) < 1e-9 for c in p.coords.values())


def test_verify_counts_reports(gr24_union, og15_union):
    report = verify_counts(closed_form("gr24"), gr24_union)
    assert report.passed, [v.name for v in report.failures()]
    report = verify_counts(closed_form("og15"), og15_union)
    assert report.passed, [v.name for v in report.failures()]
    assert not verify_counts(closed_form("og15"), og15_union[1:]).passed


# -- determinism -----------------------------------------------------------


def test_solver_is_deterministic():
    cfg = SolveConfig(starts=300)
    first = solve_potential(og_potentials().immersed, cfg=cfg)
    second = solve_potential(og_potentials().immersed, cfg=cfg)
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert a.coords == b.coords
        assert a.value == b.value
        assert a.residual == b.residual


def test_union_is_deterministic():
    cfg = SolveConfig(starts=300)
    first = _union("og15", cfg)
    second = _union("og15", cfg)
    assert [p.coords for p in first] == [p.coords for p in second]


def test_seed_changes_starting_points_not_roots():
    baseline = solve_potential(og_potentials().clifford, cfg=SolveConfig(starts=800))
    shifted = solve_potential(
        og_potentials().clifford, cfg=SolveConfig(starts=800, seed=7)
    )
    assert len(baseline) == len(shifted) == 3
    assert match_multiset(
        [p.value for p in shifted], [p.value for p in baseline], 1e-8
    )


def test_torus_chart_requires_unit_quantum_binding():
    pts = solve_potential(gc_torus_potential(4), {"T": 1}, SolveConfig(starts=600))
    assert len(pts) == 4
    assert match_multiset([p.value for p in pts], gr24_expected_values()[:4], 1e-8)
