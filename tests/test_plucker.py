"""Tests for the Plucker algebra, charts, and covering checks."""
import cmath
import itertools
import json
from fractions import Fraction

import pytest

from lgmirror import plucker
from lgmirror.cli import main
from lgmirror.plucker import (
    covering_certificate,
    covering_check,
    geometric_to_plucker,
    parametrize,
    pvar,
    sum_equal_mod_plucker,
)
from lgmirror.ladder import index_sets
from lgmirror.laurent import LaurentPoly
from lgmirror.rational import as_rational, parse

from generic_minors import generic_minors
from grassmann_point import GrassmannPoint, chart_membership, cyclic_pairs, random_point


def plucker_relation(i, j, k, l, n):
    """The three-term quadric on the chosen index quadruple."""
    if not 1 <= i < j < k < l <= n:
        raise ValueError(f"need 1 <= i < j < k < l <= n, got {(i, j, k, l)} with n={n}")

    def m(a, b):
        return LaurentPoly.var(pvar(*a)) * LaurentPoly.var(pvar(*b))

    return m((i, j), (k, l)) - m((i, k), (j, l)) + m((i, l), (j, k))


def equal_mod_plucker(e1, e2, n):
    """Equality of rational expressions as functions on the minor cone."""
    return parametrize(e1, n).equal(parametrize(e2, n))


def test_relation_shape():
    r = plucker_relation(1, 2, 3, 4, 4)
    assert str(r) == "p_1,2*p_3,4 - p_1,3*p_2,4 + p_1,4*p_2,3"
    r5 = plucker_relation(1, 2, 3, 5, 5)
    assert str(r5) == "p_1,2*p_3,5 - p_1,3*p_2,5 + p_1,5*p_2,3"


def test_relation_rejects_bad_indices():
    with pytest.raises(ValueError):
        plucker_relation(2, 1, 3, 4, 4)
    with pytest.raises(ValueError):
        plucker_relation(1, 2, 2, 4, 4)
    with pytest.raises(ValueError):
        plucker_relation(1, 2, 3, 5, 4)


def test_all_relations_vanish_under_parametrize():
    for n in range(4, 9):
        for quad in itertools.combinations(range(1, n + 1), 4):
            r = plucker_relation(*quad, n)
            assert parametrize(r, n).num.is_zero()


def test_parametrize_single_coordinate():
    assert str(parametrize(parse("p_1,2"), 4)) == "f_1"
    assert str(parametrize(parse("p_2,4"), 4)) == "x_2"
    f = parametrize(parse("p_1,3"), 4)
    assert f == parse("(x_3*f_1 + x_1*f_2)/x_2")
    assert str(f) == "f_1*x_2^-1*x_3 + f_2*x_1*x_2^-1"
    g = parametrize(parse("p_1,3/p_2,3"), 4)
    assert g == parse("(x_3*f_1 + x_1*f_2)/(x_2*f_2)")


@pytest.mark.parametrize("n", range(4, 9))
def test_fan_chart_pulls_back_to_generic_minors(n):
    # x_k = p_{k,n} and f_k = p_{k,k+1}, written as generic minors
    minors = generic_minors(n)
    chart = {f"x_{k}": minors[pvar(k, n)] for k in range(1, n)}
    chart.update({f"f_{k}": minors[pvar(k, k + 1)] for k in range(1, n - 1)})
    table = plucker._fan_chart(n)
    assert set(table) == set(minors)
    for name, value in table.items():
        assert value.is_polynomial()
        assert value.substitute(chart) == minors[name]


def test_parametrize_rejects_names_it_would_capture():
    # a chart coordinate is not a free variable: it would be captured
    with pytest.raises(ValueError, match="not a coordinate"):
        parametrize(parse("f_1"), 4)
    with pytest.raises(ValueError, match="not a coordinate"):
        equal_mod_plucker(parse("p_1,2"), parse("f_1"), 4)
    # nor is any other free name, the generic minor's entries included
    with pytest.raises(ValueError, match="not a coordinate"):
        equal_mod_plucker(parse("p_1,2"), parse("a1*b2 - a2*b1"), 4)
    # nor is a p-variable outside Gr(2,n)
    for name in ("p_1,5", "p_3,2"):
        with pytest.raises(ValueError, match="not a coordinate"):
            parametrize(parse(name), 4)
    assert parametrize(parse("p_1,5"), 5) == parse("x_1")
    assert parametrize(parse("q*T*p_1,2"), 4) == parse("q*T*f_1")


def test_parametrize_passes_only_the_quantum_names():
    # a holonomy left unbound by a chart dictionary is not a Plucker function
    for text in ("z1_2*p_1,2", "u1", "p_1,2 + y"):
        with pytest.raises(ValueError, match="not a coordinate of Gr"):
            parametrize(parse(text), 4)
    with pytest.raises(ValueError, match="z1_2"):
        sum_equal_mod_plucker([parse("z1_2*p_1,2")], [parse("p_1,2")], 4)
    assert parametrize(parse("q/T^4 + p_2,4"), 4) == parse("q/T^4 + x_2")


def test_parametrize_is_multiplicative():
    e1 = parse("p_1,3/p_2,3")
    e2 = parse("p_2,4/p_1,2")
    lhs = parametrize(e1 * e2, 4)
    rhs = parametrize(e1, 4) * parametrize(e2, 4)
    assert lhs.equal(rhs)
    assert parametrize(e1 + e2, 4).equal(parametrize(e1, 4) + parametrize(e2, 4))


def test_equal_mod_plucker_basic():
    assert equal_mod_plucker(parse("p_1,3*p_2,4"), parse("p_1,2*p_3,4 + p_1,4*p_2,3"), 4)
    assert not equal_mod_plucker(parse("p_1,2"), parse("p_1,3"), 4)


def test_equal_mod_plucker_is_equivalence():
    a = parse("p_1,3*p_2,4")
    b = parse("p_1,2*p_3,4 + p_1,4*p_2,3")
    c = b + as_rational(plucker_relation(1, 2, 3, 4, 4))
    assert equal_mod_plucker(a, a, 4)
    assert equal_mod_plucker(b, a, 4)
    assert equal_mod_plucker(a, c, 4) and equal_mod_plucker(b, c, 4)


def test_equal_mod_plucker_rejects_undefined():
    bad = as_rational(1) / as_rational(plucker_relation(1, 2, 3, 4, 4))
    with pytest.raises(ValueError, match="undefined"):
        equal_mod_plucker(bad, bad, 4)


def test_variable_names_roundtrip():
    assert pvar(1, 12) == "p_1,12"
    with pytest.raises(ValueError):
        pvar(3, 2)


def test_dictionary_gr24_immersed():
    cd = geometric_to_plucker(4, frozenset({(1, 2)}))
    assert str(cd.bindings["u1"]) == "p_1,3*p_2,3^-1"
    assert str(cd.bindings["v1"]) == "p_1,4^-1*p_2,4"
    assert str(cd.bindings["z1_1"]) == "p_2,3*p_3,4^-1"
    assert str(cd.bindings["z2_2"]) == "p_1,4*p_3,4^-1"
    assert cd.tpowers == {"u1": -1, "v1": 1, "z1_1": -2, "z2_2": -2}
    assert cd.q_power == 4


def test_dictionary_gr24_torus():
    cd = geometric_to_plucker(4, frozenset())
    assert str(cd.bindings["z1_1"]) == "p_2,3*p_3,4^-1"
    assert str(cd.bindings["z2_2"]) == "p_1,4*p_3,4^-1"
    assert set(cd.bindings) == {"z1_1", "z1_2", "z2_1", "z2_2"}
    assert cd.tpowers == {"z1_1": -2, "z1_2": -3, "z2_1": -1, "z2_2": -2}


def test_dictionary_rejects_bad_pair_set():
    with pytest.raises(ValueError):
        geometric_to_plucker(6, frozenset({(1, 2), (2, 3)}))


@pytest.mark.parametrize("n,i", [(4, 1), (5, 1), (6, 2), (7, 3)])
def test_uv_minus_one_closes_mod_plucker(n, i):
    cd = geometric_to_plucker(n, frozenset({(i, i + 1)}))
    uv = cd.bindings[f"u{i}"] * cd.bindings[f"v{i}"] - as_rational(1)
    b = n - i - 2
    expect = parse(f"(p_{b},{b + 1}*p_{b + 2},{n})/(p_{b},{n}*p_{b + 1},{b + 2})")
    assert equal_mod_plucker(uv, expect, n)


def test_random_point_exact_and_deterministic():
    pt = random_point(5, 42)
    assert pt.is_exact()
    assert pt.in_open_part()
    assert random_point(5, 42).values == pt.values
    assert random_point(5, 43).values != pt.values


@pytest.mark.parametrize("n", [5, 7, 12, 20])
def test_membership_reads_minors_without_building_them_all(n):
    pt = random_point(n, 42)
    assert any(chart_membership(pt, m) for m in index_sets(n)[1])
    assert "values" not in vars(pt)
    top, bottom = pt.top, pt.bottom
    eager = {
        (i, j): top[i - 1] * bottom[j - 1] - top[j - 1] * bottom[i - 1]
        for i, j in itertools.combinations(range(1, n + 1), 2)
    }
    assert pt.values == eager
    assert all(pt.minor(i, j) == v for (i, j), v in eager.items())


def test_points_are_equal_exactly_when_they_span_one_plane():
    a, b = random_point(5, 42), random_point(5, 43)
    assert a != b
    assert len({a, b}) == 2
    # (2 top + bottom/3, top - bottom) spans the plane of (top, bottom)
    top = [2 * x + y / 3 for x, y in zip(a.top, a.bottom)]
    bottom = [x - y for x, y in zip(a.top, a.bottom)]
    c = GrassmannPoint.from_vectors(5, top, bottom)
    assert c.top != a.top and c.bottom != a.bottom
    assert c == a
    assert hash(c) == hash(a)
    assert c != random_point(6, 42)


def test_covering_check_builds_no_full_minor_table(monkeypatch):
    # every row the sampler reads, rejected and engineered ones included,
    # computes the 2n - 3 minors the verdict needs and no other
    calls = []
    real = plucker._minors
    monkeypatch.setattr(plucker, "_minors", lambda top, bottom: calls.append((top, bottom)) or real(top, bottom))
    for n in (5, 12, 20):
        calls.clear()
        assert covering_check(n, 50, 42).ok
        assert len(calls) >= 50 + n - 3
        read = cyclic_pairs(n) + tuple((k, n) for k in range(2, n - 1))
        assert len(read) == 2 * n - 3
        for top, bottom in calls:
            pt = GrassmannPoint(n, tuple(top), tuple(bottom))
            assert real(top, bottom) == [pt.minor(i, j) for i, j in read]


@pytest.mark.parametrize("n,on_torus", [(4, 4), (5, 10), (6, 6), (7, 21), (8, 16)])
def test_vandermonde_points_in_charts(n, on_torus):
    # rows (zeta_a^(k-1)) and (zeta_b^(k-1)) over the roots of zeta^n = -1;
    # the torus chart holds the pairs whose ratio has order n, n*phi(n)/2 of them
    roots = [cmath.exp(1j * cmath.pi * (2 * k + 1) / n) for k in range(n)]
    points = [
        GrassmannPoint.from_vectors(n, [za**k for k in range(n)], [zb**k for k in range(n)])
        for za, zb in itertools.combinations(roots, 2)
    ]
    assert not any(pt.is_exact() for pt in points)
    assert all(pt.in_open_part() for pt in points)
    assert sum(chart_membership(pt, frozenset()) for pt in points) == on_torus
    maximal = index_sets(n)[1]
    assert all(any(chart_membership(pt, m) for m in maximal) for pt in points)


def test_from_vectors_rejects_divisor_points():
    # parallel first and second columns kill the frozen minor p_{1,2}
    with pytest.raises(ValueError, match="divisor"):
        GrassmannPoint.from_vectors(
            4, [Fraction(1), Fraction(2), Fraction(1), Fraction(3)],
            [Fraction(1), Fraction(2), Fraction(2), Fraction(1)],
        )


def test_chart_membership_examples():
    pt = random_point(5, 11)  # generic: every p nonzero almost surely
    assert all(pt.values[(k, 5)] != 0 for k in (2, 3))
    all_sets = [frozenset(), frozenset({(1, 2)}), frozenset({(2, 3)})]
    for s in all_sets:
        assert chart_membership(pt, s)
    # explicit plane with p_{1,3} = 0 but p_{2,4} != 0, off the divisor
    special = GrassmannPoint.from_vectors(
        4, [Fraction(1), Fraction(1), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(1), Fraction(3)],
    )
    assert special.values[(1, 3)] == 0 and special.values[(2, 4)] != 0
    assert chart_membership(special, frozenset({(1, 2)}))
    assert chart_membership(special, frozenset())  # the n=4 constraint is only p_{2,4}


def test_chart_membership_monotone_in_pair_set():
    # larger pair sets waive constraints, so membership propagates upward
    n = 6
    for k in (2, 3, 4):
        pt = GrassmannPoint.from_vectors(
            n,
            [Fraction(1) if i in (k, n) else Fraction(i) for i in range(1, n + 1)],
            [Fraction(0) if i in (k, n) else Fraction(1) for i in range(1, n + 1)],
        )
        small = [s for s in _index_sets6() if chart_membership(pt, s)]
        for s in small:
            for t in _index_sets6():
                if s <= t:
                    assert chart_membership(pt, t)


def _index_sets6():
    return [
        frozenset(),
        frozenset({(1, 2)}),
        frozenset({(2, 3)}),
        frozenset({(3, 4)}),
        frozenset({(1, 2), (3, 4)}),
    ]


def test_consecutive_vanishing_forces_divisor():
    # columns k, k+1 both parallel to column n force a frozen minor to zero
    n = 6
    for k in (2, 3):
        top = [Fraction(1) if i in (k, k + 1, n) else Fraction(i) for i in range(1, n + 1)]
        bottom = [Fraction(0) if i in (k, k + 1, n) else Fraction(1) for i in range(1, n + 1)]
        with pytest.raises(ValueError, match="divisor"):
            GrassmannPoint.from_vectors(n, top, bottom)


@pytest.mark.parametrize("n", [5, 6])
def test_covering_sampling(n):
    rep = covering_check(n, 1000, 20_000 + n)
    assert rep.ok
    assert rep.samples == 1000
    assert rep.failures == [] and rep.degenerate_failures == []


@pytest.mark.parametrize("n", range(4, 15))
def test_covering_certificate(n):
    rows = covering_certificate(n)
    assert rows, "certificate must consider at least the all-nonzero pattern"
    assert all(row["covered"] for row in rows)
    patterns = [tuple(row["vanishing"]) for row in rows]
    # independent sets in the path on 2..n-2, the empty one included
    ks = list(range(2, n - 1))
    expected = []
    for size in range(len(ks) + 1):
        for zeros in itertools.combinations(ks, size):
            if all(b - a > 1 for a, b in zip(zeros, zeros[1:])):
                expected.append(zeros)
    assert patterns == expected
    # the listed charts are exactly the maximal sets holding the pattern's pairs
    _, maximal = index_sets(n)
    for row in rows:
        pairs = {(n - k - 1, n - k) for k in row["vanishing"]}
        assert row["charts"] == [sorted(m) for m in maximal if pairs <= m]


def _point_certificate(n):
    """Reference: one engineered point per vanishing pattern, tested against
    every maximal chart."""
    _, maximal = index_sets(n)
    ks = range(2, n - 1)
    rows = []
    for size in range(len(ks) + 1):
        for zeros in itertools.combinations(ks, size):
            if any(b - a == 1 for a, b in zip(zeros, zeros[1:])):
                continue
            pt = GrassmannPoint.from_vectors(n, *plucker._degenerate_point(n, set(zeros)))
            assert [k for k in ks if pt.values[(k, n)] == 0] == list(zeros)
            covered_by = [m for m in maximal if chart_membership(pt, m)]
            rows.append(
                {
                    "vanishing": list(zeros),
                    "covered": bool(covered_by),
                    "charts": [sorted(m) for m in covered_by],
                }
            )
    return rows


@pytest.mark.parametrize("n", range(4, 8))
def test_covering_certificate_matches_engineered_points(n):
    assert covering_certificate(n) == _point_certificate(n)


def test_covering_rejects_a_point_that_does_not_vanish(monkeypatch):
    # the check must hold under python -O, so it may not be an assert;
    # p_{i,j} = i j (j - i) on these rows, never 0
    rows = lambda n, zeros: (list(range(1, n + 1)), [i * i for i in range(1, n + 1)])
    monkeypatch.setattr(plucker, "_degenerate_point", rows)
    with pytest.raises(RuntimeError, match="vanish"):
        covering_check(5, 1, 0)


@pytest.mark.parametrize("n", range(4, 13))
def test_sampler_agrees_with_the_fraction_reference(n, monkeypatch):
    # every row the sampler draws, divided by lcm(1..9) = 2520 back to the
    # sampled fractions, gets the same open-part decision and the same
    # chart memberships from the reference point
    fractions = [Fraction(a, b) for a in range(-9, 10) if a for b in range(1, 10)]
    assert sorted(Fraction(v, 2520) for v in plucker._ENTRIES) == sorted(fractions)
    seen = []
    real = plucker._pattern

    def spy(n, top, bottom):
        seen.append((top, bottom, real(n, top, bottom)))
        return seen[-1][2]

    monkeypatch.setattr(plucker, "_pattern", spy)
    maximal = index_sets(n)[1]
    waivers = plucker._chart_waivers(n)
    rejected = 0
    for seed in range(5):
        seen.clear()
        report = covering_check(n, 300, seed)
        assert report.ok
        open_rows = [row for row in seen if row[2] is not None]
        assert len(open_rows) == 300 + n - 3  # the samples, then the engineered points
        assert report.vanishing == sum(bool(row[2]) for row in open_rows[:300])
        rejected += len(seen) - len(open_rows)
        for top, bottom, pattern in seen:
            pt = GrassmannPoint(n, *(tuple(Fraction(v, 2520) for v in row) for row in (top, bottom)))
            assert (pattern is not None) == pt.in_open_part()
            if pattern is not None:
                holding = plucker._charts_holding(waivers, frozenset(pattern))
                assert [m in holding for m in maximal] == [chart_membership(pt, m) for m in maximal]
                assert [k for k in range(2, n - 1) if not pt.minor_nonzero(k, n)] == list(pattern)
    assert rejected  # rows on the divisor were drawn and drawn again


def test_covering_gives_up_on_a_stream_of_divisor_rows(monkeypatch):
    monkeypatch.setattr(plucker, "_pattern", lambda n, top, bottom: None)
    with pytest.raises(RuntimeError, match="off the divisor"):
        covering_check(5, 1, 0)


def test_a_shifted_waiver_fails_the_sampled_verdict_only(monkeypatch, capsys, tmp_path):
    # the waiver moved from p_{n-i-1,n} to p_{n-i,n}: the engineered point with
    # p_{2,6} = 0 then lies in no maximal chart, while the case analysis,
    # which reads only pair sets, still passes
    monkeypatch.setattr(plucker, "_waived", lambda n, pair_set: frozenset(n - i for i, _ in pair_set))
    assert covering_check(6, 1000, 42).degenerate_failures
    path = tmp_path / "run.json"
    assert main(["verify", "covering", "--n", "6", "--json", str(path)]) == 1
    assert "FAIL  random-samples" in capsys.readouterr().out
    (report,) = json.loads(path.read_text())["reports"]
    verdicts = {v["name"]: v["passed"] for v in report["verdicts"]}
    assert verdicts == {"random-samples": False, "case-analysis": True}


def test_cyclic_pairs():
    assert cyclic_pairs(4) == ((1, 2), (2, 3), (3, 4), (1, 4))


def test_fan_chart_is_built_once_per_n_and_read_only():
    plucker._fan_chart.cache_clear()
    first = plucker._fan_chart(6)
    for _ in range(3):
        parametrize(parse("p_1,2*p_3,4/p_2,5"), 6)
    info = plucker._fan_chart.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert plucker._fan_chart(6) is first
    with pytest.raises(TypeError):
        first[pvar(1, 2)] = as_rational(0)
