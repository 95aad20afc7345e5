"""Torus, surgered, chart, and homogeneous-coordinate potentials."""

from collections import Counter
from fractions import Fraction

import pytest

from lgmirror.atlas import gr_product_atlas, og15_atlas
from lgmirror.ladder import (
    chart_coordinates,
    diagram_from_pairs,
    holonomies,
    holonomy,
    index_sets,
    tight_edge_indices,
)
from lgmirror.novikov import novikov_expand
from lgmirror import potentials
from lgmirror.plucker import (
    geometric_to_plucker,
    parametrize,
    pvar,
    sum_equal_mod_plucker,
)
from lgmirror.potentials import (
    Potential,
    gc_torus_potential,
    immersed_potential,
    immersed_terms,
    og15_recovery_bindings,
    og_bridge,
    og_potentials,
    restricted_terms,
    rietsch_gr,
    verify_rietsch_identity,
)
from lgmirror.rational import RationalFunction, as_rational, parse

import gr24_hand_written
import torus_by_hand
from generic_minors import generic_sum_equal
from gr24_hand_written import renamed


def multiset(terms):
    return Counter(as_rational(t) for t in terms)


def torus_terms(n):
    return list(gc_torus_potential(n).terms)


def msum(terms):
    total = as_rational(0)
    for t in terms:
        total = total + as_rational(t)
    return total


def dressed(expr, tpowers):
    """``expr`` with each variable x of ``tpowers`` rescaled to T^k*x."""
    t = RationalFunction.var("T")
    return expr.substitute({x: t**k * RationalFunction.var(x) for x, k in tpowers.items()})


def staircase(n, pair_set=frozenset()):
    """The dressing that gives every potential term T-valuation one: the
    chart dictionary's T-powers, negated."""
    return {name: -k for name, k in geometric_to_plucker(n, pair_set).tpowers.items()}


# -- torus potential -------------------------------------------------------


@pytest.mark.parametrize("n", range(4, 9))
def test_torus_term_count(n):
    terms = torus_terms(n)
    assert len(terms) == 3 * n - 6
    # 2 boundary facets, 2 per interior column step, one per mixed edge
    assert len(terms) == 2 + 2 * (n - 3) + (n - 2)


def test_torus_display_order_n4():
    # facet order: row-1 steps, row-2 steps, rungs, floor
    expected = ["z1_2/z1_1", "T^4/z1_2", "z2_2/z2_1", "z1_1/z2_1", "z1_2/z2_2", "z2_1"]
    assert torus_terms(4) == [parse(s) for s in expected]


def test_torus_display_order_n6():
    expected = [
        "z1_2/z1_1",
        "z1_3/z1_2",
        "z1_4/z1_3",
        "T^6/z1_4",
        "z2_2/z2_1",
        "z2_3/z2_2",
        "z2_4/z2_3",
        "z1_1/z2_1",
        "z1_2/z2_2",
        "z1_3/z2_3",
        "z1_4/z2_4",
        "z2_1",
    ]
    assert torus_terms(6) == [parse(s) for s in expected]


@pytest.mark.parametrize("n", range(4, 31))
def test_facet_monomials_match_the_hand_table(n):
    # the hand table lists its keys in facet order, so the lists agree
    # term by term, and so as multisets
    for quantum, name in ((parse(f"T^{n}"), "T"), (parse("q"), "q")):
        by_hand = list(torus_by_hand.torus_terms(n, quantum).values())
        assert list(potentials._facet_terms(n, name)) == by_hand
    assert torus_terms(n) == list(potentials._facet_terms(n, "T"))


@pytest.mark.parametrize("n", range(4, 31))
def test_pair_facets_are_the_hand_keys(n):
    by_hand = torus_by_hand.torus_terms(n, parse(f"T^{n}"))
    keys = list(by_hand)
    for i in range(1, n - 2):
        six = torus_by_hand.pair_keys(i)
        # the surgery keeps exactly the facets off the six keys, in order
        kept = immersed_terms(n, {(i, i + 1)})[:-4]
        assert kept == [t for key, t in by_hand.items() if key not in six]
        # the merged facets are the middle four keys: the tight set of the
        # pair's face, rungs (a, b') apart from middle-rail segments (c, d)
        face = diagram_from_pairs(n, {(i, i + 1)})
        assert tight_edge_indices(face) == {keys.index(key) for key in six[1:5]}
        rungs, rails = potentials._merged_facets(n, i)
        assert {keys[k] for k in rungs} == {six[1], six[2]}
        assert {keys[k] for k in rails} == {six[3], six[4]}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_torus_terms_are_laurent_monomials(n):
    for t in torus_terms(n):
        assert t.is_polynomial()
        assert len(t.num.terms) == 1


def test_torus_n5_has_nine_terms():
    assert len(torus_terms(5)) == 9


def test_torus_rejects_small_n():
    with pytest.raises(ValueError):
        torus_terms(3)


def test_torus_potential_metadata():
    p = gc_torus_potential(6)
    assert p.chart == "torus"
    assert p.model == "gr(2,6)"
    assert p.variables == (
        "z1_1", "z1_2", "z1_3", "z1_4", "z2_1", "z2_2", "z2_3", "z2_4",
    )
    assert p.expr.equal(msum(torus_terms(6)))


@pytest.mark.parametrize("n", [*range(4, 11), "og15"])
def test_expr_is_the_term_by_term_sum_in_its_term_order(n):
    # expr normalizes once; folding the terms with + normalizes every partial
    # sum.  The numeric solver reads the numerator's terms in order, so the
    # order must agree as well as the canonical form
    atlas = og15_atlas() if n == "og15" else gr_product_atlas(n)
    for name, p in atlas.potentials.items():
        fold = sum(p.terms, RationalFunction.constant(0))
        assert p.expr == fold, name
        assert p.expr.num.vars == fold.num.vars, name
        assert list(p.expr.num.terms.items()) == list(fold.num.terms.items()), name
        assert [f.key() for f, _ in p.expr.factors] == [f.key() for f, _ in fold.factors], name


# -- surgered potentials ---------------------------------------------------


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_surgery_on_empty_set_is_identity(n):
    assert immersed_terms(n, frozenset()) == torus_terms(n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_surgered_term_count(n):
    valid, _ = index_sets(n)
    for pairs in valid:
        assert len(immersed_terms(n, pairs)) == (3 * n - 6) - 2 * len(pairs)


def test_surgered_n6_single_pair_frozen():
    expected = [
        "u2",
        "u2*z1_2/z2_3",
        "v2*z2_3/z2_1",
        "v2*z1_4/((u2*v2 - 1)*z1_2)",
        "T^6/z1_4",
        "z1_4/z2_4",
        "z2_4/z2_3",
        "z1_2/z1_1",
        "z1_1/z2_1",
        "z2_1",
    ]
    assert multiset(immersed_terms(6, {(2, 3)})) == multiset(map(parse, expected))


def test_surgered_n6_double_pair_frozen():
    expected = [
        "u1",
        "u1*z1_1/z2_2",
        "v1*z2_2",
        "v1*z1_3/((u1*v1 - 1)*z1_1)",
        "u3",
        "u3*z1_3/z2_4",
        "v3*z2_4/z2_2",
        "v3*T^6/((u3*v3 - 1)*z1_3)",
    ]
    assert multiset(immersed_terms(6, {(1, 2), (3, 4)})) == multiset(map(parse, expected))


def test_surgered_n4_frozen():
    expected = [
        "u1",
        "u1*z1_1/z2_2",
        "v1*z2_2",
        "v1*T^4/((u1*v1 - 1)*z1_1)",
    ]
    assert multiset(immersed_terms(4, {(1, 2)})) == multiset(map(parse, expected))


def test_invalid_pair_sets_raise():
    with pytest.raises(ValueError):
        immersed_terms(6, {(1, 2), (2, 3)})
    with pytest.raises(ValueError):
        immersed_terms(5, {(3, 4)})
    with pytest.raises(ValueError):
        immersed_terms(6, {(0, 1)})


def test_immersed_chart_variables():
    assert chart_coordinates(6, {(2, 3)}, "immersed")[1] == (
        "u2", "v2", "z1_1", "z1_2", "z1_4", "z2_1", "z2_3", "z2_4",
    )
    assert chart_coordinates(6, {(1, 2), (3, 4)}, "immersed")[1] == (
        "u1", "v1", "u3", "v3", "z1_1", "z1_3", "z2_2", "z2_4",
    )


def test_immersed_chart_labels():
    assert immersed_potential(6, frozenset()).chart == "torus"
    assert immersed_potential(6, {(2, 3)}).chart == "immersed[2,3]"
    assert immersed_potential(6, {(1, 2), (3, 4)}).chart == "immersed[1,2;3,4]"


def test_n4_surgered_chart_is_local_model():
    terms = immersed_terms(4, {(1, 2)})
    # the quantum parameter sits on the self-intersection correction term
    assert parse("v1*T^4/((u1*v1 - 1)*z1_1)") in multiset(terms)
    local = renamed(gr24_hand_written.POTENTIALS["immersed"])
    assert msum(terms).substitute({"T": 1}).equal(local)


# -- local model charts ----------------------------------------------------


def test_local_model_charts_frozen():
    atlas = gr_product_atlas(4)
    for kind, text in gr24_hand_written.POTENTIALS.items():
        p = atlas.potentials[f"{kind}[1,2]"]
        assert p.expr.substitute({"T": 1}).equal(renamed(text)), kind
        assert p.chart == f"{kind}[1,2]"
        assert p.model == "gr(2,4)"
    assert atlas.potentials["immersed[1,2]"].variables == ("u1", "v1", "z1_1", "z2_2")


def test_local_model_wall_crossings():
    potentials = gr_product_atlas(4).potentials
    immersed = potentials["immersed[1,2]"].expr
    into_chekanov = {"x1_1": parse("u1*v1 - 1"), "y1_1": parse("u1")}
    assert potentials["chekanov[1,2]"].expr.substitute(into_chekanov).equal(immersed)
    into_clifford = {"x1_2": parse("u1*v1 - 1"), "y1_2": parse("1/v1")}
    assert potentials["clifford[1,2]"].expr.substitute(into_clifford).equal(immersed)


def test_smoothing_bridge_matches_torus():
    # the second smoothing sits inside the torus chart: rescaling its
    # coordinates by their T-depths turns one potential into the other
    clifford = parse(gr24_hand_written.POTENTIALS["clifford"])
    lhs = parse("T") * dressed(clifford, {"x2": 0, "y2": -1, "z2": -2, "w2": -2})
    bridge = {
        "z1_1": parse("z2"),
        "z1_2": parse("x2*y2*z2"),
        "z2_1": parse("w2/y2"),
        "z2_2": parse("w2"),
    }
    rhs = gc_torus_potential(4).expr.substitute(bridge)
    assert lhs.equal(rhs)
    assert rhs.equal(
        parse("T^4/(x2*y2*z2) + y2 + x2*y2 + x2*y2*z2/w2 + y2*z2/w2 + w2/y2")
    )


# -- quadric threefold charts ----------------------------------------------


def test_quadric_charts_frozen():
    og = og_potentials()
    assert og.immersed.expr.equal(parse("v + v*z0 + u^2/(z0*(u*v - 1))"))
    assert og.chekanov.expr.equal(parse("1/y1 + x1/y1 + z1/y1 + x1*z1/y1 + y1^2/(x1*z1)"))
    assert og.clifford.expr.equal(parse("1/y2 + z2/y2 + y2^2*(x2 + 1)^2/(x2*z2)"))
    assert og.toric_fiber.expr.equal(parse("1/y1_3 + y1_3/y1_2 + (y1_2/y1_1)*(1 + y1_1)^2"))
    assert og.rietsch.expr.equal(parse("p1/p0 + p2^2/(p1*p2 - p0*p3) + q*p1/p3"))
    assert all(p.model == "og(1,5)" for p in og)


def test_quadric_wall_crossings():
    og = og_potentials()
    into_chekanov = {"x1": parse("u*v - 1"), "y1": parse("u"), "z1": parse("z0")}
    assert og.chekanov.expr.substitute(into_chekanov).equal(og.immersed.expr)
    into_clifford = {"x2": parse("u*v - 1"), "y2": parse("1/v"), "z2": parse("z0")}
    assert og.clifford.expr.substitute(into_clifford).equal(og.immersed.expr)


def test_quadric_bridge_roundtrip():
    og = og_potentials()
    assert og.clifford.expr.substitute(og_bridge()).equal(og.toric_fiber.expr)
    inverse = {"y1_1": parse("x2"), "y1_2": parse("y2^2/z2"), "y1_3": parse("y2")}
    assert og.toric_fiber.expr.substitute(inverse).equal(og.clifford.expr)


def test_quadric_recovery_from_all_charts():
    og = og_potentials()
    bindings = og15_recovery_bindings()
    target = og.rietsch.expr.substitute({"q": 1})
    for chart in (og.immersed, og.chekanov, og.clifford):
        assert chart.expr.substitute(bindings).equal(target)


def test_quadric_correction_term_expansion():
    term = parse("u^2/(z0*(u*v - 1))")
    series = novikov_expand(term, {"u": 1, "v": 1, "z0": 0}, 5)
    assert series.exponents() == (Fraction(2), Fraction(4))
    assert as_rational(series.coefficient(2)).equal(parse("-u^2/z0"))
    assert as_rational(series.coefficient(4)).equal(parse("-u^3*v/z0"))


# -- homogeneous-coordinate potentials -------------------------------------


def test_homogeneous_potential_frozen_small():
    assert rietsch_gr(4).expr.equal(
        parse("q*p_2,4/p_1,2 + p_1,3/p_2,3 + p_2,4/p_3,4 + p_1,3/p_1,4")
    )
    assert rietsch_gr(5).expr.equal(
        parse("q*p_2,5/p_1,2 + p_1,3/p_2,3 + p_2,4/p_3,4 + p_3,5/p_4,5 + p_1,4/p_1,5")
    )


@pytest.mark.parametrize("n", range(4, 9))
def test_homogeneous_denominators_are_frozen_coordinates(n):
    num = rietsch_gr(n).expr.num
    assert rietsch_gr(n).expr.is_polynomial()
    neg = {
        v
        for exps in num.terms
        for v, k in zip(num.vars, exps)
        if k < 0
    }
    expected = {pvar(j, j + 1) for j in range(1, n)} | {pvar(1, n)}
    assert neg == expected


def test_restricted_empty_n4_frozen():
    expected = [
        "p_2,4/p_3,4",
        "q*p_2,4/p_1,2",
        "p_1,2*p_3,4/(p_2,4*p_2,3)",
        "p_1,4/p_2,4",
        "p_2,3/p_2,4",
        "p_1,2*p_3,4/(p_2,4*p_1,4)",
    ]
    terms = restricted_terms(4, frozenset())
    assert multiset(terms) == multiset(map(parse, expected))
    assert parametrize(msum(terms), 4).equal(parametrize(rietsch_gr(4).expr, 4))


def test_restricted_empty_n6_frozen():
    expected = [
        "q*p_2,6/p_1,2",
        "p_1,2*p_3,6/(p_2,6*p_2,3)",
        "p_1,6/p_2,6",
        "p_2,3*p_4,6/(p_3,6*p_3,4)",
        "p_2,6/p_3,6",
        "p_3,4*p_5,6/(p_4,6*p_4,5)",
        "p_3,6/p_4,6",
        "p_1,2*p_5,6/(p_2,6*p_1,6)",
        "p_2,3*p_5,6/(p_3,6*p_2,6)",
        "p_3,4*p_5,6/(p_4,6*p_3,6)",
        "p_4,5/p_4,6",
        "p_4,6/p_5,6",
    ]
    assert multiset(restricted_terms(6, frozenset())) == multiset(map(parse, expected))


def test_restricted_single_pair_n6_frozen():
    expected = [
        "q*p_2,6/p_1,2",
        "p_1,2*p_3,6/(p_2,6*p_2,3)",
        "p_1,6/p_2,6",
        "p_2,4/p_3,4",
        "p_3,4*p_5,6/(p_4,6*p_4,5)",
        "p_3,6/p_4,6",
        "p_1,2*p_5,6/(p_2,6*p_1,6)",
        "p_2,4*p_5,6/(p_2,6*p_4,6)",
        "p_4,5/p_4,6",
        "p_4,6/p_5,6",
    ]
    assert multiset(restricted_terms(6, {(2, 3)})) == multiset(map(parse, expected))


def test_restricted_double_pair_n6_frozen():
    expected = [
        "q*p_2,6/p_1,2",
        "p_1,3/p_2,3",
        "p_2,3*p_4,6/(p_3,6*p_3,4)",
        "p_2,6/p_3,6",
        "p_3,5/p_4,5",
        "p_1,3*p_5,6/(p_1,6*p_3,6)",
        "p_3,5/p_3,6",
        "p_4,6/p_5,6",
    ]
    assert multiset(restricted_terms(6, {(1, 2), (3, 4)})) == multiset(map(parse, expected))


def test_restricted_maximal_n4_equals_homogeneous_verbatim():
    # for the largest chart of the smallest model the clearing terminates
    # exactly on the homogeneous potential, term by term
    expected = [
        "q*p_2,4/p_1,2",
        "p_1,3/p_2,3",
        "p_2,4/p_3,4",
        "p_1,3/p_1,4",
    ]
    assert multiset(restricted_terms(4, {(1, 2)})) == multiset(map(parse, expected))


def _exponent(t, name):
    # power of one variable in a Laurent monomial
    assert t.is_polynomial() and len(t.num.terms) == 1
    (exps,) = t.num.terms
    return dict(zip(t.num.vars, exps)).get(name, 0)


def _merge_search_terms(n, pair_set):
    """Reference for the cleared potential: per pair, every pair of terms
    with a negative power of the cleared coordinate whose sum times the
    relation ratio is a Laurent monomial free of that negative power."""
    q = parse("q")
    push = geometric_to_plucker(n, frozenset()).bindings
    terms = [t.substitute(push) for t in torus_by_hand.torus_terms(n, q).values()]
    for i, _ in sorted(pair_set):
        b = n - i - 2
        cleared = pvar(n - i - 1, n)

        def p(j, k):
            return parse(pvar(j, k))

        binom = p(b, b + 1) * p(b + 2, n) + p(b, n) * p(b + 1, b + 2)
        ratio = p(b, b + 2) * p(b + 1, n) / binom
        keep = [t for t in terms if _exponent(t, cleared) >= 0]
        bad = [t for t in terms if _exponent(t, cleared) < 0]
        merged = []
        while bad:
            t1 = bad.pop(0)
            hits = []
            for k, t2 in enumerate(bad):
                rep = (t1 + t2) * ratio
                if rep.is_polynomial() and len(rep.num.terms) == 1:
                    if _exponent(rep, cleared) >= 0:
                        hits.append((k, rep))
            assert len(hits) == 1, (n, sorted(pair_set), cleared, len(hits))
            k, rep = hits[0]
            del bad[k]
            merged.append(rep)
        terms = keep + merged
    return terms


@pytest.mark.parametrize("n", range(4, 11))
def test_restricted_closed_form_matches_merge_search(n):
    for pair_set in index_sets(n)[0]:
        terms = restricted_terms(n, pair_set)
        assert multiset(terms) == multiset(_merge_search_terms(n, pair_set))
        assert len(terms) == (3 * n - 6) - 2 * len(pair_set)
        cleared = [pvar(n - i - 1, n) for i, _ in pair_set]
        for t in terms:
            assert all(_exponent(t, c) >= 0 for c in cleared), (n, sorted(pair_set), t)


def _remove_by_value(terms, targets):
    for target in targets:
        terms.remove(next(t for t in terms if t == target))


def _reference_surgeries(n, pair_set):
    """Reference for both surgeries: each removed term is rebuilt from the
    z-variables and found among the remaining terms by value."""
    q, t_n = parse("q"), parse(f"T^{n}")

    def p(j, k):
        return parse(pvar(j, k))

    floer = list(torus_by_hand.torus_terms(n, t_n).values())
    push = geometric_to_plucker(n, frozenset()).bindings
    pushed = {t: t.substitute(push) for t in torus_by_hand.torus_terms(n, q).values()}
    homogeneous = list(pushed.values())
    for i, _ in sorted(pair_set):
        _remove_by_value(floer, torus_by_hand.removed_by_value(n, i, t_n))
        floer += potentials._inserted_terms(n, i)
        b = n - i - 2
        binom = p(b, b + 1) * p(b + 2, n) + p(b, n) * p(b + 1, b + 2)
        ratio = p(b, b + 2) * p(b + 1, n) / binom
        a, b1, c, d = (pushed[t] for t in torus_by_hand.removed_by_value(n, i, q)[1:5])
        _remove_by_value(homogeneous, (a, b1, c, d))
        homogeneous += [(a + b1) * ratio, (c + d) * ratio]
    return floer, homogeneous


@pytest.mark.parametrize("n", range(4, 11))
def test_surgery_by_key_matches_removal_by_value(n):
    for pair_set in index_sets(n)[0]:
        floer, homogeneous = _reference_surgeries(n, pair_set)
        assert immersed_terms(n, pair_set) == floer, (n, sorted(pair_set))
        assert restricted_terms(n, pair_set) == homogeneous, (n, sorted(pair_set))


# -- the identity between the two sides ------------------------------------


@pytest.mark.parametrize(
    "model, pairs",
    [
        ("gr(2,4)", frozenset()),
        ("gr(2,4)", frozenset({(1, 2)})),
        ("gr(2,5)", frozenset({(1, 2)})),
        ("gr(2,5)", frozenset({(2, 3)})),
        ("gr(2,6)", frozenset()),
        ("gr(2,6)", frozenset({(2, 3)})),
        ("gr(2,6)", frozenset({(1, 2), (3, 4)})),
    ],
)
def test_identity_grassmannian(model, pairs):
    assert verify_rietsch_identity(model, pairs)


def _identity_sides(n, pair_set):
    """The two sides verify_rietsch_identity compares, in Plucker ratios."""
    dic = geometric_to_plucker(n, pair_set)
    floer = [t.substitute(dic.bindings) for t in immersed_terms(n, pair_set)]
    t_n = parse(f"T^{n}")
    target = [t.substitute({"q": t_n}) for t in restricted_terms(n, pair_set)]
    return floer, target


@pytest.mark.parametrize("n", range(4, 9))
def test_fan_chart_and_generic_minors_agree_on_the_identity(n):
    rietsch = potentials._rietsch_terms(n)
    for pair_set in index_sets(n)[0]:
        floer, target = _identity_sides(n, pair_set)
        restricted = restricted_terms(n, pair_set)
        for check in (sum_equal_mod_plucker, generic_sum_equal):
            assert check(floer, target, n), (check.__name__, sorted(pair_set))
            assert check(restricted, rietsch, n), (check.__name__, sorted(pair_set))


@pytest.mark.parametrize("check", [sum_equal_mod_plucker, generic_sum_equal])
@pytest.mark.parametrize("n", [6, 10, 16])
def test_dropped_or_doubled_term_fails_on_both_routes(n, check):
    maximal = frozenset((i, i + 1) for i in range(1, n - 1, 2))
    floer, target = _identity_sides(n, maximal)
    assert not check(floer, target[1:], n)
    assert not check(floer + floer[-1:], target, n)


def test_identity_quadric():
    assert verify_rietsch_identity("og15")


def test_unknown_model_raises():
    with pytest.raises(ValueError):
        verify_rietsch_identity("flag(3)")


def test_model_parsing_is_flexible():
    assert verify_rietsch_identity("GR(2, 4)", frozenset({(1, 2)}))
    assert verify_rietsch_identity(" og(1,5) ")
    with pytest.raises(ValueError):
        verify_rietsch_identity("gr(2,3)")


# -- valuation dressing ----------------------------------------------------


def test_staircase_map_values():
    assert staircase(4) == {"z1_1": 2, "z1_2": 3, "z2_1": 1, "z2_2": 2}
    assert staircase(6, {(2, 3)}) == {
        "u2": 1,
        "v2": -1,
        "z1_1": 2,
        "z1_2": 3,
        "z1_4": 5,
        "z2_1": 1,
        "z2_3": 3,
        "z2_4": 4,
    }


@pytest.mark.parametrize("n", [5, 6])
def test_staircase_dressing_torus(n):
    pot = gc_torus_potential(n)
    weights = {v: 0 for v in pot.variables}
    series = novikov_expand(dressed(pot.expr, staircase(n)), weights, 3)
    assert series.exponents() == (Fraction(1),)
    expected = msum(t.substitute({"T": 1}) for t in torus_terms(n))
    assert as_rational(series.coefficient(1)).equal(expected)


@pytest.mark.parametrize(
    "pairs, lead",
    [
        (frozenset({(2, 3)}), Fraction(1)),
        (frozenset({(1, 2), (3, 4)}), Fraction(3, 2)),
    ],
)
def test_staircase_dressing_immersed(pairs, lead):
    pot = immersed_potential(6, pairs)
    weights = {
        v: Fraction(1, 2) if v[0] in "uv" else Fraction(0) for v in pot.variables
    }
    series = novikov_expand(dressed(pot.expr, staircase(6, pairs)), weights, 3)
    assert series.exponents()[0] == lead
    assert all(e > 0 for e in series.exponents())


@pytest.mark.parametrize("n", range(4, 13))
def test_staircase_holonomy_powers_are_the_literal_staircase(n):
    # read from monotone_point, they are -(j+1) on row 1 and -j on row 2
    literal = {
        holonomy(row, j): -(j + 1) if row == 1 else -j
        for row in (1, 2)
        for j in range(1, n - 1)
    }
    for pair_set in index_sets(n)[0]:
        tpowers = geometric_to_plucker(n, pair_set).tpowers
        kept = holonomies(n, pair_set)
        assert {h: tpowers[h] for h in kept} == {h: literal[h] for h in kept}
        assert all(type(k) is int for k in tpowers.values())


def _valuation_defects(n, pair_set, terms):
    """The terms that, dressed by the staircase with u_i and v_i at
    valuation 1/2, have no positive T-valuation, or, free of u and v, a
    valuation other than 1."""
    tmap = staircase(n, pair_set)
    weights = {v: Fraction(1, 2) if v[0] in "uv" else Fraction(0) for v in tmap}
    defects = []
    for t in terms:
        lead = novikov_expand(dressed(t, tmap), weights, 3).exponents()[0]
        torus = not any(v[0] in "uv" for v in t.variables())
        if lead <= 0 or (torus and lead != 1):
            defects.append(t)
    return defects


@pytest.mark.parametrize("n", range(4, 11))
def test_staircase_valuations_on_every_pair_set(n):
    scale = parse("T^-2")
    for pair_set in index_sets(n)[0]:
        terms = immersed_terms(n, pair_set)
        assert _valuation_defects(n, pair_set, terms) == [], sorted(pair_set)
        # the negative control: each inserted term, scaled by T^-2, is flagged
        scaled = [t * scale for t in terms[len(terms) - 4 * len(pair_set):]]
        assert _valuation_defects(n, pair_set, scaled) == scaled


# -- container behaviour ---------------------------------------------------


def test_potential_rejects_stray_variables():
    with pytest.raises(ValueError):
        Potential([parse("a"), parse("b")], "chart", ("a",), "model")


def test_potential_coerces_variable_list():
    p = Potential([parse("a")], "chart", ["a"], "model")
    assert p.variables == ("a",)
    assert p.terms == (parse("a"),)
