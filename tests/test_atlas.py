"""Chart gluing: transitions, atlases, cocycle and transport checks."""

from dataclasses import replace

import pytest

from lgmirror.atlas import (
    Atlas,
    Chart,
    Transition,
    compose,
    conjugate_chart,
    extend_identity,
    gauge_automorphism,
    gr24_atlas,
    gr_product_atlas,
    identity_transition,
    local_model_atlas,
    local_transitions,
    _local_inverses,
    _renamed,
    og15_atlas,
    product_charts,
    product_transition,
    verify_cocycle,
    verify_potential_transport,
)
from lgmirror.ladder import index_sets
from lgmirror.plucker import geometric_to_plucker
from lgmirror.potentials import gc_torus_potential, immersed_potential, immersed_terms
from lgmirror.rational import RationalFunction, over_common_denominator, parse

from gr24_hand_written import renamed_transitions


@pytest.fixture(scope="module")
def tree6():
    return gr_product_atlas(6)


# -- the node wall crossings ----------------------------------------------


def test_local_transitions_canonical():
    t01, t02, t21 = local_transitions()
    assert (t01.source, t01.target) == ("immersed", "chekanov")
    assert t01.bindings["x1"].equal(parse("u*v - 1"))
    assert t01.bindings["y1"].equal(parse("u"))
    assert t02.bindings["y2"].equal(parse("1/v"))
    assert t21.bindings["y1"].equal(parse("y2*(1 + x2)"))
    assert any(c.equal(parse("u*v - 1")) for c in t01.constraints)


def test_degenerate_slice_hits_minus_one():
    # collapsing the second node coordinate pins the first chart coordinate
    t01 = local_transitions()[0]
    assert t01.bindings["x1"].substitute({"v": 0}).equal(parse("-1"))


def test_uv_is_a_shared_function():
    i20 = _local_inverses()[1]
    pulled = parse("u*v").substitute(i20.bindings)
    assert pulled.equal(parse("1 + x2"))


def test_compose_with_identity():
    t01 = local_transitions()[0]
    chart = Chart("immersed", ("u", "v"))
    left = compose(identity_transition(chart), t01)
    assert all(left.bindings[k].equal(v) for k, v in t01.bindings.items())


def test_compose_rejects_mismatched_charts():
    t01, t02, _ = local_transitions()
    with pytest.raises(ValueError):
        compose(t01, t02)


def test_composed_wall_crossing_matches_declared():
    t01, t02, t21 = local_transitions()
    i10, i20, i12 = _local_inverses()
    via_node = compose(i10, t02)
    assert (via_node.source, via_node.target) == ("chekanov", "clifford")
    assert all(via_node.bindings[k].equal(v) for k, v in i12.bindings.items())
    other_way = compose(i20, t01)
    assert all(other_way.bindings[k].equal(v) for k, v in t21.bindings.items())


def test_local_atlas_cocycle():
    report = verify_cocycle(local_model_atlas())
    assert report.passed
    names = {v.name for v in report.verdicts}
    assert "triangle immersed->clifford->chekanov" in names
    assert "roundtrip chekanov<->immersed" in names
    assert len(report.verdicts) == 9


def test_local_atlas_transport_is_vacuous():
    report = verify_potential_transport(local_model_atlas())
    assert report.passed
    assert [v.name for v in report.verdicts] == ["no-edges-with-potentials"]


def test_perturbed_local_atlas_fails_cocycle():
    report = verify_cocycle(local_model_atlas(perturb_cocycle=True))
    assert not report.passed
    failed = {v.name for v in report.failures()}
    assert "triangle immersed->clifford->chekanov" in failed


# -- paper atlases ---------------------------------------------------------


def test_gr24_atlas_passes_both_suites():
    a = gr24_atlas()
    assert a.name == "gr(2,4)-tree"
    cocycle = verify_cocycle(a)
    assert cocycle.passed
    assert len(cocycle.verdicts) == 10
    report = verify_potential_transport(a)
    assert report.passed
    assert len(report.verdicts) == 8


def test_gr24_sign_flip_fails_transport():
    a = gr24_atlas(flip_sign=True)
    assert verify_cocycle(a).passed
    report = verify_potential_transport(a)
    assert not report.passed
    assert any("chekanov" in v.name for v in report.failures())


def test_og15_atlas_passes_both_suites():
    a = og15_atlas()
    assert verify_cocycle(a).passed
    report = verify_potential_transport(a)
    assert report.passed
    names = {v.name for v in report.verdicts}
    assert "transport toric-fiber->clifford" in names
    assert "transport clifford->toric-fiber" in names


# The node transitions of both paper atlases as they were first written out
# by hand, binding by binding; the atlases now generate them from one table
# of slot maps.  The gr(2,4) ones live in gr24_hand_written.
_HAND_WRITTEN_OG15 = [
    ("immersed", "chekanov", {"x1": "u*v - 1", "y1": "u", "z1": "z0"}, ["u*v - 1"]),
    ("chekanov", "immersed", {"u": "y1", "v": "(x1 + 1)/y1", "z0": "z1"}, ["y1"]),
    ("immersed", "clifford", {"x2": "u*v - 1", "y2": "1/v", "z2": "z0"}, ["u*v - 1", "v"]),
    ("clifford", "immersed", {"u": "(1 + x2)*y2", "v": "1/y2", "z0": "z2"}, ["y2"]),
    ("clifford", "chekanov", {"x1": "x2", "y1": "y2*(1 + x2)", "z1": "z2"}, ["x2 + 1"]),
    ("chekanov", "clifford", {"x2": "x1", "y2": "y1/(1 + x1)", "z2": "z1"}, ["x1 + 1"]),
    ("toric-fiber", "clifford", {"x2": "y1_1", "y2": "y1_3", "z2": "y1_3^2/y1_2"}, []),
    ("clifford", "toric-fiber", {"y1_1": "x2", "y1_2": "y2^2/z2", "y1_3": "y2"}, []),
]


@pytest.mark.parametrize(
    "atlas, hand_written",
    [(gr24_atlas, renamed_transitions()), (og15_atlas, _HAND_WRITTEN_OG15)],
)
def test_generated_transitions_match_hand_written(atlas, hand_written):
    # the torus chart of gr(2,4) was never written out by hand
    transitions = {
        (t.source, t.target): t
        for t in atlas().transitions
        if "torus" not in (t.source, t.target)
    }
    assert sorted(transitions) == sorted((s, t) for s, t, _, _ in hand_written)
    for source, target, bindings, guards in hand_written:
        t = transitions[(source, target)]
        assert set(t.bindings) == set(bindings)
        for name, text in bindings.items():
            assert t.bindings[name].equal(parse(text)), (t.source, t.target, name)
        assert len(t.constraints) == len(guards)
        for c, text in zip(t.constraints, guards):
            assert c.equal(parse(text))


def test_tree_atlas_charts(tree6):
    assert {c.name for c in tree6.charts} == {
        "torus",
        "immersed[2,3]",
        "chekanov[2,3]",
        "clifford[2,3]",
        "immersed[1,2;3,4]",
        "chekanov[1,2;3,4]",
        "clifford[1,2;3,4]",
    }
    assert tree6.transition("torus", "clifford[2,3]") is not None
    assert tree6.transition("torus", "immersed[2,3]") is None


def test_tree_atlas_passes_both_suites(tree6):
    cocycle = verify_cocycle(tree6)
    transport = verify_potential_transport(tree6)
    assert cocycle.passed
    assert transport.passed
    assert len(cocycle.verdicts) == 20
    assert len(transport.verdicts) == 16


def test_tree_atlas_surgered_potential_is_load_bearing(tree6):
    # the immersed-chart potentials come from surgery, the clifford ones
    # from substitution into the torus potential; transport ties them
    w0 = tree6.potentials["immersed[2,3]"]
    w2 = tree6.potentials["clifford[2,3]"]
    t = tree6.transition("immersed[2,3]", "clifford[2,3]")
    assert w2.expr.substitute(t.bindings).equal(w0.expr)


# -- product transitions ---------------------------------------------------


def test_product_transition_bindings_n4():
    t = product_transition(4, {(1, 2)}, ("torus", "clifford"))
    assert t.bindings["x1_2"].equal(parse("z1_2*z2_1/(z1_1*z2_2)"))
    assert t.bindings["y1_2"].equal(parse("z2_2/z2_1"))
    back = product_transition(4, {(1, 2)}, ("clifford", "torus"))
    assert back.bindings["z1_2"].equal(parse("x1_2*y1_2*z1_1"))
    assert back.bindings["z2_1"].equal(parse("z2_2/y1_2"))


def test_product_transition_shares_holonomies():
    t = product_transition(6, {(2, 3)}, ("immersed", "chekanov"))
    for z in ("z1_1", "z1_2", "z1_4", "z2_1", "z2_3", "z2_4"):
        assert t.bindings[z].equal(RationalFunction.var(z))
    assert t.bindings["x2_1"].equal(parse("u2*v2 - 1"))
    assert t.bindings["y2_1"].equal(parse("u2"))


def test_product_transition_double_pair_acts_on_both_slots():
    t = product_transition(6, {(1, 2), (3, 4)}, ("clifford", "chekanov"))
    assert t.bindings["y1_1"].equal(parse("y1_2*(1 + x1_2)"))
    assert t.bindings["y3_1"].equal(parse("y3_2*(1 + x3_2)"))


def test_product_transition_empty_set_is_identity():
    t = product_transition(5, frozenset(), ("torus", "torus"))
    assert t.source == t.target == "torus"
    assert all(expr.equal(RationalFunction.var(name)) for name, expr in t.bindings.items())


def test_product_transition_rejects_bad_input():
    with pytest.raises(ValueError):
        product_transition(6, {(2, 3)}, ("torus", "chekanov"))
    with pytest.raises(ValueError):
        product_transition(6, {(1, 2), (2, 3)}, ("immersed", "chekanov"))


@pytest.mark.parametrize("n", range(4, 10))
def test_chart_variables_agree_across_layers(n):
    for pair_set in index_sets(n)[0]:
        variables = product_charts(n, pair_set)["immersed"].variables
        assert immersed_potential(n, pair_set).variables == variables
        assert tuple(geometric_to_plucker(n, pair_set).bindings) == variables


def test_product_charts_variables():
    named = product_charts(6, {(1, 2), (3, 4)})
    assert named["chekanov"].variables == (
        "x1_1", "y1_1", "x3_1", "y3_1", "z1_1", "z1_3", "z2_2", "z2_4",
    )
    assert named["clifford"].variables == (
        "x1_2", "y1_2", "x3_2", "y3_2", "z1_1", "z1_3", "z2_2", "z2_4",
    )


# -- gauge family ----------------------------------------------------------


def test_gauge_zero_is_identity():
    g = gauge_automorphism(0)
    assert g.bindings["u"].equal(parse("u"))
    assert g.bindings["v"].equal(parse("v"))


@pytest.mark.parametrize("k", range(-3, 4))
def test_gauge_preserves_uv(k):
    g = gauge_automorphism(k)
    assert parse("u*v").substitute(g.bindings).equal(parse("u*v"))


@pytest.mark.parametrize("k", [-3, -1, 2, 3])
def test_gauge_inverse_composition(k):
    loop = compose(gauge_automorphism(k), gauge_automorphism(-k))
    assert loop.bindings["u"].equal(parse("u"))
    assert loop.bindings["v"].equal(parse("v"))


def _on_gr24_node_chart(t: Transition) -> Transition:
    """A self-map of the local node chart, moved to immersed[1,2] of gr(2,4)
    and extended by the identity on its holonomies."""
    names = {"u": "u1", "v": "v1"}
    moved = replace(_renamed(t, names, names), source="immersed[1,2]", target="immersed[1,2]")
    return extend_identity(moved, ("z1_1", "z2_2"))


@pytest.mark.parametrize("k", [-2, 1, 3])
def test_gauge_conjugated_atlas_still_glues(k):
    base = gr24_atlas()
    forward = _on_gr24_node_chart(gauge_automorphism(k))
    backward = _on_gr24_node_chart(gauge_automorphism(-k))
    conj = conjugate_chart(base, "immersed[1,2]", forward, backward)
    assert verify_cocycle(conj).passed
    assert verify_potential_transport(conj).passed
    expected = base.potentials["immersed[1,2]"].expr.substitute(forward.bindings)
    assert conj.potentials["immersed[1,2]"].expr.equal(expected)


# -- atlas container -------------------------------------------------------


def test_atlas_validation():
    u_chart = Chart("a", ("u",))
    v_chart = Chart("b", ("v",))
    ok = Transition("a", "b", {"v": parse("u")})
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), (Transition("a", "c", {"v": parse("u")}),))
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), (Transition("a", "b", {}),))
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), (Transition("a", "b", {"v": parse("w")}),))
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), (ok, ok))
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), ())
    with pytest.raises(ValueError):
        Atlas("x", (u_chart, v_chart), (ok,), {"zzz": None})
    with pytest.raises(ValueError):
        Chart("a", ("u", "u"))
    Atlas("x", (u_chart, v_chart), (ok,))


# -- potentials as term lists, against the whole-sum route ------------------


def _eager_sum(terms):
    total = RationalFunction.constant(0)
    for t in terms:
        total = total + t
    return total


def _cross_multiplied_equal(f, g):
    # the whole-sum equality test: both sides over one common denominator
    _, (left, right) = over_common_denominator((f, g))
    return (left - right).is_zero()


def _whole_sum_potentials(n):
    """Every chart potential of the gr(2,n) tree built the old way: sum the
    terms, then substitute the whole sum."""
    torus = _eager_sum(gc_torus_potential(n).terms)
    out = {"torus": torus}
    for ps in index_sets(n)[1]:
        named = product_charts(n, ps)
        immersed = _eager_sum(immersed_terms(n, ps))
        into_immersed = product_transition(n, ps, ("chekanov", "immersed"))
        into_torus = product_transition(n, ps, ("clifford", "torus"))
        out[named["immersed"].name] = immersed
        out[named["chekanov"].name] = immersed.substitute(into_immersed.bindings)
        out[named["clifford"].name] = torus.substitute(into_torus.bindings)
    return out


@pytest.mark.parametrize("n", range(4, 9))
def test_lazy_sum_matches_the_whole_sum_route(n):
    a = gr_product_atlas(n)
    old = _whole_sum_potentials(n)
    assert set(a.potentials) == set(old)
    for name, pot in a.potentials.items():
        # structural equality: the critical-point systems read this form
        assert pot.expr == old[name], name


@pytest.mark.parametrize("n", range(4, 9))
def test_transport_verdicts_match_the_whole_sum_route(n):
    a = gr_product_atlas(n)
    old = _whole_sum_potentials(n)
    report = verify_potential_transport(a)
    expected = [
        (f"transport {t.source}->{t.target}",
         _cross_multiplied_equal(old[t.target].substitute(t.bindings), old[t.source]))
        for t in a.transitions
    ]
    assert [(v.name, v.passed) for v in report.verdicts] == expected
    assert len(expected) == 8 * len(index_sets(n)[1])


def _flip_first(terms):
    return (-terms[0],) + terms[1:]


def _drop_last(terms):
    return terms[:-1]


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize(
    "kind, corrupt", [("chekanov", _flip_first), ("clifford", _drop_last)]
)
def test_corrupted_term_fails_exactly_the_transports_of_its_chart(n, kind, corrupt):
    a = gr_product_atlas(n)
    ps = sorted(index_sets(n)[1], key=sorted)[-1]
    name = product_charts(n, ps)[kind].name
    pot = a.potentials[name]
    a.potentials[name] = replace(pot, terms=corrupt(pot.terms))
    failed = {v.name for v in verify_potential_transport(a).failures()}
    touching = {
        f"transport {t.source}->{t.target}"
        for t in a.transitions
        if name in (t.source, t.target)
    }
    assert failed == touching
    assert len(touching) == {"chekanov": 4, "clifford": 6}[kind]


def test_flipped_sign_negates_one_term():
    plain = gr24_atlas().potentials["chekanov[1,2]"]
    flipped = gr24_atlas(flip_sign=True).potentials["chekanov[1,2]"]
    changed = [(s, t) for s, t in zip(plain.terms, flipped.terms) if s != t]
    assert changed == [(parse("y1_1"), parse("-y1_1"))]
    assert flipped.expr == plain.expr - parse("2*y1_1")
