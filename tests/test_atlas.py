"""Chart gluing: transitions, atlases, cocycle and transport checks."""

import os
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache

import pytest

from lgmirror import atlas as atlas_module
from lgmirror.atlas import (
    Atlas,
    Chart,
    Transition,
    _SLOT_MAPS,
    gr24_atlas,
    gr_product_atlas,
    local_model_atlas,
    og15_atlas,
    product_charts,
    verify_cocycle,
    verify_potential_transport,
)
from lgmirror.ladder import index_sets, slot_coordinates
from lgmirror.plucker import geometric_to_plucker
from lgmirror.potentials import (
    Potential,
    gc_torus_potential,
    immersed_potential,
    immersed_terms,
)
from lgmirror.rational import RationalFunction, over_common_denominator, parse

from gauge import gauge_automorphism
from gr24_hand_written import renamed_transitions


@pytest.fixture(scope="module")
def tree6():
    return gr_product_atlas(6)


@lru_cache(maxsize=None)
def _tree(n):
    # shared by the tests that only read the atlas
    return gr_product_atlas(n)


def _canonical_maps():
    """The three canonical maps among the node chart and its smoothings."""
    a = local_model_atlas()
    return [a.transition(*edge) for edge in _SLOT_MAPS if edge[0] == "immersed"] + [
        a.transition("clifford", "chekanov")
    ]


def _inverse_maps():
    a = local_model_atlas()
    return [a.transition(t.target, t.source) for t in _canonical_maps()]


# -- the node wall crossings ----------------------------------------------


def test_local_transitions_canonical():
    t01, t02, t21 = _canonical_maps()
    assert (t01.source, t01.target) == ("immersed", "chekanov")
    assert t01.bindings["x1"].equal(parse("u*v - 1"))
    assert t01.bindings["y1"].equal(parse("u"))
    assert t02.bindings["y2"].equal(parse("1/v"))
    assert t21.bindings["y1"].equal(parse("y2*(1 + x2)"))


def test_degenerate_slice_hits_minus_one():
    # collapsing the second node coordinate pins the first chart coordinate
    t01 = _canonical_maps()[0]
    assert t01.bindings["x1"].substitute({"v": 0}).equal(parse("-1"))


def test_uv_is_a_shared_function():
    i20 = _inverse_maps()[1]
    pulled = parse("u*v").substitute(i20.bindings)
    assert pulled.equal(parse("1 + x2"))


def test_compose_with_identity():
    t01 = _canonical_maps()[0]
    # the identity binds nothing: every coordinate passes through
    identity = Transition("immersed", "immersed", {})
    left = local_model_atlas().compose(identity, t01)
    assert set(left.bindings) == set(t01.bindings)
    assert all(left.bindings[k].equal(v) for k, v in t01.bindings.items())


def test_compose_rejects_mismatched_charts():
    t01, t02, _ = _canonical_maps()
    with pytest.raises(ValueError):
        local_model_atlas().compose(t01, t02)


def test_composed_wall_crossing_matches_declared():
    t01, t02, t21 = _canonical_maps()
    i10, i20, i12 = _inverse_maps()
    a = local_model_atlas()
    via_node = a.compose(i10, t02)
    assert (via_node.source, via_node.target) == ("chekanov", "clifford")
    # no coordinate of the middle chart is left in the composite
    assert set(via_node.bindings) == set(i12.bindings)
    assert all(via_node.bindings[k].equal(v) for k, v in i12.bindings.items())
    other_way = a.compose(i20, t01)
    assert set(other_way.bindings) == set(t21.bindings)
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
    ("immersed", "chekanov", {"x1": "u*v - 1", "y1": "u", "z1": "z0"}),
    ("chekanov", "immersed", {"u": "y1", "v": "(x1 + 1)/y1", "z0": "z1"}),
    ("immersed", "clifford", {"x2": "u*v - 1", "y2": "1/v", "z2": "z0"}),
    ("clifford", "immersed", {"u": "(1 + x2)*y2", "v": "1/y2", "z0": "z2"}),
    ("clifford", "chekanov", {"x1": "x2", "y1": "y2*(1 + x2)", "z1": "z2"}),
    ("chekanov", "clifford", {"x2": "x1", "y2": "y1/(1 + x1)", "z2": "z1"}),
    ("toric-fiber", "clifford", {"x2": "y1_1", "y2": "y1_3", "z2": "y1_3^2/y1_2"}),
    ("clifford", "toric-fiber", {"y1_1": "x2", "y1_2": "y2^2/z2", "y1_3": "y2"}),
]


@pytest.mark.parametrize(
    "atlas, hand_written",
    [(gr24_atlas, renamed_transitions()), (og15_atlas, _HAND_WRITTEN_OG15)],
)
def test_generated_transitions_match_hand_written(atlas, hand_written):
    # the torus chart of gr(2,4) was never written out by hand
    a = atlas()
    transitions = {
        (t.source, t.target): t
        for t in a.transitions
        if "torus" not in (t.source, t.target)
    }
    assert sorted(transitions) == sorted((s, t) for s, t, _ in hand_written)
    for source, target, bindings in hand_written:
        t = transitions[(source, target)]
        # every target coordinate, an unbound one read as the source
        # coordinate of the same name, on both sides
        for name in a.chart(target).variables:
            expected = parse(bindings.get(name, name))
            assert t.image(name).equal(expected), (t.source, t.target, name)


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


def test_cocycle_verdicts_follow_the_sorted_edges(tree6):
    edges = sorted((t.source, t.target) for t in tree6.transitions)
    linked = set(edges)
    trips = [f"roundtrip {s}<->{t}" for s, t in edges if s < t and (t, s) in linked]
    triangles = [
        f"triangle {s}->{mid}->{end}"
        for s, mid in edges
        for m, end in edges
        if m == mid and end != s and (s, end) in linked
    ]
    assert [v.name for v in verify_cocycle(tree6).verdicts] == trips + triangles


def test_tree_atlas_surgered_potential_is_load_bearing(tree6):
    # the immersed-chart potentials come from surgery, the clifford ones
    # from substitution into the torus potential; transport ties them
    w0 = tree6.potentials["immersed[2,3]"]
    w2 = tree6.potentials["clifford[2,3]"]
    t = tree6.transition("immersed[2,3]", "clifford[2,3]")
    assert w2.expr.substitute(t.bindings).equal(w0.expr)


# -- product transitions ---------------------------------------------------


def test_product_transition_bindings_n4():
    a = _tree(4)
    t = a.transition("torus", "clifford[1,2]")
    assert t.bindings["x1_2"].equal(parse("z1_2*z2_1/(z1_1*z2_2)"))
    assert t.bindings["y1_2"].equal(parse("z2_2/z2_1"))
    back = a.transition("clifford[1,2]", "torus")
    assert back.bindings["z1_2"].equal(parse("x1_2*y1_2*z1_1"))
    assert back.bindings["z2_1"].equal(parse("z2_2/y1_2"))


def test_product_transition_shares_holonomies(tree6):
    t = tree6.transition("immersed[2,3]", "chekanov[2,3]")
    expected = {"x2_1": "u2*v2 - 1", "y2_1": "u2"}
    target = product_charts(6, {(2, 3)})["chekanov"].variables
    assert set(target) == set(expected) | {"z1_1", "z1_2", "z1_4", "z2_1", "z2_3", "z2_4"}
    # every target coordinate, an unbound one read as the source
    # coordinate of the same name
    for name in target:
        assert t.image(name).equal(parse(expected.get(name, name))), name


def test_product_transition_double_pair_acts_on_both_slots(tree6):
    t = tree6.transition("clifford[1,2;3,4]", "chekanov[1,2;3,4]")
    assert t.bindings["y1_1"].equal(parse("y1_2*(1 + x1_2)"))
    assert t.bindings["y3_1"].equal(parse("y3_2*(1 + x3_2)"))


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
    loop = local_model_atlas().compose(gauge_automorphism(k), gauge_automorphism(-k))
    assert loop.bindings["u"].equal(parse("u"))
    assert loop.bindings["v"].equal(parse("v"))


def conjugate_chart(
    a: Atlas, chart_name: str, forward: Transition, backward: Transition
) -> Atlas:
    """Reparametrize one chart by an invertible self-map.

    ``forward`` writes the old coordinates in terms of the new ones (so the
    chart's potential pulls back through it); ``backward`` is its inverse.
    """
    for t in (forward, backward):
        if t.source != chart_name or t.target != chart_name:
            raise ValueError("self-map does not live on the named chart")
    new_transitions = []
    for t in a.transitions:
        if t.source == chart_name:
            new_transitions.append(a.compose(forward, t))
        elif t.target == chart_name:
            new_transitions.append(a.compose(t, backward))
        else:
            new_transitions.append(t)
    potentials = dict(a.potentials)
    if chart_name in potentials:
        p = potentials[chart_name]
        potentials[chart_name] = replace(p, terms=p.substitute_terms(forward.bindings))
    return Atlas(f"{a.name}/regauged", a.charts, tuple(new_transitions), potentials)


def _on_gr24_node_chart(t: Transition) -> Transition:
    """A self-map of the local node chart, moved to immersed[1,2] of gr(2,4);
    its holonomies pass through."""
    names = {"u": "u1", "v": "v1"}
    return Transition(
        "immersed[1,2]",
        "immersed[1,2]",
        {names[k]: e.rename(names) for k, e in t.bindings.items()},
    )


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
    # one way only: neither a roundtrip nor a triangle, so the cocycle
    # check examines nothing and must not pass
    assert not verify_cocycle(Atlas("x", (u_chart, v_chart), (ok,))).passed
    # connected through a transition into the first chart
    Atlas("x", (u_chart, v_chart), (Transition("b", "a", {"u": parse("v")}),))


def test_atlas_validation_with_pass_through():
    a_chart = Chart("a", ("u", "z"))
    b_chart = Chart("b", ("v", "z"))
    # z is a coordinate of both charts, so it passes through unbound
    Atlas("x", (a_chart, b_chart), (Transition("a", "b", {"v": parse("u")}),))
    with pytest.raises(ValueError, match="off the target chart"):
        Atlas("x", (a_chart, b_chart), (Transition("a", "b", {"v": parse("u"), "u": parse("z")}),))
    with pytest.raises(ValueError, match="unbound"):
        Atlas("x", (a_chart, b_chart), (Transition("a", "b", {"z": parse("u")}),))
    with pytest.raises(ValueError, match="uses"):
        Atlas("x", (a_chart, b_chart), (Transition("a", "b", {"v": parse("v")}),))


def test_atlas_rejects_a_potential_off_its_chart():
    u_chart = Chart("a", ("u",))
    v_chart = Chart("b", ("v",))
    edge = (Transition("a", "b", {"v": parse("u")}),)
    Atlas("x", (u_chart, v_chart), edge, {"a": Potential(("u",), "a", ("u",), "m")})
    with pytest.raises(ValueError, match="does not live on that chart"):
        Atlas("x", (u_chart, v_chart), edge, {"a": Potential(("w",), "b", ("w",), "m")})
    with pytest.raises(ValueError, match="does not live on that chart"):
        Atlas("x", (u_chart, v_chart), edge, {"a": Potential(("v",), "b", ("v",), "m")})
    with pytest.raises(ValueError, match="does not live on that chart"):
        Atlas("x", (u_chart, v_chart), edge, {"a": Potential(("u",), "a", ("u", "w"), "m")})


# -- transitions bind only what they change ---------------------------------

# the target coordinates a wall crossing moves at one slot, by target kind:
# the kind's slot coordinates, or on the torus the two traded holonomies
_MOVED = {"immersed": ("u", "v"), "chekanov": ("x1", "y1"), "clifford": ("x2", "y2"),
          "torus": ("zb", "wa")}


_ATLASES = {
    **{f"gr(2,{n})": (lambda n=n: _tree(n)) for n in range(4, 11)},
    "og15": og15_atlas,
    "local": local_model_atlas,
}


@pytest.mark.parametrize("model", list(_ATLASES))
def test_no_binding_maps_a_name_to_itself(model):
    for t in _ATLASES[model]().transitions:
        for name, expr in t.bindings.items():
            assert not expr.equal(RationalFunction.var(name)), (t.source, t.target, name)


@pytest.mark.parametrize("n", range(4, 11))
def test_product_transitions_bind_only_their_slot_coordinates(n):
    a = _tree(n)
    for ps in index_sets(n)[1]:
        named = product_charts(n, ps)
        for source, target in _SLOT_MAPS:
            t = a.transition(named[source].name, named[target].name)
            moved = {slot_coordinates(i)[k] for i, _ in ps for k in _MOVED[target]}
            assert set(t.bindings) == moved, (t.source, t.target)
    assert len(a.transitions) == 8 * len(index_sets(n)[1])


@pytest.mark.parametrize("n", [4, 7, 10])
def test_atlas_build_names_each_chart_once(n, monkeypatch):
    calls = []
    real = atlas_module.chart_coordinates
    monkeypatch.setattr(
        atlas_module, "chart_coordinates", lambda *a: calls.append(a) or real(*a)
    )
    a = gr_product_atlas(n)
    maximal = index_sets(n)[1]
    # product_charts names the four kinds over each maximal pair set and the empty one
    assert len(calls) == 4 * (len(maximal) + 1)
    for ps in maximal:
        named = product_charts(n, ps)
        slots = [slot_coordinates(i) for i, _ in ps]
        for edge, one_slot in _SLOT_MAPS.items():
            # the slot map of the edge, renamed at every selected slot
            expected = {
                names[k]: parse(e).rename(names) for names in slots for k, e in one_slot.items()
            }
            t = a.transition(named[edge[0]].name, named[edge[1]].name)
            assert t == Transition(t.source, t.target, expected)


def test_two_builds_parse_the_slot_maps_once(monkeypatch):
    parsed = []
    real = atlas_module.parse
    monkeypatch.setattr(atlas_module, "parse", lambda text: parsed.append(text) or real(text))
    atlas_module._slot_maps.cache_clear()
    first, second = gr_product_atlas(8), gr_product_atlas(8)
    table = [e for bindings in _SLOT_MAPS.values() for e in bindings.values()]
    assert sorted(parsed) == sorted(table)
    assert atlas_module._slot_maps.cache_info().misses == 1
    assert [t.bindings for t in first.transitions] == [t.bindings for t in second.transitions]


def test_atlas_build_renames_each_slot_map_once(monkeypatch):
    renamed = []
    real = RationalFunction.rename
    monkeypatch.setattr(
        RationalFunction, "rename", lambda self, names: renamed.append(names) or real(self, names)
    )
    gr_product_atlas(13)
    # 8 edges at 10 slots, each slot map binding two coordinates
    assert len(renamed) <= 8 * 10 * 2


def test_slot_maps_are_not_parsed_at_import():
    src = os.path.dirname(os.path.dirname(atlas_module.__file__))
    probe = "import lgmirror.cli, lgmirror.atlas as a; print(a._slot_maps.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "0"


def test_parsed_slot_maps_are_read_only():
    t = local_model_atlas().transition("immersed", "chekanov")
    with pytest.raises(TypeError):
        t.bindings["x1"] = parse("u")


def _uses(verdict: str, edge: tuple[str, str]) -> bool:
    """Whether a cocycle verdict composes or compares along ``edge``."""
    kind, path = verdict.split(" ", 1)
    if kind == "roundtrip":
        s, t = path.split("<->")
        return edge in {(s, t), (t, s)}
    s, mid, end = path.split("->")
    return edge in {(s, mid), (mid, end), (s, end)}


@pytest.mark.parametrize("n", [6, 10])
@pytest.mark.parametrize("edge, moved", [(("chekanov", "immersed"), "u"), (("clifford", "torus"), "zb")])
def test_altered_slot_binding_fails_exactly_the_cocycle_verdicts_of_its_transition(n, edge, moved):
    a = _tree(n)
    ps = sorted(index_sets(n)[1], key=sorted)[-1]
    named = product_charts(n, ps)
    key = (named[edge[0]].name, named[edge[1]].name)
    t = a.transition(*key)
    name = slot_coordinates(max(ps)[0])[moved]
    altered = replace(t, bindings=dict(t.bindings, **{name: t.bindings[name] * 2}))
    transitions = [altered if (u.source, u.target) == key else u for u in a.transitions]
    report = verify_cocycle(Atlas(a.name, a.charts, transitions, a.potentials))
    touching = {v.name for v in report.verdicts if _uses(v.name, key)}
    assert {v.name for v in report.failures()} == touching
    assert len(touching) == {"chekanov": 4, "clifford": 1}[edge[0]]


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
        into_immersed = _tree(n).transition(named["chekanov"].name, named["immersed"].name)
        into_torus = _tree(n).transition(named["clifford"].name, "torus")
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
