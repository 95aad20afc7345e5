"""The atlas checks share each distinct pullback and comparison within one
atlas; their verdicts equal those of the unshared route."""

from dataclasses import replace

import pytest

import atlas_without_sharing as unshared
from lgmirror import atlas as atlas_module
from lgmirror import cli
from lgmirror.atlas import (
    Atlas,
    gr24_atlas,
    gr_product_atlas,
    gr_tree_atlas,
    local_model_atlas,
    og15_atlas,
    verify_cocycle,
    verify_potential_transport,
)
from lgmirror.ladder import index_sets, pairs_label, slot_coordinates
from lgmirror.laurent import LaurentPoly
from lgmirror.rational import RationalFunction, parse


def _verdicts(report):
    return [(v.name, v.passed, v.detail) for v in report.verdicts]


def _both_routes(shared_atlas, reference_atlas):
    """The (cocycle, transport) verdicts of each route."""
    shared = (verify_cocycle(shared_atlas), verify_potential_transport(shared_atlas))
    reference = (
        unshared.verify_cocycle(reference_atlas),
        unshared.verify_potential_transport(reference_atlas),
    )
    return [_verdicts(r) for r in shared], [_verdicts(r) for r in reference]


@pytest.mark.parametrize("model", ["local", "og15"] + list(range(4, 11)))
def test_verdicts_match_the_unshared_route(model):
    if model == "local":
        shared_atlas, reference_atlas = local_model_atlas(), local_model_atlas()
    elif model == "og15":
        shared_atlas, reference_atlas = og15_atlas(), og15_atlas()
    else:
        shared_atlas = gr_product_atlas(model)
        reference_atlas = unshared.gr_product_atlas(model)
    # the shared pullbacks build the potentials term for term
    assert list(shared_atlas.potentials) == list(reference_atlas.potentials)
    for name, pot in shared_atlas.potentials.items():
        assert pot.terms == reference_atlas.potentials[name].terms, name
    shared, reference = _both_routes(shared_atlas, reference_atlas)
    assert shared == reference
    assert all(passed for verdicts in shared for _, passed, _ in verdicts)


def test_controls_fail_on_both_routes():
    flipped = gr24_atlas(flip_sign=True)
    report = verify_potential_transport(flipped)
    assert _verdicts(report) == _verdicts(unshared.verify_potential_transport(flipped))
    assert not report.passed
    perturbed = local_model_atlas(perturb_cocycle=True)
    report = verify_cocycle(perturbed)
    assert _verdicts(report) == _verdicts(unshared.verify_cocycle(perturbed))
    assert not report.passed


def _corrupted_at_slot(a: Atlas, slot: int, only: str | None = None) -> Atlas:
    """``a`` with the clifford-to-chekanov slot map at ``slot`` given the
    spurious factor of the perturbed local model, in every pair set holding
    the slot, or only in the pair set labelled ``only``."""
    names = slot_coordinates(slot)
    moved, extra = names["y1"], parse(f"1 + {names['x2']}")
    transitions = []
    for t in a.transitions:
        if (
            t.source.startswith("clifford[")
            and t.target.startswith("chekanov[")
            and moved in t.bindings
            and only in (None, _pair_set(t.source))
        ):
            t = replace(t, bindings=dict(t.bindings, **{moved: t.bindings[moved] * extra}))
        transitions.append(t)
    return Atlas(a.name, a.charts, transitions, a.potentials)


def _pair_set(name: str) -> str:
    """The pair-set label of a verdict or chart name."""
    return name.split("[")[1].split("]")[0]


def _failing_pair_sets(report) -> set[str]:
    return {_pair_set(v.name) for v in report.failures()}


def _holding(n: int, slot: int) -> list[str]:
    return sorted(pairs_label(ps) for ps in index_sets(n)[1] if (slot, slot + 1) in ps)


@pytest.mark.parametrize("slot", [1, 2, 4])
def test_a_slot_map_corrupted_at_one_slot_fails_exactly_its_pair_sets(slot):
    n = 7
    holding = set(_holding(n, slot))
    assert holding and len(holding) < len(index_sets(n)[1])
    shared_atlas = _corrupted_at_slot(gr_product_atlas(n), slot)
    reference_atlas = _corrupted_at_slot(unshared.gr_product_atlas(n), slot)
    shared, reference = _both_routes(shared_atlas, reference_atlas)
    assert shared == reference
    for report in (verify_cocycle(shared_atlas), verify_potential_transport(shared_atlas)):
        assert _failing_pair_sets(report) == holding


@pytest.mark.parametrize("slot", [1, 4])
def test_a_slot_map_corrupted_in_one_pair_set_fails_only_there(slot):
    # the other pair sets holding the slot compare the same composites with
    # the intact slot map, so no decision may pass between them
    n = 7
    holding = _holding(n, slot)
    assert len(holding) > 1
    only = holding[-1]
    shared_atlas = _corrupted_at_slot(gr_product_atlas(n), slot, only)
    reference_atlas = _corrupted_at_slot(unshared.gr_product_atlas(n), slot, only)
    shared, reference = _both_routes(shared_atlas, reference_atlas)
    assert shared == reference
    for report in (verify_cocycle(shared_atlas), verify_potential_transport(shared_atlas)):
        assert _failing_pair_sets(report) == {only}


@pytest.mark.parametrize("k", [0, 5])
def test_a_coordinate_only_the_direct_transition_moves_is_compared(k):
    # the k-th transition rescales a holonomy that every other map passes
    # through, so each triangle with it as the direct edge must fail
    a = gr_product_atlas(6)
    t = a.transitions[k]
    z = next(v for v in a.chart(t.target).variables if v.startswith("z"))
    altered = replace(t, bindings=dict(t.bindings, **{z: parse(f"2*{z}")}))
    transitions = [altered if u is t else u for u in a.transitions]
    shared_atlas = Atlas(a.name, a.charts, transitions, a.potentials)
    report = verify_cocycle(shared_atlas)
    assert _verdicts(report) == _verdicts(unshared.verify_cocycle(shared_atlas))
    as_direct = [
        v
        for v in report.verdicts
        if v.name.startswith(f"triangle {t.source}->") and v.name.endswith(f"->{t.target}")
    ]
    assert as_direct and not any(v.passed for v in as_direct)


def _spy(monkeypatch, name):
    """Record every call of RationalFunction.<name> with its arguments."""
    calls = []
    real = getattr(RationalFunction, name)

    def spied(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(RationalFunction, name, spied)
    return calls


def _bound_form(f, bindings):
    """The value key of one substitution: f and the bindings of its variables."""
    names = set(f.variables())
    return (f.num, f.factors) + tuple(
        (v, e.num, e.factors) for v, e in sorted(bindings.items()) if v in names
    )


def test_one_atlas_substitutes_each_distinct_pullback_once(monkeypatch):
    calls = _spy(monkeypatch, "substitute")
    a = gr_product_atlas(8)
    verify_potential_transport(a)
    verify_cocycle(a)
    keys = [_bound_form(f, b) for f, b in calls]
    assert keys and len(keys) == len(set(keys))


def test_cocycle_decides_each_distinct_comparison_once(monkeypatch):
    calls = _spy(monkeypatch, "equal")
    tree = gr_tree_atlas(8)
    unshared.verify_cocycle(tree)
    every = [(f.num, f.factors, g.num, g.factors) for f, g in calls]
    del calls[:]
    verify_cocycle(tree)
    once = [(f.num, f.factors, g.num, g.factors) for f, g in calls]
    assert len(once) == len(set(once)) < len(every)
    assert set(once) <= set(every)
    # what is left out compares a coordinate that neither side binds with itself
    for num, factors, other_num, other_factors in set(every) - set(once):
        assert len(num.vars) == 1 and num == LaurentPoly.var(num.vars[0]) == other_num
        assert factors == other_factors == ()


def test_a_second_atlas_substitutes_again(monkeypatch):
    calls = _spy(monkeypatch, "substitute")
    counts = []
    for _ in range(2):
        before = len(calls)
        verify_potential_transport(gr_product_atlas(6))
        counts.append(len(calls) - before)
    # nothing the first atlas pulled back is reused by the second
    assert counts[0] > 0 and counts[1] == counts[0]


def test_cocycle_builds_no_potentials(monkeypatch):
    def refuse(*args):
        raise AssertionError("the cocycle check reads no potential")

    monkeypatch.setattr(atlas_module, "immersed_potential", refuse)
    monkeypatch.setattr(atlas_module, "gc_torus_potential", refuse)
    assert cli.main(["verify", "cocycle", "--model", "gr", "--n", "8"]) == 0
    assert gr_tree_atlas(8).potentials == {}
