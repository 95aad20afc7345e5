"""Chart gluing: wall-crossing transitions, product extensions over a pair
set, composition, and cocycle and potential-transport checks.

A transition binds only the target coordinates it changes, each to a
source-chart expression.  Every other target coordinate is the source
coordinate of the same name: ``RationalFunction.substitute`` passes unbound
names through, so a product transition is just its slot maps at the selected
slots and leaves the torus factor alone.  A potential on the target pulls
back along a transition by substitution, term by term.  Transport holds when
the pulled-back terms minus the source chart's terms sum to zero
(``rational.sum_is_zero``): terms the transition leaves alone cancel
unchanged, and only the rest are lifted over a common denominator.

The wall crossings at one node are one table of slot maps, ``_SLOT_MAPS``.
It is parsed once per process, on first use, into shared read-only
transitions; the local model, the quadric and every product chart of
gr(2,n) instantiate it through ``_wall_crossing``.  A gr(2,n) build renames
each slot map to each slot once and shares it among the pair sets holding
the slot.

So the pair sets of gr(2,n) repeat the same exact work slot by slot, and
each ``Atlas`` does each distinct piece of it once, for as long as the atlas
lives:

* ``Atlas._pullback`` substitutes a term under the bindings of its own
  variables once.  The key is the term's canonical form and those bindings'
  forms, so the defining pullbacks of a build, every transport pullback
  and every image in ``Atlas.compose`` share one table.  A term bound
  only by slot i's maps is pulled back once for all pair sets holding i.
* ``verify_cocycle`` decides each distinct (image, expected) pair once,
  within one call.  A coordinate that neither side binds is its own image
  under both and is not compared.

Keys are values, never names or positions, so an atlas whose transitions
or potentials were changed after the build cannot read another input's
entry.  Nothing is shared between atlases or kept at module level.  The
tree of charts and transitions, ``gr_tree_atlas``, carries no potentials:
the cocycle check needs none, and ``gr_product_atlas`` attaches them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache
from types import MappingProxyType
from typing import Mapping

from .ladder import (
    CHART_KINDS,
    chart_coordinates,
    index_sets,
    slot_coordinates,
)
from .potentials import (
    Potential,
    gc_torus_potential,
    immersed_potential,
    og_bridge,
    og_potentials,
)
from .rational import RationalFunction, as_rational, parse, sum_is_zero
from .report import Report, Verdict


@dataclass(frozen=True)
class Chart:
    name: str
    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise ValueError(f"duplicate variables in chart {self.name!r}")


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    bindings: Mapping[str, RationalFunction]

    def __post_init__(self):
        object.__setattr__(
            self,
            "bindings",
            MappingProxyType({k: as_rational(v) for k, v in self.bindings.items()}),
        )

    def image(self, name: str) -> RationalFunction:
        """Target coordinate ``name`` as a source expression; an unbound
        coordinate is the source coordinate of the same name."""
        bound = self.bindings.get(name)
        return RationalFunction.var(name) if bound is None else bound


@dataclass
class Atlas:
    name: str
    charts: tuple[Chart, ...]
    transitions: tuple[Transition, ...]
    potentials: dict = field(default_factory=dict)

    def __post_init__(self):
        self.charts = tuple(self.charts)
        self.transitions = tuple(self.transitions)
        names = [c.name for c in self.charts]
        if len(set(names)) != len(names):
            raise ValueError("duplicate chart names")
        by_name = {c.name: c for c in self.charts}
        # source -> target -> transition
        adjacent: dict[str, dict[str, Transition]] = {name: {} for name in names}
        for t in self.transitions:
            if t.source not in by_name or t.target not in by_name:
                raise ValueError(f"transition {t.source}->{t.target} off the atlas")
            if t.source == t.target:
                raise ValueError("self-transitions do not belong in an atlas")
            if t.target in adjacent[t.source]:
                raise ValueError(f"duplicate transition {t.source}->{t.target}")
            adjacent[t.source][t.target] = t
            target_vars = set(by_name[t.target].variables)
            source_vars = set(by_name[t.source].variables)
            stray = sorted(set(t.bindings) - target_vars)
            if stray:
                raise ValueError(f"{t.source}->{t.target} binds {stray} off the target chart")
            # an unbound target coordinate passes through from the source
            missing = sorted(target_vars - set(t.bindings) - source_vars)
            if missing:
                raise ValueError(f"{t.source}->{t.target} leaves {missing} unbound")
            for name, expr in t.bindings.items():
                stray = sorted(set(expr.variables()) - source_vars)
                if stray:
                    raise ValueError(f"binding {name} of {t.source}->{t.target} uses {stray}")
        for chart_name, potential in self.potentials.items():
            chart = by_name.get(chart_name)
            if chart is None:
                raise ValueError(f"potential attached to unknown chart {chart_name!r}")
            if (potential.chart, potential.variables) != (chart.name, chart.variables):
                raise ValueError(f"potential on {chart_name!r} does not live on that chart")
        self._by_name = by_name
        self._adjacent = adjacent
        # (term form, bound forms) -> the term pulled back
        self._pulled: dict = {}
        if names:
            # the walk follows each transition both ways
            linked = {name: set(targets) for name, targets in adjacent.items()}
            for source, targets in adjacent.items():
                for target in targets:
                    linked[target].add(source)
            seen = {names[0]}
            frontier = [names[0]]
            while frontier:
                for other in linked[frontier.pop()] - seen:
                    seen.add(other)
                    frontier.append(other)
            if seen != set(names):
                raise ValueError("transition graph is not connected")

    def chart(self, name: str) -> Chart:
        return self._by_name[name]

    def transition(self, source: str, target: str):
        return self._adjacent.get(source, {}).get(target)

    def _pullback(self, term: RationalFunction, bindings) -> RationalFunction:
        """``term.substitute(bindings)``, computed once per atlas for each
        term and restriction of ``bindings`` to the term's variables."""
        bound = tuple((v, bindings[v]) for v in term.variables() if v in bindings)
        if not bound:
            return term
        key = (_form(term), tuple((v, _form(e)) for v, e in bound))
        got = self._pulled.get(key)
        if got is None:
            got = self._pulled[key] = term.substitute(dict(bound))
        return got

    def compose(self, t1: Transition, t2: Transition) -> Transition:
        """The transition following t1 by t2; t1 must land where t2 starts.
        The result binds the coordinates of t2's target chart that either
        transition moves, so no coordinate of the middle chart is left
        behind."""
        if t1.target != t2.source:
            raise ValueError(
                f"cannot compose {t1.source}->{t1.target} with {t2.source}->{t2.target}"
            )
        bindings = {
            name: self._pullback(t2.image(name), t1.bindings)
            for name in self.chart(t2.target).variables
            if name in t2.bindings or name in t1.bindings
        }
        return Transition(t1.source, t2.target, bindings)


def _form(f: RationalFunction):
    """The canonical form of ``f`` as a key: numerator and factor list."""
    return f.num, f.factors


# -- verification ----------------------------------------------------------


def verify_cocycle(a: Atlas) -> Report:
    """Every composable triangle must reproduce the direct transition, and
    every two-way edge must compose to the identity.  An atlas with
    neither gets no verdicts, and its report fails."""
    verdicts = []
    decided: dict = {}

    def mismatched(t: Transition, u: Transition, variables) -> list[str]:
        """The coordinates on which t and u differ; one that neither binds
        is its own image under both."""
        bad = []
        for v in variables:
            if v not in t.bindings and v not in u.bindings:
                continue
            image, expected = t.image(v), u.image(v)
            key = (_form(image), _form(expected))
            got = decided.get(key)
            if got is None:
                got = decided[key] = image.equal(expected)
            if not got:
                bad.append(v)
        return bad

    adjacent = {s: sorted(targets.items()) for s, targets in sorted(a._adjacent.items())}
    for s, targets in adjacent.items():
        for t, forward in targets:
            back = a._adjacent[t].get(s)
            if t < s or back is None:
                continue
            identity = Transition(s, s, {})
            bad = mismatched(a.compose(forward, back), identity, a.chart(s).variables)
            verdicts.append(
                Verdict(
                    f"roundtrip {s}<->{t}",
                    not bad,
                    "" if not bad else f"not the identity on {bad}",
                )
            )
    for s1, targets in adjacent.items():
        for mid, t1 in targets:
            for end, t2 in adjacent[mid]:
                direct = a._adjacent[s1].get(end)
                if end == s1 or direct is None:
                    continue
                bad = mismatched(a.compose(t1, t2), direct, sorted(a.chart(end).variables))
                verdicts.append(
                    Verdict(
                        f"triangle {s1}->{mid}->{end}",
                        not bad,
                        "" if not bad else f"mismatch on {bad}",
                    )
                )
    return Report(f"cocycle[{a.name}]", tuple(verdicts))


def verify_potential_transport(a: Atlas) -> Report:
    """Each potential, pulled back along a transition term by term, must
    sum to the potential already living on the source chart.  The pullbacks
    go through ``Atlas._pullback``, so they share the build's."""
    verdicts = []
    for t in a.transitions:
        ws = a.potentials.get(t.source)
        wt = a.potentials.get(t.target)
        if ws is None or wt is None:
            continue
        pulled = [a._pullback(w, t.bindings) for w in wt.terms]
        ok = sum_is_zero([(w, 1) for w in pulled] + [(w, -1) for w in ws.terms])
        verdicts.append(
            Verdict(
                f"transport {t.source}->{t.target}",
                ok,
                "" if ok else "pullback disagrees with the source potential",
            )
        )
    if not verdicts:
        verdicts.append(Verdict("no-edges-with-potentials", True, "vacuous"))
    return Report(f"transport[{a.name}]", tuple(verdicts))


# -- the node wall crossings ----------------------------------------------

# The wall crossings at one node, in slot coordinates: (u, v) on the immersed
# chart, (x1, y1) on chekanov and (x2, y2) on clifford.  Each entry binds the
# target coordinates it moves to source expressions.  Entries come in pairs,
# a map and then its inverse.  The first three pairs are the node wall
# crossings; the last pair glues the clifford chart of one slot to the torus
# chart, whose holonomies around the slot are za, zb on row 1 and wa, wb on
# row 2.
_SLOT_MAPS = {
    ("immersed", "chekanov"): {"x1": "u*v - 1", "y1": "u"},
    ("chekanov", "immersed"): {"u": "y1", "v": "(x1 + 1)/y1"},
    ("immersed", "clifford"): {"x2": "u*v - 1", "y2": "1/v"},
    ("clifford", "immersed"): {"u": "(1 + x2)*y2", "v": "1/y2"},
    ("clifford", "chekanov"): {"x1": "x2", "y1": "y2*(1 + x2)"},
    ("chekanov", "clifford"): {"x2": "x1", "y2": "y1/(1 + x1)"},
    ("torus", "clifford"): {"x2": "zb*wa/(za*wb)", "y2": "wb/wa"},
    ("clifford", "torus"): {"zb": "x2*y2*za", "wa": "wb/y2"},
}
_NODE_EDGES = tuple(_SLOT_MAPS)[:6]


@cache
def _slot_maps() -> dict[tuple[str, str], Transition]:
    """``_SLOT_MAPS`` parsed into transitions, once per process."""
    return {
        (s, t): Transition(s, t, {k: parse(e) for k, e in bindings.items()})
        for (s, t), bindings in _SLOT_MAPS.items()
    }


def _renamed(edge: tuple[str, str], names: dict[str, str]) -> dict[str, RationalFunction]:
    """The slot map of ``edge`` in the coordinates of one slot."""
    return {names[k]: e.rename(names) for k, e in _slot_maps()[edge].bindings.items()}


def _wall_crossing(source: str, target: str, slot_maps, moved=()) -> Transition:
    """One edge's slot maps, one per slot, as a single transition from
    chart ``source`` to chart ``target``.  Each pair (new, old) of
    ``moved`` binds a target coordinate that only changes name."""
    bindings: dict[str, RationalFunction] = {}
    for one_slot in slot_maps:
        bindings.update(one_slot)
    bindings.update((new, RationalFunction.var(old)) for new, old in moved)
    return Transition(source, target, bindings)


def local_model_atlas(perturb_cocycle: bool = False) -> Atlas:
    """Two-variable charts around the node; no potentials attached.

    With ``perturb_cocycle`` the clifford-to-chekanov map gets a spurious
    extra factor, which the cocycle check must flag.
    """
    charts = (
        Chart("immersed", ("u", "v")),
        Chart("chekanov", ("x1", "y1")),
        Chart("clifford", ("x2", "y2")),
    )
    transitions = [_wall_crossing(*edge, [_slot_maps()[edge].bindings]) for edge in _NODE_EDGES]
    if perturb_cocycle:
        k = _NODE_EDGES.index(("clifford", "chekanov"))
        t = transitions[k]
        bindings = dict(t.bindings, y1=t.bindings["y1"] * parse("1 + x2"))
        transitions[k] = replace(t, bindings=bindings)
    return Atlas("local-model", charts, tuple(transitions))


# -- the gr(2,4) and quadric atlases ---------------------------------------


def gr24_atlas(flip_sign: bool = False) -> Atlas:
    """The product atlas of the smallest Grassmannian.  ``flip_sign``
    negates the y1_1 term of the chekanov[1,2] potential, which potential
    transport must flag."""
    a = gr_product_atlas(4)
    if flip_sign:
        p = a.potentials["chekanov[1,2]"]
        terms = [-t if t == parse("y1_1") else t for t in p.terms]
        a.potentials["chekanov[1,2]"] = replace(p, terms=terms)
    return a


def og15_atlas() -> Atlas:
    """Quadric threefold: node chart, both smoothings, and the degenerate
    toric fiber reached through the second smoothing."""
    og = og_potentials()
    potentials = {p.chart: p for p in (og.immersed, og.chekanov, og.clifford, og.toric_fiber)}
    charts = tuple(Chart(p.chart, p.variables) for p in potentials.values())
    # each chart suffixes the holonomy z with its index: 0 immersed,
    # 1 chekanov, 2 clifford; a node wall crossing renames it
    z = {"immersed": "z0", "chekanov": "z1", "clifford": "z2"}
    transitions = tuple(
        _wall_crossing(s, t, [_slot_maps()[s, t].bindings], [(z[t], z[s])])
        for s, t in _NODE_EDGES
    ) + (
        Transition("toric-fiber", "clifford", og_bridge()),
        Transition(
            "clifford",
            "toric-fiber",
            {"y1_1": parse("x2"), "y1_2": parse("y2^2/z2"), "y1_3": parse("y2")},
        ),
    )
    return Atlas("og(1,5)", charts, transitions, potentials)


# -- product charts over a pair set ----------------------------------------


def product_charts(n: int, pair_set) -> dict:
    """The torus chart and the three chart types over one pair set."""
    return {kind: Chart(*chart_coordinates(n, pair_set, kind)) for kind in CHART_KINDS}


def gr_tree_atlas(n: int) -> Atlas:
    """The tree of charts through the shared monotone torus, without
    potentials: for every maximal pair set, the three chart types glued to
    each other and, via the clifford type, to the torus chart."""
    pair_sets = sorted(index_sets(n)[1], key=sorted)
    charts = [product_charts(n, frozenset())["torus"]]
    transitions: list[Transition] = []
    # each edge's slot map renamed to each slot, once per build
    slots = sorted({i for ps in pair_sets for i, _ in ps})
    renamed = {
        (edge, i): _renamed(edge, slot_coordinates(i)) for edge in _SLOT_MAPS for i in slots
    }
    for ps in pair_sets:
        named = product_charts(n, ps)
        transitions += (
            _wall_crossing(
                named[s].name, named[t].name, [renamed[(s, t), i] for i, _ in sorted(ps)]
            )
            for s, t in sorted(_SLOT_MAPS)
        )
        charts += (named[kind] for kind in CHART_KINDS[1:])
    return Atlas(f"gr(2,{n})-tree", tuple(charts), tuple(transitions))


def gr_product_atlas(n: int) -> Atlas:
    """The tree of ``gr_tree_atlas`` with a potential on every chart: the
    torus and immersed potentials, and on chekanov and clifford charts the
    immersed and torus potentials pulled back term by term."""
    a = gr_tree_atlas(n)
    torus = gc_torus_potential(n)
    a.potentials["torus"] = torus
    # after the torus, the tree holds each pair set's charts in kind order
    charts = iter(a.charts[1:])
    for ps in sorted(index_sets(n)[1], key=sorted):
        named = dict(zip(CHART_KINDS[1:], charts))
        immersed = immersed_potential(n, ps)
        into_immersed = a.transition(named["chekanov"].name, named["immersed"].name)
        into_torus = a.transition(named["clifford"].name, "torus")
        pulled = {
            "immersed": immersed.terms,
            "chekanov": [a._pullback(w, into_immersed.bindings) for w in immersed.terms],
            "clifford": [a._pullback(w, into_torus.bindings) for w in torus.terms],
        }
        for kind, w in pulled.items():
            chart = named[kind]
            a.potentials[chart.name] = Potential(w, chart.name, chart.variables, torus.model)
    return a
