"""The atlas checks without shared work, the reference for lgmirror.atlas.

Every composite image, every pullback and every comparison is computed
where it is needed, once per transition, triangle or coordinate, and the
gr(2,n) potentials are pulled back term by term with ``substitute``.  The
two routes share the arithmetic of RationalFunction and the tree of charts
and transitions, so they check each other's verdicts.
"""

from lgmirror.atlas import Atlas, Transition, gr_tree_atlas, product_charts
from lgmirror.ladder import index_sets
from lgmirror.potentials import Potential, gc_torus_potential, immersed_potential
from lgmirror.rational import RationalFunction, sum_is_zero
from lgmirror.report import Report, Verdict


def compose(t1: Transition, t2: Transition, variables: tuple[str, ...]) -> Transition:
    """The transition following t1 by t2, binding those of ``variables``
    (t2's target chart) that either transition moves."""
    if t1.target != t2.source:
        raise ValueError(
            f"cannot compose {t1.source}->{t1.target} with {t2.source}->{t2.target}"
        )
    bindings = {
        name: t2.image(name).substitute(t1.bindings)
        for name in variables
        if name in t2.bindings or name in t1.bindings
    }
    return Transition(t1.source, t2.target, bindings)


def verify_cocycle(a: Atlas) -> Report:
    verdicts = []
    adjacent = {s: sorted(targets.items()) for s, targets in sorted(a._adjacent.items())}
    for s, targets in adjacent.items():
        for t, forward in targets:
            back = a._adjacent[t].get(s)
            if t < s or back is None:
                continue
            variables = a.chart(s).variables
            loop = compose(forward, back, variables)
            bad = [v for v in variables if not loop.image(v).equal(RationalFunction.var(v))]
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
                variables = a.chart(end).variables
                comp = compose(t1, t2, variables)
                bad = [v for v in sorted(variables) if not comp.image(v).equal(direct.image(v))]
                verdicts.append(
                    Verdict(
                        f"triangle {s1}->{mid}->{end}",
                        not bad,
                        "" if not bad else f"mismatch on {bad}",
                    )
                )
    return Report(f"cocycle[{a.name}]", tuple(verdicts))


def verify_potential_transport(a: Atlas) -> Report:
    verdicts = []
    for t in a.transitions:
        ws = a.potentials.get(t.source)
        wt = a.potentials.get(t.target)
        if ws is None or wt is None:
            continue
        pulled = wt.substitute_terms(t.bindings)
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


def gr_product_atlas(n: int) -> Atlas:
    """The gr(2,n) tree with its potentials, each chekanov and clifford
    potential pulled back term by term on its own."""
    tree = gr_tree_atlas(n)
    torus = gc_torus_potential(n)
    potentials = {"torus": torus}
    for ps in sorted(index_sets(n)[1], key=sorted):
        named = product_charts(n, ps)
        immersed = immersed_potential(n, ps)
        into_immersed = tree.transition(named["chekanov"].name, named["immersed"].name)
        into_torus = tree.transition(named["clifford"].name, "torus")
        pulled = {
            "immersed": immersed.terms,
            "chekanov": immersed.substitute_terms(into_immersed.bindings),
            "clifford": torus.substitute_terms(into_torus.bindings),
        }
        for kind, w in pulled.items():
            chart = named[kind]
            potentials[chart.name] = Potential(w, chart.name, chart.variables, torus.model)
    return Atlas(tree.name, tree.charts, tree.transitions, potentials)
