"""Superpotential constructors.

A potential is its tuple of terms, one per disk class; identities between
potentials are decided on the term lists by ``rational.sum_is_zero``.  The
summed function ``Potential.expr`` is built on first use, only where a whole
sum is needed: the critical-point system, the Koszul centring, the printout.

The torus potential has one Laurent monomial per facet (c, b) of the
moment polytope ``ladder.moment_inequalities(n)``, in facet order: the
holonomies z{row}_j to the powers c, times T^(b - 2 sum(c)), the facet's
constant once every coordinate is shifted by +2.  That power is n on the
top facet and 0 on the rest.  Each admissible set of pairs surgers it: the
pair (i, i+1) trades the holonomies z1_{i+1} and z2_i for the immersed
u_i and v_i, so the six facets whose normal involves either leave, and
four terms in u_i, v_i enter.  Disjoint pairs trade disjoint holonomies.

The homogeneous-coordinate side, with q in place of T^n, surgers the torus
potential pushed into Plucker ratios.  Per pair four facets leave: the
tight set of the pair's face, pinned to the four centre edges of its
diagram.  The two pinned to rungs are a = z1_{i+1}/z1_i and
b' = z2_{i+1}/z2_i, the two pinned to middle-rail segments
c = z1_{i+1}/z2_{i+1} and d = z1_i/z2_i.  Two terms enter, (a + b') r and
(c + d) r, where with b = n - i - 2

    r = p_{b,b+2} p_{b+1,n} / (p_{b,b+1} p_{b+2,n} + p_{b,n} p_{b+1,b+2})

is 1 by the three-term relation on (b, b+1, b+2, n).  Both products are
Laurent monomials free of negative powers of p_{b+1,n}, the coordinate the
pair's chart lets vanish.  The result is still checked against Rietsch's
potential, written out on its own and sharing no code with the surgery,
so a wrong facet cannot pass.  The two sides agree modulo the quadratic
coordinate relations with q identified with T^n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

from .ladder import (
    chart_coordinates,
    check_pair_set,
    check_size,
    diagram_from_pairs,
    holonomy,
    moment_inequalities,
    slot_coordinates,
    tight_edge_indices,
)
from .laurent import LaurentPoly
from .plucker import geometric_to_plucker, pvar, sum_equal_mod_plucker
from .rational import (
    RationalFunction,
    as_rational,
    over_common_denominator,
    parse,
    sum_is_zero,
)

_T = RationalFunction.var("T")
_Q = RationalFunction.var("q")
_ONE = RationalFunction.constant(1)

@dataclass(frozen=True)
class Potential:
    """A superpotential: its terms, its chart and its declared variables."""

    terms: tuple[RationalFunction, ...]
    chart: str
    variables: tuple[str, ...]
    model: str

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(map(as_rational, self.terms)))
        object.__setattr__(self, "variables", tuple(self.variables))
        stray = sorted(_names(self.terms) - set(self.variables) - {"T", "q"})
        if stray:
            raise ValueError(f"undeclared variables in potential: {stray}")

    @cached_property
    def expr(self) -> RationalFunction:
        """The sum of the terms, built on first use.  The numerators are
        added in the order of a term-by-term sum, the running numerator
        lifted over each denominator factor as it first appears, and the
        total is normalized once."""
        total = RationalFunction.constant(0)
        for term in self.terms:
            lcm, (left, right) = over_common_denominator((total, term))
            total = RationalFunction(left + right, tuple(sorted(lcm, key=lambda fm: fm[0].key())))
        return RationalFunction.make(total.num, total.factors)

    def substitute_terms(self, bindings) -> tuple[RationalFunction, ...]:
        """The terms with the bindings substituted, one term at a time."""
        return tuple(t.substitute(bindings) for t in self.terms)


def _names(terms) -> set[str]:
    return {v for t in terms for v in t.variables()}


# -- torus and surgered potentials ----------------------------------------


@lru_cache(maxsize=None)
def _facet_terms(n: int, quantum: str) -> tuple[RationalFunction, ...]:
    """One Laurent monomial per facet of ``moment_inequalities(n)``, in
    facet order, with the quantum monomial written T^n (``quantum`` "T")
    or q (``quantum`` "q"); built once per (n, quantum) and shared."""
    labels, ineqs, _ = moment_inequalities(n)
    terms = []
    for c, b in ineqs:
        # the facet's constant once every coordinate is shifted by +2
        power = b - 2 * sum(c)
        if power not in (0, n):
            raise ValueError(f"facet of gr(2,{n}) at T-power {power}, not 0 or {n}")
        exps = {holonomy(*lab): int(k) for lab, k in zip(labels, c) if k}
        if power:
            exps[quantum] = n if quantum == "T" else 1
        terms.append(RationalFunction.from_poly(LaurentPoly.monomial(exps)))
    return tuple(terms)


def gc_torus_potential(n: int) -> Potential:
    """Disk potential of the monotone torus fiber: one Laurent monomial per
    facet of the moment polytope, in facet order."""
    chart, variables = chart_coordinates(n, frozenset(), "torus")
    return Potential(_facet_terms(n, "T"), chart, variables, f"gr(2,{n})")


def _z1(n: int, j: int) -> RationalFunction:
    # the slot one past the top row is, by convention, the quantum monomial
    if j == n - 1:
        return _T**n
    return RationalFunction.var(holonomy(1, j))


def _z2(j: int) -> RationalFunction:
    # the slot before the bottom row starts is, by convention, 1
    if j == 0:
        return _ONE
    return RationalFunction.var(holonomy(2, j))


def _inserted_terms(n: int, i: int) -> list[RationalFunction]:
    """The four disk classes in u_i, v_i that the pair (i, i+1) adds."""
    slot = slot_coordinates(i)
    u = RationalFunction.var(slot["u"])
    v = RationalFunction.var(slot["v"])
    return [
        u,
        u * _z1(n, i) / _z2(i + 1),
        v * _z2(i + 1) / _z2(i - 1),
        v * _z1(n, i + 2) / ((u * v - 1) * _z1(n, i)),
    ]


def immersed_terms(n: int, pair_set) -> list[RationalFunction]:
    """Terms of the surgered potential for one admissible set of pairs: the
    facets whose normal involves no traded holonomy, then the inserted
    terms pair by pair."""
    pair_set = check_pair_set(n, pair_set)
    traded = {slot_coordinates(i)[k] for i, _ in pair_set for k in ("zb", "wa")}
    kept = [t for t in _facet_terms(n, "T") if traded.isdisjoint(t.variables())]
    return kept + [t for i, _ in sorted(pair_set) for t in _inserted_terms(n, i)]


def immersed_potential(n: int, pair_set) -> Potential:
    """Disk potential of the immersed Lagrangian selected by the pair set."""
    chart, variables = chart_coordinates(n, pair_set, "immersed")
    return Potential(immersed_terms(n, pair_set), chart, variables, f"gr(2,{n})")


# -- the quadric charts ----------------------------------------------------


class OgPotentials(NamedTuple):
    immersed: Potential
    chekanov: Potential
    clifford: Potential
    toric_fiber: Potential
    rietsch: Potential


def og_potentials() -> OgPotentials:
    """The five potentials of the quadric threefold og(1,5)."""
    five = "og(1,5)"
    return OgPotentials(
        immersed=Potential(
            ("v", "v*z0", "u^2/(z0*(u*v - 1))"), "immersed", ("u", "v", "z0"), five
        ),
        chekanov=Potential(
            ("1/y1", "x1/y1", "z1/y1", "x1*z1/y1", "y1^2/(x1*z1)"),
            "chekanov",
            ("x1", "y1", "z1"),
            five,
        ),
        clifford=Potential(
            ("1/y2", "z2/y2", "y2^2*(x2 + 1)^2/(x2*z2)"),
            "clifford",
            ("x2", "y2", "z2"),
            five,
        ),
        toric_fiber=Potential(
            ("1/y1_3", "y1_3/y1_2", "(y1_2/y1_1)*(1 + y1_1)^2"),
            "toric-fiber",
            ("y1_1", "y1_2", "y1_3"),
            five,
        ),
        rietsch=Potential(
            ("p1/p0", "p2^2/(p1*p2 - p0*p3)", "q*p1/p3"),
            "plucker",
            ("p0", "p1", "p2", "p3"),
            five,
        ),
    )


def og_bridge() -> dict[str, RationalFunction]:
    """Clifford-chart coordinates as functions on the degenerate fiber torus."""
    return {
        "x2": parse("y1_1"),
        "y2": parse("y1_3"),
        "z2": parse("y1_3^2/y1_2"),
    }


def og15_recovery_bindings() -> dict[str, RationalFunction]:
    """Chart coordinates of the quadric threefold as homogeneous-coordinate
    ratios; all three charts restrict to the same potential under these."""
    p0, p1, p2, p3 = (RationalFunction.var(f"p{k}") for k in range(4))
    x = (p1 * p2 - p0 * p3) / (p0 * p3)
    return {
        "u": p2 / p3,
        "v": p1 / p0,
        "z0": p0 / p3,
        "x1": x,
        "y1": p2 / p3,
        "z1": p0 / p3,
        "x2": x,
        "y2": p0 / p1,
        "z2": p0 / p3,
    }


# -- homogeneous-coordinate potentials ------------------------------------


def _p(i: int, j: int) -> RationalFunction:
    return RationalFunction.var(pvar(i, j))


def _rietsch_terms(n: int) -> list[RationalFunction]:
    check_size(n)
    terms = [_Q * _p(2, n) / _p(1, 2)]
    for j in range(2, n):
        terms.append(_p(j - 1, j + 1) / _p(j, j + 1))
    terms.append(_p(1, n - 1) / _p(1, n))
    return terms


def rietsch_gr(n: int) -> Potential:
    """Quantum-period superpotential in homogeneous coordinates; all
    denominators are frozen variables."""
    terms = _rietsch_terms(n)
    variables = tuple(sorted(_names(terms) - {"q"}))
    return Potential(terms, "plucker", variables, f"gr(2,{n})")


@lru_cache(maxsize=None)
def _pushed_torus_terms(n: int) -> tuple[RationalFunction, ...]:
    """The torus terms, with q for the quantum monomial, pushed into
    Plucker ratios; indexed by facet, built once per n and shared."""
    push = geometric_to_plucker(n, frozenset()).bindings
    return tuple(t.substitute(push) for t in _facet_terms(n, "q"))


def _merged_facets(n: int, i: int) -> tuple[list[int], list[int]]:
    """The tight set of the face of the pair (i, i+1), pinned to the four
    centre edges of its diagram: the facets pinned to rungs (a, b') and
    those pinned to middle-rail segments (d, c)."""
    _, _, pinned = moment_inequalities(n)
    tight = tight_edge_indices(diagram_from_pairs(n, {(i, i + 1)}))
    # a rung joins two vertices of one column, a rail segment two columns
    rungs = [k for (u, v), k in pinned.items() if k in tight and u[1] == v[1]]
    rails = [k for (u, v), k in pinned.items() if k in tight and u[1] != v[1]]
    return rungs, rails


@lru_cache(maxsize=None)
def _restricted_terms(n: int, pair_set: frozenset) -> tuple[RationalFunction, ...]:
    pushed = _pushed_torus_terms(n)
    merged, gone = [], set()
    for i, _ in sorted(pair_set):
        b = n - i - 2
        # the three-term relation on (b, b+1, b+2, n) as a ratio equal to 1;
        # it clears p_{b+1,n} from the denominators of a + b' and c + d
        ratio = _p(b, b + 2) * _p(b + 1, n) / (
            _p(b, b + 1) * _p(b + 2, n) + _p(b, n) * _p(b + 1, b + 2)
        )
        rungs, rails = _merged_facets(n, i)
        gone.update(rungs + rails)
        (a, b1), (d, c) = ([pushed[k] for k in facets] for facets in (rungs, rails))
        merged += [(a + b1) * ratio, (c + d) * ratio]
    kept = tuple(t for k, t in enumerate(pushed) if k not in gone)
    return kept + tuple(merged)


@lru_cache(maxsize=None)
def _restricted_checked(n: int, pair_set: frozenset) -> bool:
    return sum_equal_mod_plucker(
        _restricted_terms(n, pair_set), _rietsch_terms(n), n
    )


def restricted_terms(n: int, pair_set) -> list[RationalFunction]:
    """Terms of the cleared homogeneous potential, as Laurent monomials."""
    pair_set = check_pair_set(n, pair_set)
    return list(_restricted_terms(n, pair_set))


# -- the headline identity -------------------------------------------------


def parse_model(model: str) -> tuple[str, int]:
    """Model family and size from a name such as gr(2,5), gr24 or og(1,5)."""
    text = model.strip().lower().replace(" ", "")
    m = re.fullmatch(r"gr(?:\(2,(\d+)\)|2(\d+))", text)
    if m:
        n = int(m.group(1) or m.group(2))
        check_size(n)
        return "gr", n
    if text in {"og15", "og(1,5)"}:
        return "og15", 5
    raise ValueError(f"unknown model: {model!r}")


def verify_rietsch_identity(model: str, pair_set=frozenset()) -> bool:
    """Check that the disk potential, pushed through the chart dictionary,
    agrees with the homogeneous-coordinate potential.

    For the Grassmannian models the comparison runs modulo the quadratic
    coordinate relations with q identified with T^n.  For the quadric
    threefold the identity is an exact rational one at q = 1.
    """
    kind, n = parse_model(model)
    if kind == "gr":
        pair_set = check_pair_set(n, pair_set)
        dic = geometric_to_plucker(n, pair_set)
        floer = [
            t.substitute(dic.bindings) for t in immersed_terms(n, pair_set)
        ]
        target = [
            t.substitute({"q": _T**n})
            for t in restricted_terms(n, pair_set)
        ]
        return sum_equal_mod_plucker(floer, target, n) and _restricted_checked(
            n, pair_set
        )
    og = og_potentials()
    floer = og.immersed.substitute_terms(og15_recovery_bindings())
    target = og.rietsch.substitute_terms({"q": _ONE})
    return sum_is_zero([(t, 1) for t in floer] + [(t, -1) for t in target])
