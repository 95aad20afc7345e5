"""Superpotential constructors.

A potential is its tuple of terms, one per disk class; identities between
potentials are decided on the term lists by ``rational.sum_is_zero``.  The
summed function ``Potential.expr`` is built on first use, only where a whole
sum is needed: the critical-point system, the Koszul centring, the printout.

The torus potential is a Laurent polynomial in the ladder variables with
one term per key: ("row1", j) is z1_{j+1}/z1_j, ("row2", j) is
z2_{j+1}/z2_j and ("rung", j) is z1_j/z2_j, where z1_{n-1} stands for the
quantum monomial and z2_0 for 1.  Each admissible set of pairs surgers it:
per pair (i, i+1) the six terms keyed row1 i+1 and i, row2 i, rung i+1
and i, and row2 i-1 leave, and four in the immersed variables u_i, v_i
enter.  Disjoint pairs have disjoint keys, so every removal is a deletion
by key.

The homogeneous-coordinate side, with q in place of T^n, surgers the torus
potential pushed into Plucker ratios.  Per pair four terms leave, the
middle four keys of the same six: a = z1_{i+1}/z1_i (row1 i),
b' = z2_{i+1}/z2_i (row2 i), c = z1_{i+1}/z2_{i+1} (rung i+1) and
d = z1_i/z2_i (rung i).  Two enter, (a + b') r and (c + d) r, where with
b = n - i - 2

    r = p_{b,b+2} p_{b+1,n} / (p_{b,b+1} p_{b+2,n} + p_{b,n} p_{b+1,b+2})

is 1 by the three-term relation on (b, b+1, b+2, n).  Both products are
Laurent monomials free of negative powers of p_{b+1,n}, the coordinate the
pair's chart lets vanish.  The result is still checked against Rietsch's
potential, written out on its own and sharing no code with the surgery
table, so a wrong table entry cannot pass.  The two sides agree modulo the
quadratic coordinate relations with q identified with T^n.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .ladder import (
    chart_coordinates,
    check_pair_set,
    check_size,
    holonomy,
    slot_coordinates,
)
from .plucker import geometric_to_plucker, pvar, sum_equal_mod_plucker
from .rational import RationalFunction, as_rational, parse, sum_is_zero

Pair = tuple[int, int]
TermKey = tuple[str, int]  # ("row1" | "row2" | "rung", column)

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
        """The sum of the terms, built on first use."""
        return sum(self.terms, RationalFunction.constant(0))

    def substitute_terms(self, bindings) -> tuple[RationalFunction, ...]:
        """The terms with the bindings substituted, one term at a time."""
        return tuple(t.substitute(bindings) for t in self.terms)


def _names(terms) -> set[str]:
    return {v for t in terms for v in t.variables()}


# -- torus and surgered potentials ----------------------------------------


def _z1(n: int, j: int, quantum: RationalFunction) -> RationalFunction:
    # the slot one past the top row is, by convention, the quantum monomial
    if j == n - 1:
        return quantum
    return RationalFunction.var(holonomy(1, j))


def _z2(j: int) -> RationalFunction:
    # the slot before the bottom row starts is, by convention, 1
    if j == 0:
        return _ONE
    return RationalFunction.var(holonomy(2, j))


def _torus_terms(n: int, quantum: RationalFunction) -> dict[TermKey, RationalFunction]:
    terms = {("row2", 0): _z2(1), ("row1", n - 2): quantum / _z1(n, n - 2, quantum)}
    for j in range(1, n - 2):
        terms["row1", j] = _z1(n, j + 1, quantum) / _z1(n, j, quantum)
        terms["row2", j] = _z2(j + 1) / _z2(j)
    for j in range(1, n - 1):
        terms["rung", j] = _z1(n, j, quantum) / _z2(j)
    return terms


def gc_torus_potential(n: int) -> Potential:
    """Disk potential of the monotone torus fiber: one Laurent monomial per
    facet, in display order."""
    chart, variables = chart_coordinates(n, frozenset(), "torus")
    return Potential(_torus_terms(n, _T**n).values(), chart, variables, f"gr(2,{n})")


def _pair_keys(i: int) -> tuple[TermKey, ...]:
    """The six torus terms the pair (i, i+1) removes; the middle four are
    the ones the homogeneous side merges."""
    return (
        ("row1", i + 1), ("row1", i), ("row2", i),
        ("rung", i + 1), ("rung", i), ("row2", i - 1),
    )


def _inserted_terms(n: int, i: int, quantum) -> list[RationalFunction]:
    slot = slot_coordinates(i)
    u = RationalFunction.var(slot["u"])
    v = RationalFunction.var(slot["v"])
    return [
        u,
        u * _z1(n, i, quantum) / _z2(i + 1),
        v * _z2(i + 1) / _z2(i - 1),
        v * _z1(n, i + 2, quantum) / ((u * v - 1) * _z1(n, i, quantum)),
    ]


def immersed_terms(n: int, pair_set) -> list[RationalFunction]:
    """Terms of the surgered potential for one admissible set of pairs."""
    pair_set = check_pair_set(n, pair_set)
    quantum = _T**n
    terms = _torus_terms(n, quantum)
    inserted = []
    for i, _ in sorted(pair_set):
        for key in _pair_keys(i):
            del terms[key]
        inserted += _inserted_terms(n, i, quantum)
    return list(terms.values()) + inserted


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
    og14: Potential


def og_potentials() -> OgPotentials:
    """The six potentials of the quadric models, smallest cases."""
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
        og14=Potential(
            ("(y1_2/y1_1)*(1 + y1_1)^2",),
            "wallcrossed",
            ("y1_1", "y1_2"),
            "og(1,4)",
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
def _pushed_torus_terms(n: int) -> Mapping[TermKey, RationalFunction]:
    """The torus terms, with q for the quantum monomial, pushed into
    Plucker ratios; built once per n and shared, hence read-only."""
    push = geometric_to_plucker(n, frozenset()).bindings
    return MappingProxyType({key: t.substitute(push) for key, t in _torus_terms(n, _Q).items()})


@lru_cache(maxsize=None)
def _restricted_terms(n: int, pair_set: frozenset) -> tuple[RationalFunction, ...]:
    pushed = dict(_pushed_torus_terms(n))
    merged = []
    for i, _ in sorted(pair_set):
        b = n - i - 2
        # the three-term relation on (b, b+1, b+2, n) as a ratio equal to 1;
        # it clears p_{b+1,n} from the denominators of a + b1 and c + d
        ratio = _p(b, b + 2) * _p(b + 1, n) / (
            _p(b, b + 1) * _p(b + 2, n) + _p(b, n) * _p(b + 1, b + 2)
        )
        a, b1, c, d = (pushed.pop(key) for key in _pair_keys(i)[1:5])
        merged += [(a + b1) * ratio, (c + d) * ratio]
    return tuple(pushed.values()) + tuple(merged)


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
    if text in {"og14", "og(1,4)"}:
        return "og14", 4
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
    if kind == "og15":
        og = og_potentials()
        floer = og.immersed.substitute_terms(og15_recovery_bindings())
        target = og.rietsch.substitute_terms({"q": _ONE})
        return sum_is_zero([(t, 1) for t in floer] + [(t, -1) for t in target])
    raise ValueError(f"no homogeneous-coordinate identity for model {model!r}")
