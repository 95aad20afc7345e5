"""Plucker-coordinate algebra for the Grassmannian of planes in n-space.

Coordinates are the 2x2 minors p_{i,j} (1 <= i < j <= n), spelled as
variables ``p_i,j``.  Identities that should hold modulo the quadratic
minor relations are checked in the fan cluster chart at vertex n, with
coordinates x_k = p_{k,n} (k = 1..n-1) and f_k = p_{k,k+1} (k = 1..n-2).
The three-term relation on (i, k, j, n) reads
p_{i,j}/(x_i x_j) = p_{i,k}/(x_i x_k) + p_{k,j}/(x_k x_j); telescoped, it
gives every other coordinate as a Laurent polynomial,

    p_{i,j} = x_i x_j (f_i/(x_i x_{i+1}) + ... + f_{j-1}/(x_{j-1} x_j)),  j < n.

Why the check is sound: the cone over Gr(2,n) is irreducible of dimension
2n - 3, so its relation ideal is prime and its function field K has
transcendence degree 2n - 3.  The 2n - 3 chart coordinates generate K,
since every p_{i,j} is a rational function of them, so they are
algebraically independent and x_k -> p_{k,n}, f_k -> p_{k,k+1} is an
isomorphism of Q(x, f) onto K.  Its inverse is the substitution of the
table above.  A rational expression in the p_{i,j} is defined on the cone
exactly when its denominator does not pull back to 0, and two expressions
agree modulo the relations exactly when they agree after the pull back.
That check is exact and needs no Groebner machinery, and in this chart
every term of the potential identities is a Laurent polynomial.

Points live on the open piece where all cyclically consecutive
coordinates p_{1,2}, ..., p_{n-1,n}, p_{1,n} are nonzero.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping

from .ladder import (
    chart_coordinates,
    check_pair_set,
    check_size,
    diagram_from_pairs,
    holonomy,
    index_sets,
    monotone_point,
    slot_coordinates,
)
from .laurent import LaurentPoly
from .rational import RationalFunction, as_rational, sum_is_zero

Pair = tuple[int, int]

__all__ = [
    "ChartDictionary",
    "CoveringReport",
    "GrassmannPoint",
    "chart_membership",
    "covering_certificate",
    "covering_check",
    "cyclic_pairs",
    "geometric_to_plucker",
    "parametrize",
    "pvar",
    "random_point",
    "sum_equal_mod_plucker",
]


def pvar(i: int, j: int) -> str:
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return f"p_{i},{j}"


def cyclic_pairs(n: int) -> tuple[Pair, ...]:
    """The index pairs whose coordinates are required nonzero."""
    return tuple((j, j + 1) for j in range(1, n)) + ((1, n),)


# -- identity checking ----------------------------------------------------


@lru_cache(maxsize=None)
def _fan_chart(n: int) -> Mapping[str, RationalFunction]:
    """p_{i,j} in the fan cluster chart at vertex n, built once per n and
    shared by every caller, hence read-only."""
    out = {}
    for i in range(1, n):
        x_i = LaurentPoly.var(f"x_{i}")
        out[pvar(i, n)] = as_rational(x_i)
        # the telescoped three-term relation, one summand per step k -> k+1
        total = LaurentPoly((), {})
        for j in range(i + 1, n):
            k = j - 1
            total = total + LaurentPoly.monomial({f"f_{k}": 1, f"x_{k}": -1, f"x_{j}": -1})
            out[pvar(i, j)] = as_rational(x_i * LaurentPoly.var(f"x_{j}") * total)
    return MappingProxyType(out)


def parametrize(expr, n: int) -> RationalFunction:
    """Pull an expression in the p-variables back to the fan cluster chart.

    Every p_{i,j} becomes the Laurent polynomial of the module docstring in
    x_k = p_{k,n} and f_k = p_{k,k+1}.  These 2n - 3 coordinates are
    algebraically independent and generate the function field of the cone
    over Gr(2,n), whose dimension is 2n - 3, so the pull back is an
    isomorphism of function fields: an identity holds modulo the Plucker
    relations exactly when it holds after the pull back.

    Only the quantum names q and T pass through untouched.  Any other name
    that is not a coordinate of Gr(2,n) raises ValueError: a name of the
    chart's form (x_k, f_k) would be captured by the pull back, and any
    other free name would make the verdict one about a different function
    field.
    """
    f = as_rational(expr)
    table = _fan_chart(n)
    stray = [v for v in f.variables() if v not in table and v not in ("q", "T")]
    if stray:
        raise ValueError(f"not a coordinate of Gr(2,{n}): {', '.join(stray)}")
    try:
        return f.substitute(table)
    except ZeroDivisionError:
        raise ValueError("expression undefined on the Grassmannian") from None


def sum_equal_mod_plucker(terms1, terms2, n: int) -> bool:
    """Equality of two term sums as functions on the minor cone.

    Structurally equal terms on the two sides cancel before the pull back,
    so only the survivors are parametrized, and ``sum_is_zero`` decides
    their signed sum.  In this package every survivor pulls back to a
    Laurent polynomial, so nothing is multiplied out.
    """
    count = Counter(map(as_rational, terms1))
    count.subtract(map(as_rational, terms2))
    return sum_is_zero((parametrize(t, n), m) for t, m in count.items() if m)


# -- the geometric dictionaries ------------------------------------------


@dataclass(frozen=True)
class ChartDictionary:
    """Bindings from chart variables to p-ratios, with valuation factors.

    ``bindings`` substitutes each surviving chart variable by a ratio of
    coordinates; composed with a potential it produces a function of the
    p-variables.  ``tpowers`` records, per variable, the power k such
    that the unit-valuation chart coordinate is T^k times the bound
    ratio.
    """

    n: int
    pair_set: frozenset
    bindings: dict[str, RationalFunction] = field(compare=False)
    tpowers: dict[str, int] = field(compare=False)

    @property
    def q_power(self) -> int:
        """The power of T the quantum parameter carries: q = T^n."""
        return self.n


def _ratio(num: Pair, den: Pair) -> RationalFunction:
    return as_rational(LaurentPoly.var(pvar(*num))) / as_rational(
        LaurentPoly.var(pvar(*den))
    )


def geometric_to_plucker(n: int, pair_set: frozenset) -> ChartDictionary:
    """Dictionary sending surviving chart variables into p-ratios.

    Torus directions keep z-variables; each chosen pair (i, i+1) trades
    two of them for the immersed pair u_i, v_i.  Valuation factors follow
    the staircase: the holonomy at (row, j) sits at depth y + 2, y its
    coordinate at ``monotone_point`` of the pair set's diagram (on the kept
    ones j+1 on row 1 and j on row 2); each u at 1, each v at -1.
    """
    pair_set = check_pair_set(n, pair_set)
    point = monotone_point(diagram_from_pairs(n, pair_set))
    # (numerator pair, denominator pair, T-power) of every name a chart may use
    ratios: dict[str, tuple[Pair, Pair, int]] = {}
    for j in range(1, n - 1):
        ratios[holonomy(1, j)] = ((n - j - 1, n - j), (n - j, n), -int(point[1, j] + 2))
        ratios[holonomy(2, j)] = ((n - j - 1, n), (n - 1, n), -int(point[2, j] + 2))
    for i, _ in pair_set:
        slot = slot_coordinates(i)
        ratios[slot["u"]] = ((n - i - 2, n - i), (n - i - 1, n - i), -1)
        ratios[slot["v"]] = ((n - i - 1, n), (n - i - 2, n), 1)
    bindings: dict[str, RationalFunction] = {}
    tpowers: dict[str, int] = {}
    for v in chart_coordinates(n, pair_set, "immersed")[1]:
        num, den, tpowers[v] = ratios[v]
        bindings[v] = _ratio(num, den)
    return ChartDictionary(n, pair_set, bindings, tpowers)


# -- points ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A plane through the origin, spanned by two coordinate rows and
    recorded by their minors, each computed when read.

    Exact points carry Fractions and satisfy the relations identically;
    numeric points carry complex values, checked to double precision.
    Two points are equal when they are the same plane, however spanned.
    """

    n: int
    top: tuple
    bottom: tuple

    NUMERIC_TOL = 1e-10

    @classmethod
    def from_vectors(cls, n, top, bottom) -> "GrassmannPoint":
        if len(top) != n or len(bottom) != n:
            raise ValueError("need two coordinate rows of length n")
        pt = cls(n, tuple(top), tuple(bottom))
        if not pt.in_open_part():
            raise ValueError("point lies on the forbidden divisor")
        return pt

    def minor(self, i: int, j: int):
        a, b = self.top, self.bottom
        return a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]

    def _plane(self) -> tuple:
        """The minors divided by the first nonzero one: the same for every
        pair of rows spanning the plane."""
        minors = self.values.values()
        lead = next((m for m in minors if m != 0), 1)
        if self.is_exact():
            lead = Fraction(lead)
        return tuple(m / lead for m in minors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannPoint):
            return NotImplemented
        return self.n == other.n and self._plane() == other._plane()

    def __hash__(self) -> int:
        return hash((self.n, self._plane()))

    @cached_property
    def values(self) -> dict[Pair, object]:
        """Every minor p_{i,j}, i < j, built on first use."""
        return {p: self.minor(*p) for p in itertools.combinations(range(1, self.n + 1), 2)}

    def is_exact(self) -> bool:
        # the minors are exact exactly when both rows are
        return all(isinstance(v, (Fraction, int)) for v in self.top + self.bottom)

    def scale(self) -> float:
        return max(abs(complex(v)) for v in self.values.values())

    @cached_property
    def _zero_tol(self):
        """None on an exact point; on a numeric one, the size up to which a
        minor counts as zero."""
        return None if self.is_exact() else self.NUMERIC_TOL * max(self.scale(), 1.0)

    def minor_nonzero(self, i: int, j: int) -> bool:
        """Whether p_{i,j} is nonzero: exactly on an exact point, beyond
        ``NUMERIC_TOL`` times the largest minor (at least 1) on a numeric one."""
        m = self.minor(i, j)
        tol = self._zero_tol
        return m != 0 if tol is None else abs(complex(m)) > tol

    def in_open_part(self) -> bool:
        return all(self.minor_nonzero(*p) for p in cyclic_pairs(self.n))

    def as_dict(self) -> dict:
        def enc(v):
            if isinstance(v, (Fraction, int)):
                return str(v)
            c = complex(v)
            return [c.real, c.imag]

        values = sorted(self.values.items())
        return {"n": self.n, "p": {f"{i},{j}": enc(v) for (i, j), v in values}}


def random_point(n: int, seed: int) -> GrassmannPoint:
    """Deterministic pseudo-random exact point off the divisor."""
    rng = random.Random(seed)

    def draw():
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))

    for _ in range(1000):
        top = [draw() for _ in range(n)]
        bottom = [draw() for _ in range(n)]
        try:
            return GrassmannPoint.from_vectors(n, top, bottom)
        except ValueError:
            continue
    raise RuntimeError("could not sample a point off the divisor")


def chart_membership(pt: GrassmannPoint, pair_set: frozenset) -> bool:
    """Whether the point lies in the chart attached to the pair set.

    The chart waives the nonvanishing requirement on p_{n-i-1,n} exactly
    for the chosen pairs (i, i+1); all other such coordinates must be
    nonzero.  Larger pair sets therefore give larger charts.
    """
    n = pt.n
    chosen = {i for i, _ in pair_set}
    return all(pt.minor_nonzero(n - i - 1, n) for i in range(1, n - 2) if i not in chosen)


# -- covering -------------------------------------------------------------


@dataclass
class CoveringReport:
    n: int
    samples: int
    failures: list
    degenerate_checked: int
    degenerate_failures: list

    @property
    def ok(self) -> bool:
        return not self.failures and not self.degenerate_failures


def _degenerate_point(n: int, zero_rows: set[int]) -> GrassmannPoint:
    # column k parallel to column n kills exactly the minor (k, n)
    top = [Fraction(1) if i in zero_rows or i == n else Fraction(i) for i in range(1, n + 1)]
    bottom = [Fraction(0) if i in zero_rows or i == n else Fraction(1) for i in range(1, n + 1)]
    return GrassmannPoint.from_vectors(n, top, bottom)


def covering_check(n: int, num_samples: int, seed: int) -> CoveringReport:
    """Sampling falsification test of the maximal-chart covering.

    Random points off the divisor, plus one engineered point per possible
    single vanishing p_{k,n}, must each land in some maximal chart.
    """
    check_size(n)
    if num_samples < 1:
        raise ValueError(f"need a sample count >= 1, got {num_samples}")
    _, maximal = index_sets(n)
    failures = []
    for s in range(num_samples):
        pt = random_point(n, seed + s)
        if not any(chart_membership(pt, m) for m in maximal):
            failures.append(pt.as_dict())
    degenerate_failures = []
    checked = 0
    for k in range(2, n - 1):
        pt = _degenerate_point(n, {k})
        checked += 1
        if pt.minor(k, n) != 0:
            raise RuntimeError(f"engineered point does not vanish at p_{k},{n}")
        if not any(chart_membership(pt, m) for m in maximal):
            degenerate_failures.append(pt.as_dict())
    return CoveringReport(n, num_samples, failures, checked, degenerate_failures)


def covering_certificate(n: int) -> list[dict]:
    """Exhaustive cover proof by vanishing patterns, for every n.

    On the open part no two consecutive p_{k,n}, 2 <= k < n-2, both
    vanish: the three-term relation on (1, k, k+1, n) would force
    p_{1,n} p_{k,k+1} = 0, a product of forbidden coordinates.  So the
    vanishing pattern of (p_{2,n}, ..., p_{n-2,n}) is a set of pairwise
    non-adjacent k, and k = n - i - 1 turns it into a pair set of
    ``index_sets(n)[0]``: k runs over 2..n-2 as i runs over 1..n-3, and
    adjacent k are overlapping pairs.  ``chart_membership`` waives exactly
    p_{n-i-1,n} for each chosen pair (i, i+1), so a point with pattern P
    lies in the chart of a maximal set M exactly when M contains the pair
    set of P.  Each row lists those M, in ``index_sets`` order; the charts
    cover the open part when no list is empty.
    """
    check_size(n)
    pair_sets, maximal = index_sets(n)
    rows = []
    for pairs in pair_sets:
        charts = [m for m in maximal if pairs <= m]
        rows.append(
            {
                "vanishing": sorted(n - i - 1 for i, _ in pairs),
                "covered": bool(charts),
                "charts": [sorted(m) for m in charts],
            }
        )
    rows.sort(key=lambda row: (len(row["vanishing"]), row["vanishing"]))
    return rows
