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

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
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
    "covering_certificate",
    "covering_check",
    "geometric_to_plucker",
    "parametrize",
    "pvar",
    "sum_equal_mod_plucker",
]


def pvar(i: int, j: int) -> str:
    if not 1 <= i < j:
        raise ValueError(f"need 1 <= i < j, got ({i}, {j})")
    return f"p_{i},{j}"


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
        total = LaurentPoly({})
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


# -- covering -------------------------------------------------------------

# A sampled entry is num/den with num in +-1..9 and den in 1..9, every pair
# equally likely, kept as the integer num * (2520 // den): the fraction
# times lcm(1..9) = 2520.  Each minor is then 2520^2 times the minor of the
# fractions, an exact int with the same zero pattern.  |entry| <= 22,680
# and |minor| <= 1.03e9.
_LCM = 2520
_ENTRIES = tuple(num * (_LCM // den) for num in range(-9, 10) if num for den in range(1, 10))
_BLOCK = 64  # rows per draw from the random stream
_ATTEMPTS = 1000  # rows drawn for one sample before giving up


@dataclass
class CoveringReport:
    n: int
    samples: int
    failures: list
    degenerate_checked: int
    degenerate_failures: list
    vanishing: int  # sampled points with some p_{k,n} = 0, 2 <= k <= n-2

    @property
    def ok(self) -> bool:
        return not self.failures and not self.degenerate_failures


def _waived(n: int, pair_set) -> frozenset:
    """The k whose p_{k,n} the chart of the pair set lets vanish.

    The chart waives the nonvanishing requirement on p_{n-i-1,n} exactly
    for the chosen pairs (i, i+1); every other p_{k,n}, 2 <= k <= n-2, must
    be nonzero.  Larger pair sets therefore give larger charts.
    """
    return frozenset([n - i - 1 for i, _ in pair_set])


def _chart_waivers(n: int) -> list:
    """Each maximal pair set of gr(2,n) with the k its chart waives."""
    return [(m, _waived(n, m)) for m in index_sets(n)[1]]


def _charts_holding(waivers, vanishing: frozenset) -> list:
    """The maximal pair sets whose charts hold a point off the divisor whose
    p_{k,n} vanish exactly for k in ``vanishing``."""
    return [m for m, waived in waivers if vanishing <= waived]


def _minors(top, bottom) -> list:
    """The 2n - 3 minors of two rows that the covering reads: the cyclic
    p_{1,2}, ..., p_{n-1,n}, p_{1,n}, then p_{k,n} for k = 2..n-2."""
    a_n, b_n = top[-1], bottom[-1]
    out = [a * d - b * c for a, b, c, d in zip(top, top[1:], bottom, bottom[1:])]
    out.append(top[0] * b_n - a_n * bottom[0])
    out += [a * b_n - a_n * b for a, b in zip(top[1:-2], bottom[1:-2])]
    return out


def _pattern(n: int, top, bottom):
    """None when the plane of the rows lies on the divisor; else the k,
    2 <= k <= n-2, with p_{k,n} = 0, ascending."""
    minors = _minors(top, bottom)
    if 0 in minors[:n]:
        return None
    column = minors[n:]
    return tuple(k for k, p in enumerate(column, 2) if p == 0) if 0 in column else ()


def _rows(n: int, seed: int):
    """Endless integer row pairs from one random stream, drawn ``_BLOCK``
    rows at a time, so a longer run extends a shorter one."""
    rng = random.Random(seed)
    width = 2 * n
    while True:
        block = rng.choices(_ENTRIES, k=_BLOCK * width)
        for r in range(0, len(block), width):
            yield block[r : r + n], block[r + n : r + width]


def _degenerate_point(n: int, zero_rows: set[int]) -> tuple[list, list]:
    # column k parallel to column n kills exactly the minor (k, n)
    top = [1 if i in zero_rows or i == n else i for i in range(1, n + 1)]
    bottom = [0 if i in zero_rows or i == n else 1 for i in range(1, n + 1)]
    return top, bottom


def covering_check(n: int, num_samples: int, seed: int) -> CoveringReport:
    """Sampling falsification test of the maximal-chart covering.

    Random points off the divisor, plus one engineered point per possible
    single vanishing p_{k,n}, must each land in some maximal chart.  A
    point is two integer rows; one whose plane lies on the divisor is drawn
    again.  Only its vanishing pattern decides membership, so each distinct
    pattern is tested against the charts once.
    """
    check_size(n)
    if num_samples < 1:
        raise ValueError(f"need a sample count >= 1, got {num_samples}")
    waivers = _chart_waivers(n)
    covered = {}  # vanishing pattern -> whether some maximal chart holds it
    failures = []
    vanishing = 0
    rows = _rows(n, seed)
    for _ in range(num_samples):
        for _, (top, bottom) in zip(range(_ATTEMPTS), rows):
            pattern = _pattern(n, top, bottom)
            if pattern is not None:
                break
        else:
            raise RuntimeError("could not sample a point off the divisor")
        if pattern:
            vanishing += 1
        if pattern not in covered:
            covered[pattern] = bool(_charts_holding(waivers, frozenset(pattern)))
        if not covered[pattern]:
            failures.append({"rows": [top, bottom], "vanishing": list(pattern)})
    degenerate_failures = []
    ks = range(2, n - 1)
    for k in ks:
        top, bottom = _degenerate_point(n, {k})
        if _pattern(n, top, bottom) != (k,):
            raise RuntimeError(f"engineered point does not vanish at p_{k},{n} alone")
        if not _charts_holding(waivers, frozenset({k})):
            degenerate_failures.append({"rows": [top, bottom], "vanishing": [k]})
    return CoveringReport(n, num_samples, failures, len(ks), degenerate_failures, vanishing)


def covering_certificate(n: int) -> list[dict]:
    """Exhaustive cover proof by vanishing patterns, for every n.

    On the open part no two consecutive p_{k,n}, 2 <= k < n-2, both
    vanish: the three-term relation on (1, k, k+1, n) would force
    p_{1,n} p_{k,k+1} = 0, a product of forbidden coordinates.  So the
    vanishing pattern of (p_{2,n}, ..., p_{n-2,n}) is a set of pairwise
    non-adjacent k, and k = n - i - 1 turns it into a pair set of
    ``index_sets(n)[0]``: k runs over 2..n-2 as i runs over 1..n-3, and
    adjacent k are overlapping pairs.  ``_waived`` is that map: a chart
    lets exactly p_{n-i-1,n} vanish for each chosen pair (i, i+1), so a
    point with pattern P lies in the chart of a maximal set M exactly when
    M contains the pair set of P.  Each row lists those M, in
    ``index_sets`` order; the charts cover the open part when no list is
    empty.
    """
    check_size(n)
    waivers = _chart_waivers(n)
    rows = []
    for pairs in index_sets(n)[0]:
        zeros = _waived(n, pairs)
        charts = _charts_holding(waivers, zeros)
        rows.append(
            {
                "vanishing": sorted(zeros),
                "covered": bool(charts),
                "charts": [sorted(m) for m in charts],
            }
        )
    rows.sort(key=lambda row: (len(row["vanishing"]), row["vanishing"]))
    return rows
