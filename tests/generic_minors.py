"""The generic parametrization of the minor cone, an oracle for the
Plucker pull back.

lgmirror.plucker pulls identities back to the fan cluster chart.  This
module pulls them back along p_{i,j} = a_i b_j - a_j b_i instead, which is
onto the cone of decomposable tensors, sums the terms that share a
denominator, and lifts those sums over their common denominator.  It
shares no table with the chart, so the two routes can check each other.
"""
from collections import Counter
from functools import lru_cache
from types import MappingProxyType

from lgmirror.laurent import LaurentPoly
from lgmirror.plucker import pvar
from lgmirror.rational import RationalFunction, as_rational, over_common_denominator


@lru_cache(maxsize=None)
def generic_minors(n):
    """p_{i,j} -> a_i b_j - a_j b_i, read-only."""
    out = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            ai_bj = LaurentPoly.var(f"a{i}") * LaurentPoly.var(f"b{j}")
            aj_bi = LaurentPoly.var(f"a{j}") * LaurentPoly.var(f"b{i}")
            out[pvar(i, j)] = as_rational(ai_bj - aj_bi)
    return MappingProxyType(out)


def generic_sum_equal(terms1, terms2, n):
    """Whether two term sums agree on the minor cone, through the generic
    parametrization."""
    count = Counter()
    for t in terms1:
        count[as_rational(t)] += 1
    for t in terms2:
        count[as_rational(t)] -= 1
    # terms over the same denominator are summed before the lift
    groups = {}
    for t, m in count.items():
        if m:
            p = t.substitute(generic_minors(n))
            groups[p.factors] = groups.get(p.factors, LaurentPoly((), {})) + p.num.scale(m)
    parts = [RationalFunction(num, factors) for factors, num in groups.items() if num]
    _, numerators = over_common_denominator(parts)
    total = LaurentPoly((), {})
    for num in numerators:
        total = total + num
    return total.is_zero()
