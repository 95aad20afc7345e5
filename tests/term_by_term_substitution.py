"""Substitution one normalized operation at a time, the reference for
lgmirror.rational's substitution over one common denominator.

Every power, product and partial sum is a canonical RationalFunction, and
each denominator factor is divided out by its own inverse, so the two
routes share only the arithmetic of RationalFunction: they can check each
other's canonical forms.
"""
from typing import Mapping

from lgmirror.laurent import LaurentPoly
from lgmirror.rational import RationalFunction, as_rational


def substitute_poly(p: LaurentPoly, vals: Mapping[str, RationalFunction]) -> RationalFunction:
    if not any(v in vals for v in p.vars):
        return RationalFunction.from_poly(p)
    power_cache: dict[tuple[str, int], RationalFunction] = {}

    def power(name: str, k: int) -> RationalFunction:
        got = power_cache.get((name, k))
        if got is None:
            base = vals.get(name)
            if base is None:
                got = RationalFunction.from_poly(LaurentPoly.var(name, k))
            else:
                got = base ** k
            power_cache[(name, k)] = got
        return got

    total = RationalFunction.constant(0)
    for e, c in p.terms.items():
        term = RationalFunction.constant(c)
        for name, k in zip(p.vars, e):
            if k:
                term = term * power(name, k)
        total = total + term
    return total


def substitute(self: RationalFunction, bindings: Mapping[str, object]) -> RationalFunction:
    """Simultaneously replace variables; unbound variables pass through,
    and a function with no bound variable comes back as itself."""
    vals = {name: as_rational(v) for name, v in bindings.items()}
    if vals.keys().isdisjoint(self.variables()):
        return self
    out = substitute_poly(self.num, vals)
    for f, m in self.factors:
        out = out / substitute_poly(f, vals) ** m
    return out
