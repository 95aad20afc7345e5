"""Formal-parameter expansions of rational functions.

A valuation map assigns a rational weight to each variable (the parameter
``T`` itself defaults to weight 1).  A rational function whose denominator
has a unique minimal-weight term expands into a series

    sum over e of  T^e * c_e(vars),    e < truncation order,

where each coefficient is a Laurent polynomial in the non-T variables and
the exponents are the total weights of the contributing monomials.

A valuation is summed over a monomial's (name, exponent) pairs, and a
coefficient's monomial is the series monomial less its ``T`` pair; no step
depends on term order, so none reads the dense view.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .laurent import LaurentPoly, coeff_quotient
from .rational import RationalFunction, as_rational


@dataclass(frozen=True)
class NovikovSeries:
    """Finite list of (exponent, coefficient) pairs, exponents strictly increasing."""

    terms: tuple[tuple[Fraction, LaurentPoly], ...]
    order: Fraction

    def __post_init__(self):
        last = None
        for e, c in self.terms:
            if last is not None and e <= last:
                raise ValueError("series exponents must be strictly increasing")
            if e >= self.order:
                raise ValueError("series term at or beyond the truncation order")
            if c.is_zero():
                raise ValueError("series coefficients must be nonzero")
            last = e
        object.__setattr__(self, "terms", tuple(self.terms))

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(e for e, _ in self.terms)

    def coefficient(self, e) -> LaurentPoly:
        e = Fraction(e)
        for ee, c in self.terms:
            if ee == e:
                return c
        return LaurentPoly({})

    def __str__(self) -> str:
        if not self.terms:
            return f"O(T^{self.order})"
        parts = [f"T^{e}*({c})" for e, c in self.terms]
        return " + ".join(parts) + f" + O(T^{self.order})"


def novikov_expand(expr, valuations: Mapping[str, object], order) -> NovikovSeries:
    """Expand a rational function into a truncated formal series.

    Raises ValueError when the denominator has no unique minimal-weight
    term, in which case no geometric expansion exists, and KeyError naming
    a variable that has no weight.
    """
    f: RationalFunction = as_rational(expr)
    order = Fraction(order)
    weights = {"T": Fraction(1), **{v: Fraction(w) for v, w in valuations.items()}}

    def valuation(mono) -> Fraction:
        try:
            return sum((weights[v] * k for v, k in mono), Fraction(0))
        except KeyError as missing:
            raise KeyError(f"no valuation supplied for variable {missing.args[0]!r}") from None

    if f.is_zero():
        return NovikovSeries((), order)
    den = f.den.terms
    vals = {m: valuation(m) for m in den}
    vmin = min(vals.values())
    leads = [m for m, v in vals.items() if v == vmin]
    if len(leads) != 1:
        raise ValueError(
            "denominator has no unique minimal-valuation term; expansion undefined"
        )
    lead = leads[0]
    lead_inv = LaurentPoly({tuple([(v, -k) for v, k in lead]): coeff_quotient(1, den[lead])})
    r = LaurentPoly({m: c for m, c in den.items() if m != lead}) * lead_inv
    base = f.num * lead_inv
    if base.is_zero():
        return NovikovSeries((), order)
    budget = order - min(map(valuation, base.terms))
    if r.is_zero():
        series_poly = base
    else:
        delta = min(map(valuation, r.terms))
        if delta <= 0:
            raise ValueError(
                "denominator tail has nonpositive valuation; expansion undefined"
            )
        acc = power = LaurentPoly.constant(1)
        k = 1
        while delta * k < budget:
            power = power * (-r)
            power = LaurentPoly({m: c for m, c in power.terms.items() if valuation(m) < budget})
            if power.is_zero():
                break
            acc = acc + power
            k += 1
        series_poly = base * acc
    bucket: dict[Fraction, dict] = {}
    for m, c in series_poly.terms.items():
        v = valuation(m)
        if v < order:
            slot = bucket.setdefault(v, {})
            rest = tuple([p for p in m if p[0] != "T"])
            slot[rest] = slot.get(rest, 0) + c
    # monomials that differ only in T share a slot when T has weight 0; the
    # quotient by 1 makes a whole Fraction sum an int
    coeffs = (
        (v, LaurentPoly({m: coeff_quotient(c, 1) for m, c in bucket[v].items() if c}))
        for v in sorted(bucket)
    )
    return NovikovSeries(tuple((v, c) for v, c in coeffs if c), order)
