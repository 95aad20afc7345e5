"""Formal-parameter expansions of rational functions.

A valuation map assigns a rational weight to each variable (the parameter
``T`` itself defaults to weight 1).  A rational function whose denominator
has a unique minimal-weight term expands into a series

    sum over e of  T^e * c_e(vars),    e < truncation order,

where each coefficient is a Laurent polynomial in the non-T variables and
the exponents are the total weights of the contributing monomials.
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


def monomial_valuation(vars_: tuple[str, ...], exps, weights: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for v, k in zip(vars_, exps):
        if k == 0:
            continue
        if v not in weights:
            raise KeyError(f"no valuation supplied for variable {v!r}")
        total += weights[v] * k
    return total


def _resolve_weights(expr_vars, valuations: Mapping[str, object]) -> dict[str, Fraction]:
    weights = {v: Fraction(w) for v, w in valuations.items()}
    if "T" in expr_vars and "T" not in weights:
        weights["T"] = Fraction(1)
    return weights


def _dense_terms(p: LaurentPoly) -> tuple[tuple[str, ...], dict]:
    """The variables of p and its terms keyed by exponent tuples over them."""
    names, exps = p.dense()
    return names, dict(zip(exps, p.terms.values()))


def novikov_expand(expr, valuations: Mapping[str, object], order) -> NovikovSeries:
    """Expand a rational function into a truncated formal series.

    Raises ValueError when the denominator has no unique minimal-weight
    term, in which case no geometric expansion exists.  Valuations, the
    lead term and the truncation read the dense views of the polynomials.
    """
    f: RationalFunction = as_rational(expr)
    order = Fraction(order)
    weights = _resolve_weights(f.variables(), valuations)
    if f.is_zero():
        return NovikovSeries((), order)
    den_vars, den_terms = _dense_terms(f.den)
    vals = {e: monomial_valuation(den_vars, e, weights) for e in den_terms}
    vmin = min(vals.values())
    leads = [e for e, v in vals.items() if v == vmin]
    if len(leads) != 1:
        raise ValueError(
            "denominator has no unique minimal-valuation term; expansion undefined"
        )
    lead = leads[0]
    lead_inv = LaurentPoly.monomial(
        {v: -x for v, x in zip(den_vars, lead)}, coeff_quotient(1, den_terms[lead])
    )
    r = (f.den - LaurentPoly.make(den_vars, {lead: den_terms[lead]})) * lead_inv
    base = f.num * lead_inv
    if base.is_zero():
        return NovikovSeries((), order)
    base_vars, base_terms = _dense_terms(base)
    base_min = min(monomial_valuation(base_vars, e, weights) for e in base_terms)
    budget = order - base_min
    if r.is_zero():
        series_poly = base
    else:
        r_vars, r_terms = _dense_terms(r)
        delta = min(monomial_valuation(r_vars, e, weights) for e in r_terms)
        if delta <= 0:
            raise ValueError(
                "denominator tail has nonpositive valuation; expansion undefined"
            )

        def prune(p: LaurentPoly) -> LaurentPoly:
            names, terms = _dense_terms(p)
            kept = {
                e: c
                for e, c in terms.items()
                if monomial_valuation(names, e, weights) < budget
            }
            return LaurentPoly.make(names, kept)

        acc = LaurentPoly.constant(1)
        power = LaurentPoly.constant(1)
        k = 0
        while True:
            k += 1
            if delta * k >= budget:
                break
            power = prune(power * (-r))
            if power.is_zero():
                break
            acc = acc + power
        series_poly = base * acc
    bucket: dict[Fraction, dict] = {}
    series_vars, series_terms = _dense_terms(series_poly)
    t_index = series_vars.index("T") if "T" in series_vars else None
    rest_vars = tuple(v for v in series_vars if v != "T")
    for e, c in series_terms.items():
        v = monomial_valuation(series_vars, e, weights)
        if v >= order:
            continue
        if t_index is None:
            rest_e = e
        else:
            rest_e = tuple(x for i, x in enumerate(e) if i != t_index)
        slot = bucket.setdefault(v, {})
        slot[rest_e] = slot.get(rest_e, 0) + c
    terms = []
    for v in sorted(bucket):
        coeff = LaurentPoly.make(rest_vars, bucket[v])
        if not coeff.is_zero():
            terms.append((v, coeff))
    return NovikovSeries(tuple(terms), order)
