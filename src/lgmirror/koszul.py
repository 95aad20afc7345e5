"""Koszul-type matrix factorizations of a potential.

Centering the potential at a chosen point splits W - W(center) into a sum
of (x_i - c_i) * f_i with exactly divided cofactors f_i.  The associated
odd operator on the exterior algebra squares to (W - W(center)) times the
identity, which is verified coefficient by coefficient in exact arithmetic.
Every coefficient of the square is a signed sum of products of two operator
entries, a linear form or a cofactor each.  The ring is commutative, so a
coefficient is fixed by the signed count of each unordered product, and
each product is computed once.  Equal signed counts with equal targets are
one fact, so each is decided once, by one exact sum; a count that cancels
to 0 contributes no term, and nothing else is assumed to cancel.
The shipped factorizations are centered at critical points of the model
potentials.  A center with algebraic coordinates adjoins a root s of a
minimal polynomial m(s), and every zero test is then made modulo m.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .laurent import LaurentPoly, coeff_quotient
from .potentials import Potential, immersed_potential, og_potentials
from .rational import RationalFunction, as_rational, over_common_denominator, parse
from .report import Report, Verdict

KOSZUL_SCHEMA = "koszul/1"

_ZERO = LaurentPoly((), {})


def reduce_adjoined(poly: LaurentPoly, modulus: LaurentPoly | None) -> LaurentPoly:
    """The residue of poly modulo the polynomial m(s) of the adjoined number,
    every power of s in 0 ... deg m - 1: m(s) * s^k = 0 removes the lowest
    negative power (pivot on the constant term) or the highest power >= deg m
    (pivot on the lead term).  A zero residue means the identity holds at every
    root of m.  For irreducible m, as s^2 + 1 and every cyclotomic polynomial,
    a nonzero residue is a nonzero number, so no inverse is ever needed."""
    if modulus is None:
        return poly
    if len(modulus.vars) != 1 or modulus.degree_in(modulus.vars[0])[0] != 0:
        raise ValueError("adjoined polynomial needs one new variable and a constant term")
    (name,) = modulus.vars
    m = {j: c.constant_value() for j, c in modulus.coefficients_in(name).items()}
    top = max(m)
    coeffs = poly.coefficients_in(name)
    while coeffs and (min(coeffs) < 0 or max(coeffs) >= top):
        k = min(coeffs) if min(coeffs) < 0 else max(coeffs)
        pivot = 0 if k < 0 else top
        c = coeffs.pop(k).scale(coeff_quotient(-1, m[pivot]))
        for j, mj in m.items():
            if j != pivot:
                coeffs[k - pivot + j] = coeffs.get(k - pivot + j, _ZERO) + c.scale(mj)
    return LaurentPoly.from_coefficients(coeffs, name)


def _reduced(f: RationalFunction, modulus: LaurentPoly | None) -> RationalFunction:
    return RationalFunction.make(reduce_adjoined(f.num, modulus), f.factors)


def equal_mod_adjoined(
    a: RationalFunction, b: RationalFunction, modulus: LaurentPoly | None
) -> bool:
    return reduce_adjoined((a - b).num, modulus).is_zero()


def divide_linear(
    poly: LaurentPoly, var: str, shift_value: LaurentPoly, modulus: LaurentPoly | None = None
) -> LaurentPoly:
    """Exact quotient poly / (var - shift_value); the input must vanish at
    var = shift_value, modulo the adjoined polynomial if one is given."""
    if poly.is_zero():
        return poly
    if var not in poly.vars:
        raise ArithmeticError(f"{var} does not divide a polynomial free of it")
    # synthetic division, run down the exponents of var to the lowest one
    coeffs = poly.coefficients_in(var)
    low = min(0, min(coeffs))
    quotient: dict[int, LaurentPoly] = {}
    carry = _ZERO
    for e in range(max(coeffs), low, -1):
        carry = reduce_adjoined(coeffs.get(e, _ZERO) + shift_value * carry, modulus)
        quotient[e - 1] = carry
    remainder = reduce_adjoined(coeffs.get(low, _ZERO) + shift_value * carry, modulus)
    if not remainder.is_zero():
        raise ArithmeticError(f"division by {var} - ({shift_value}) is not exact")
    return LaurentPoly.from_coefficients(quotient, var)


@dataclass(frozen=True)
class KoszulData:
    """A potential split as value + sum of (x_i - c_i) * cofactor_i."""

    variables: tuple[str, ...]
    center: tuple[RationalFunction, ...]
    cofactors: tuple[RationalFunction, ...]
    potential: RationalFunction
    value: RationalFunction
    modulus: LaurentPoly | None = None
    label: str = "generic"

    def linear_forms(self) -> list[RationalFunction]:
        return [
            RationalFunction.var(v) - c for v, c in zip(self.variables, self.center)
        ]

    def sum_identity(self) -> bool:
        total = RationalFunction.constant(0)
        for form, cof in zip(self.linear_forms(), self.cofactors):
            total = total + form * cof
        return equal_mod_adjoined(total, self.potential - self.value, self.modulus)

    def as_dict(self) -> dict:
        return {
            "schema": KOSZUL_SCHEMA,
            "label": self.label,
            "variables": list(self.variables),
            "center": [str(c) for c in self.center],
            "cofactors": [str(f) for f in self.cofactors],
            "potential": str(self.potential),
            "value": str(self.value),
            "symbol": self.modulus.vars[0] if self.modulus is not None else None,
        }


def _center_value_poly(value) -> LaurentPoly:
    rf = as_rational(value)
    if not rf.is_polynomial():
        raise ValueError("center coordinates must be polynomial expressions")
    if any(e < 0 for exps in rf.num.terms for e in exps):
        raise ValueError("center coordinates must be polynomial expressions")
    return rf.num


def center_decompose(
    potential, center: Mapping[str, object], adjoined: LaurentPoly | None = None
) -> KoszulData:
    """Split the potential at the given center by successive exact division
    of one-variable differences, modulo the ``adjoined`` polynomial if given."""
    if isinstance(potential, Potential):
        expr = potential.expr
        label = f"{potential.model}/{potential.chart}"
    else:
        expr = as_rational(potential)
        label = "generic"
    variables = tuple(center.keys())
    symbols = () if adjoined is None else adjoined.vars
    if any(s in variables for s in symbols):
        raise ValueError("adjoined polynomial needs one new variable and a constant term")
    stray = sorted(set(expr.variables()) - set(variables) - set(symbols))
    if stray:
        raise ValueError(f"center does not cover variables: {stray}")
    values = [_center_value_poly(center[v]) for v in variables]
    stages = [expr]
    for var, val in zip(reversed(variables), reversed(values)):
        try:
            stages.append(stages[-1].substitute({var: RationalFunction.from_poly(val)}))
        except ZeroDivisionError:
            raise ValueError(f"center lies on a pole of the potential at {var}")
    stages.reverse()
    cofactors = []
    for i, (var, val) in enumerate(zip(variables, values)):
        diff = stages[i + 1] - stages[i]
        if diff.num.is_zero():
            cofactors.append(RationalFunction.constant(0))
            continue
        quotient = divide_linear(diff.num, var, val, adjoined)
        cofactors.append(
            _reduced(RationalFunction.make(quotient, diff.factors), adjoined)
        )
    return KoszulData(
        variables=variables,
        center=tuple(RationalFunction.from_poly(v) for v in values),
        cofactors=tuple(cofactors),
        potential=expr,
        value=_reduced(stages[0], adjoined),
        modulus=adjoined,
        label=label,
    )


# -- the odd operator on the exterior algebra ------------------------------


def _basis_label(mask: int, m: int) -> str:
    if mask == 0:
        return "1"
    return "^".join(f"e{i + 1}" for i in range(m) if mask & (1 << i))


def _insert_sign(mask: int, i: int) -> int:
    below = bin(mask & ((1 << i) - 1)).count("1")
    return -1 if below % 2 else 1


def koszul_square_check(data: KoszulData) -> Report:
    """Verify the square of the odd operator is multiplication by the
    centered potential on every exterior basis element.

    Entry a of the operator is linear form a for a < m and cofactor a - m
    otherwise; at bit i of a mask the operator applies cofactor i if the
    bit is set and form i if not.  The coefficient of e_k in the square of
    e_mask sums sign * entry_a * entry_b over the paths mask -> mask ^ bit
    i -> k = mask ^ bit i ^ bit j.  The ring is commutative, so the
    coefficient is fixed by the signed count of each unordered pair {a, b},
    and each product is computed once, when a decision first needs it.
    The counts are built in the loop order of applying the operator twice,
    so the coefficients are tested in the same order and the first wrong
    one named is the same.  A pair whose two orders cancel has count 0 and
    contributes no term.  Equal signed counts with equal targets (W - W(c)
    on the diagonal, 0 off it) are one fact, decided once by one exact
    sum.

    The operator is odd by construction: at bit i it sends e_mask to a
    multiple of e_(mask ^ bit i), one degree up or down, so no verdict
    checks that it swaps even and odd degrees."""
    m = len(data.variables)
    entries = data.linear_forms() + list(data.cofactors)
    # the target of a coefficient off the diagonal and on it
    targets = (RationalFunction.constant(0), data.potential - data.value)
    products: dict[tuple[int, int], RationalFunction] = {}
    decided: dict = {}

    def holds(counts: dict[tuple[int, int], int], diagonal: bool) -> bool:
        terms = tuple(sorted((pair, c) for pair, c in counts.items() if c))
        fact = (terms, diagonal)
        if fact not in decided:
            for (a, b), _ in terms:
                if (a, b) not in products:
                    products[a, b] = entries[a] * entries[b]
            factors, numerators = over_common_denominator([products[p] for p, _ in terms])
            total = _ZERO
            for num, (_, c) in zip(numerators, terms):
                total = total + num.scale(c)
            decided[fact] = equal_mod_adjoined(
                RationalFunction.make(total, factors), targets[diagonal], data.modulus
            )
        return decided[fact]

    verdicts = [
        Verdict(
            "cofactor-sum",
            data.sum_identity(),
            "linear forms against cofactors rebuild the centered potential",
        )
    ]
    # the entry of the operator at bit i of a mask, and its insertion sign
    steps = [
        [(m + i if mask >> i & 1 else i, _insert_sign(mask, i)) for i in range(m)]
        for mask in range(1 << m)
    ]
    for mask, first in enumerate(steps):
        image = [(mask ^ (1 << i), a, s) for i, (a, s) in enumerate(first)]
        square: dict[int, dict[tuple[int, int], int]] = {}
        for k, a, s in image:
            for j, (b, t) in enumerate(steps[k]):
                counts = square.setdefault(k ^ (1 << j), {})
                pair = (a, b) if a <= b else (b, a)
                counts[pair] = counts.get(pair, 0) + s * t
        ok = True
        detail = "matches"
        for k, counts in square.items():
            if not holds(counts, k == mask):
                ok = False
                detail = f"wrong coefficient on {_basis_label(k, m)}"
                break
        verdicts.append(Verdict(f"square[{_basis_label(mask, m)}]", ok, detail))
    return Report(f"koszul factorization [{data.label}]", tuple(verdicts))


def corrupt_cofactor(data: KoszulData, index: int) -> KoszulData:
    """Return a copy with one cofactor shifted by 1; for failure-path tests."""
    cofactors = list(data.cofactors)
    cofactors[index] = cofactors[index] + as_rational(1)
    return replace(data, cofactors=tuple(cofactors))


def og15_koszul() -> KoszulData:
    """Factorization at the nodal critical point of the quadric model."""
    return center_decompose(og_potentials().immersed, {"u": 0, "v": 0, "z0": -1})


def gr24_koszul() -> KoszulData:
    """Factorization at a nodal critical point of the smallest Grassmannian
    model, on its immersed[1,2] chart at T = 1; the holonomies sit at -s and
    s for an adjoined root s of s^2 + 1."""
    p = immersed_potential(4, {(1, 2)})
    return center_decompose(
        replace(p, terms=p.substitute_terms({"T": 1})),
        {"u1": 0, "v1": 0, "z1_1": parse("-s"), "z2_2": parse("s")},
        adjoined=parse("s^2 + 1").num,
    )
