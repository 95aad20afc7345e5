"""Sparse Laurent polynomials over the exact rationals.

A polynomial is a dict mapping exponent tuples to nonzero Fractions; the
tuples are aligned with a sorted tuple of variable names.  Exponents may be
negative, so monomials are units and can always be moved between numerator
and denominator.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping

Exponents = tuple[int, ...]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


class LaurentPoly:
    """Immutable sparse Laurent polynomial with Fraction coefficients."""

    __slots__ = ("vars", "terms", "_key")

    def __init__(self, vars: tuple[str, ...], terms: dict[Exponents, Fraction]):
        # Trusted constructor: callers must pass pruned, sorted data.
        self.vars = vars
        self.terms = terms
        self._key = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(vars: Iterable[str], terms: Mapping[Exponents, Fraction]) -> "LaurentPoly":
        """Build a polynomial, dropping zero terms and unused variables."""
        vtuple = tuple(vars)
        cleaned = {tuple(e): _frac(c) for e, c in terms.items() if c != 0}
        # prune variables that never occur with a nonzero exponent
        used = [i for i in range(len(vtuple)) if any(e[i] for e in cleaned)]
        if len(used) != len(vtuple):
            vtuple2 = tuple(vtuple[i] for i in used)
            cleaned = {tuple(e[i] for i in used): c for e, c in cleaned.items()}
            vtuple = vtuple2
        if vtuple != tuple(sorted(vtuple)):
            order = sorted(range(len(vtuple)), key=lambda i: vtuple[i])
            vtuple2 = tuple(vtuple[i] for i in order)
            cleaned = {tuple(e[i] for i in order): c for e, c in cleaned.items()}
            vtuple = vtuple2
        return LaurentPoly(vtuple, cleaned)

    @staticmethod
    def constant(c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly((), {})
        return LaurentPoly((), {(): c})

    @staticmethod
    def var(name: str, power: int = 1, coeff=1) -> "LaurentPoly":
        c = _frac(coeff)
        if c == 0:
            return LaurentPoly((), {})
        if power == 0:
            return LaurentPoly((), {(): c})
        return LaurentPoly((name,), {(power,): c})

    @staticmethod
    def monomial(exps: Mapping[str, int], coeff=1) -> "LaurentPoly":
        c = _frac(coeff)
        if c == 0:
            return LaurentPoly((), {})
        exps = {v: e for v, e in exps.items() if e != 0}
        names = tuple(sorted(exps))
        return LaurentPoly(names, {tuple(exps[v] for v in names): c})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.vars or all(not any(e) for e in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def key(self):
        """Hashable canonical key (variables plus sorted terms)."""
        if self._key is None:
            self._key = (self.vars, tuple(sorted(self.terms.items())))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    # -- alignment --------------------------------------------------------

    @staticmethod
    def _align(a: "LaurentPoly", b: "LaurentPoly"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        merged = tuple(sorted(set(a.vars) | set(b.vars)))
        return merged, a._remap(merged), b._remap(merged)

    def _remap(self, merged: tuple[str, ...]) -> dict[Exponents, Fraction]:
        if merged == self.vars:
            return self.terms
        idx = {v: i for i, v in enumerate(merged)}
        pos = [idx[v] for v in self.vars]
        width = len(merged)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            row = [0] * width
            for p, val in zip(pos, e):
                row[p] = val
            out[tuple(row)] = c
        return out

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        vars_, ta, tb = LaurentPoly._align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly.make(vars_, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return LaurentPoly((), {})
            return LaurentPoly(self.vars, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly((), {})
        vars_, ta, tb = LaurentPoly._align(self, other)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        out: dict[Exponents, Fraction] = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly.make(vars_, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (e, c), = self.terms.items()
            return LaurentPoly(self.vars, {tuple(n * x for x in e): c ** n})
        result = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure --------------------------------------------------------

    def content(self) -> Fraction:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def monomial_gcd(self) -> Exponents:
        """Componentwise minimum exponent over all terms."""
        if not self.terms:
            return tuple(0 for _ in self.vars)
        it = iter(self.terms)
        mins = list(next(it))
        for e in it:
            for i, x in enumerate(e):
                if x < mins[i]:
                    mins[i] = x
        return tuple(mins)

    def shift(self, exps: Exponents) -> "LaurentPoly":
        """Multiply by the monomial with the given exponents (same vars)."""
        if not any(exps):
            return self
        return LaurentPoly.make(
            self.vars,
            {tuple(x + d for x, d in zip(e, exps)): c for e, c in self.terms.items()},
        )

    def scale(self, c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly((), {})
        return LaurentPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """The univariate view in one variable: exponent -> coefficient
        polynomial in the other variables, for every exponent that occurs."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[Exponents, Fraction]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {d: LaurentPoly.make(rest, terms) for d, terms in buckets.items()}

    @staticmethod
    def from_coefficients(coeffs: Mapping[int, "LaurentPoly"], name: str) -> "LaurentPoly":
        """Inverse of ``coefficients_in``: the sum of coeffs[d] * name^d."""
        total = LaurentPoly((), {})
        for d, c in coeffs.items():
            total = total + (c * LaurentPoly.var(name, d) if d else c)
        return total

    def degree_in(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of a variable across all terms."""
        if name not in self.vars:
            return (0, 0)
        i = self.vars.index(name)
        exps = [e[i] for e in self.terms]
        return (min(exps), max(exps))

    def partial(self, name: str) -> "LaurentPoly":
        if name not in self.vars:
            return LaurentPoly((), {})
        i = self.vars.index(name)
        out: dict[Exponents, Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            e2 = tuple(x - 1 if j == i else x for j, x in enumerate(e))
            s = out.get(e2, Fraction(0)) + c * k
            if s:
                out[e2] = s
            else:
                out.pop(e2, None)
        return LaurentPoly.make(self.vars, out)

    def exact_div(self, divisor: "LaurentPoly"):
        """Return self/divisor if the division is exact, else None.

        Decided without a size cap.  If self = q * divisor, the Newton
        polytope of self is the Minkowski sum of those of q and divisor
        (Ostrowski), so per variable every exponent of q lies in the box
        [min(self) - min(divisor), max(self) - max(divisor)].  Lex-leading
        division of an exact quotient produces exactly the terms of q, so a
        quotient term outside the box proves the division inexact.  The loop
        ends: quotient exponents strictly decrease in lex order inside a
        finite box.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly((), {})
        if divisor.is_monomial():
            (e, c), = divisor.terms.items()
            mono = LaurentPoly(divisor.vars, {tuple(-x for x in e): 1 / c})
            return self * mono
        vars_, ta, tb = LaurentPoly._align(self, divisor)
        # per variable, the exponent range any exact quotient must lie in
        box = [
            (min(fs) - min(gs), max(fs) - max(gs))
            for fs, gs in zip(zip(*ta), zip(*tb))
        ]
        if any(lo > hi for lo, hi in box):
            return None
        rem = dict(ta)
        div = dict(tb)
        lead = max(div)
        lead_c = div[lead]
        quot: dict[Exponents, Fraction] = {}
        while rem:
            e = max(rem)
            c = rem[e]
            qe = tuple(x - y for x, y in zip(e, lead))
            if any(x < lo or x > hi for x, (lo, hi) in zip(qe, box)):
                return None
            qc = c / lead_c
            quot[qe] = qc
            for de, dc in div.items():
                t = tuple(x + y for x, y in zip(qe, de))
                s = rem.get(t, Fraction(0)) - qc * dc
                if s:
                    rem[t] = s
                else:
                    rem.pop(t, None)
        return LaurentPoly.make(vars_, quot)

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a point; works for complex, float or Fraction values."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise KeyError(f"no value supplied for {missing}")
        vals = [point[v] for v in self.vars]
        total = 0
        for e, c in self.terms.items():
            acc = c
            for v, k in zip(vals, e):
                if k == 0:
                    continue
                acc = acc * v ** k
            total = total + acc
        return total

    def rename(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Rename variables (mapping may cover a subset)."""
        new_names = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_names)) != len(new_names):
            raise ValueError("variable renaming must stay injective")
        return LaurentPoly.make(new_names, dict(self.terms))

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


def format_poly(p: LaurentPoly) -> str:
    """Deterministic text form: terms in descending lex order."""
    if not p.terms:
        return "0"
    chunks: list[str] = []
    for e in sorted(p.terms, reverse=True):
        c = p.terms[e]
        factors = [
            f"{v}^{k}" if k != 1 else v
            for v, k in zip(p.vars, e)
            if k != 0
        ]
        mag = abs(c)
        if not factors:
            body = _format_fraction(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_format_fraction(mag)] + factors)
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks)


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9_,]*)|(?P<op>\^|[-+*/()]))"
)


def tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize {rest[:20]!r}")
        pos = m.end()
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
    return tokens
