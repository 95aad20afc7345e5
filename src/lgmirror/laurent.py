"""Sparse Laurent polynomials over the exact rationals.

A polynomial is a dict mapping exponent tuples to nonzero rational
coefficients; the tuples are aligned with a sorted tuple of variable names.
A coefficient is an int when it is whole and a Fraction only when it is
not, so integer arithmetic never builds a Fraction.  Exponents may be
negative, so monomials are units and can always be moved between numerator
and denominator.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, neg
from typing import Iterable, Mapping, Union

Exponents = tuple[int, ...]
# an int, or a Fraction whose denominator is not 1
Coeff = Union[int, Fraction]


def _frac(value) -> Coeff:
    """The canonical coefficient of an int or Fraction value."""
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected int or Fraction, got {type(value).__name__}")


def coeff_quotient(a: Coeff, b: Coeff) -> Coeff:
    """The exact quotient a / b of two coefficients, as a canonical
    coefficient.  Plain ``/`` would give a float for two ints."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _frac(Fraction(a, b))


def _demoted(terms: dict[Exponents, Coeff]) -> dict[Exponents, Coeff]:
    """The terms with every whole Fraction coefficient made an int.  Sums
    and products of Fractions can be whole; those of ints stay ints."""
    if Fraction in map(type, terms.values()):
        return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return terms


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int or Fraction coefficients."""

    __slots__ = ("vars", "terms", "_key")

    def __init__(self, vars: tuple[str, ...], terms: dict[Exponents, Coeff]):
        # Trusted constructor: callers must pass pruned, sorted data with
        # nonzero canonical coefficients.
        self.vars = vars
        self.terms = terms
        self._key = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(vars: Iterable[str], terms: Mapping[Exponents, object]) -> "LaurentPoly":
        """Build a polynomial from int or Fraction coefficients, dropping
        zero terms and unused variables."""
        cleaned = {tuple(e): _frac(c) for e, c in terms.items() if c != 0}
        poly = LaurentPoly._pruned(tuple(vars), cleaned)
        vtuple = poly.vars
        if vtuple != tuple(sorted(vtuple)):
            order = sorted(range(len(vtuple)), key=lambda i: vtuple[i])
            poly = LaurentPoly(
                tuple(vtuple[i] for i in order),
                {tuple(e[i] for i in order): c for e, c in poly.terms.items()},
            )
        return poly

    @staticmethod
    def _pruned(vars_: tuple[str, ...], terms: dict[Exponents, Coeff]) -> "LaurentPoly":
        """Trusted constructor for sorted variables and nonzero canonical
        coefficients that drops the variables no term uses (x * x^-1 and
        cancelling sums can remove one)."""
        used = [i for i, column in enumerate(zip(*terms)) if any(column)]
        if len(used) != len(vars_):
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
            vars_ = tuple(vars_[i] for i in used)
        return LaurentPoly(vars_, terms)

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

    def constant_value(self) -> Coeff:
        if not self.terms:
            return 0
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

    def _remap(self, merged: tuple[str, ...]) -> dict[Exponents, Coeff]:
        if merged == self.vars:
            return self.terms
        if not self.vars:
            return {(0,) * len(merged): c for c in self.terms.values()}
        # merged strictly contains self.vars here, so it has two or more
        # variables and the getter returns a tuple; a variable self lacks
        # reads the 0 appended to each exponent tuple
        where = {v: i for i, v in enumerate(self.vars)}
        pad = len(self.vars)
        pick = itemgetter(*[where.get(v, pad) for v in merged])
        return {pick(e + (0,)): c for e, c in self.terms.items()}

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        vars_, ta, tb = LaurentPoly._align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._pruned(vars_, _demoted(out))

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
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly((), {})
        vars_, ta, tb = LaurentPoly._align(self, other)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        out: dict[Exponents, Coeff] = {}
        get = out.get
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                s = get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return LaurentPoly._pruned(vars_, _demoted(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (e, c), = self.terms.items()
            return LaurentPoly(self.vars, {tuple(n * x for x in e): coeff_quotient(1, c ** -n)})
        result = LaurentPoly.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure --------------------------------------------------------

    def content(self) -> Coeff:
        """Positive rational c with self/c having coprime integer coefficients."""
        if not self.terms:
            return 1
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            num_gcd = math.gcd(num_gcd, abs(c.numerator))
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return coeff_quotient(num_gcd, den_lcm)

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
        return LaurentPoly._pruned(
            self.vars,
            {tuple(map(add, e, exps)): c for e, c in self.terms.items()},
        )

    def scale(self, c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly((), {})
        return LaurentPoly(self.vars, _demoted({e: k * c for e, k in self.terms.items()}))

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """The univariate view in one variable: exponent -> coefficient
        polynomial in the other variables, for every exponent that occurs."""
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict[Exponents, Coeff]] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {d: LaurentPoly._pruned(rest, terms) for d, terms in buckets.items()}

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
        out: dict[Exponents, Coeff] = {}
        for e, c in self.terms.items():
            k = e[i]
            if k == 0:
                continue
            out[e[:i] + (k - 1,) + e[i + 1:]] = c * k
        return LaurentPoly._pruned(self.vars, _demoted(out))

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
        quot: dict[Exponents, Coeff] = {}
        # the remainder's exponents, negated so that the min-heap top is the
        # lex-largest; an exponent whose term has cancelled stays in the heap
        # until it reaches the top, and is skipped there
        heap = [tuple(map(neg, e)) for e in rem]
        heapify(heap)
        while rem:
            e = tuple(map(neg, heappop(heap)))
            c = rem.get(e)
            if c is None:
                continue
            qe = tuple(x - y for x, y in zip(e, lead))
            if any(x < lo or x > hi for x, (lo, hi) in zip(qe, box)):
                return None
            qc = coeff_quotient(c, lead_c)
            quot[qe] = qc
            for de, dc in div.items():
                t = tuple(map(add, qe, de))
                if t in rem:
                    s = rem[t] - qc * dc
                    if s:
                        rem[t] = s
                    else:
                        del rem[t]
                else:
                    rem[t] = -qc * dc
                    heappush(heap, tuple(map(neg, t)))
        return LaurentPoly._pruned(vars_, quot)

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a point; works for complex, float, int or Fraction
        values, and stays exact at an int or Fraction point."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise KeyError(f"no value supplied for {missing}")
        vals = [point[v] for v in self.vars]
        total = 0
        for e, c in self.terms.items():
            acc = c
            for v, k in zip(vals, e):
                if k:
                    # an int to a negative power would be a float
                    exact = k < 0 and v.__class__ is int
                    acc = acc * (coeff_quotient(1, v ** -k) if exact else v ** k)
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


def _format_fraction(q: Coeff) -> str:
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
