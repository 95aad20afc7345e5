"""Sparse Laurent polynomials over the exact rationals.

A polynomial is a dict mapping monomials to nonzero rational coefficients.
A monomial is a tuple of (name, exponent) pairs, sorted by name, with no
zero exponent; the constant monomial is ().  So a product merges the pairs
of two monomials, a sum is a plain dict merge, and a variable that no term
uses cannot occur: nothing is aligned to a shared variable tuple and no
exponent column is ever scanned.  A coefficient is an int when it is whole
and a Fraction only when it is not, so integer arithmetic never builds a
Fraction.  Exponents may be negative, so monomials are units and can always
be moved between numerator and denominator.

Only the steps whose result depends on an order of the terms read the dense
view, ``dense()``: the sorted names of the variables in use and each term's
exponent tuple over them, in term order, built at most once per polynomial.
They are the lex-leading division of ``exact_div`` (its Newton box and its
heap), ``key()`` and the hash, ``format_poly``, and the canonical sign of a
denominator factor in ``lgmirror.rational``.  Apart from them, only the
minimum in ``monomial_gcd`` (which returns a monomial, as ``shift`` takes
one) and the constructor from exponent tuples (``make``, ``rename``) read
it.  Lex order over the dense view is the order of the aligned exponent
tuples that polynomials carried before they were sparse, and the arithmetic
adds, merges and deletes terms in the same sequence, so every canonical
form, every ordering of denominator factors, every hash and every printed
form is the same as with aligned tuples.  ``tests/dense_laurent.py`` keeps
the aligned-tuple arithmetic as the reference.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, neg
from typing import Iterable, Mapping, Union

Exponents = tuple[int, ...]
# (name, exponent) pairs sorted by name, no exponent 0
Monomial = tuple[tuple[str, int], ...]
# an int, or a Fraction whose denominator is not 1
Coeff = Union[int, Fraction]


def _frac(value) -> Coeff:
    """The canonical coefficient of an int or Fraction value."""
    if value.__class__ is int:
        return value
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


def _demoted(terms: dict) -> dict:
    """The terms with every whole Fraction coefficient made an int.  Sums
    and products of Fractions can be whole; those of ints stay ints."""
    if Fraction in map(type, terms.values()):
        return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return terms


def _times(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: the pairs merged by name, exponents of
    a shared name added, and a name whose exponents cancel dropped."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        pa, pb = a[i], b[j]
        if pa[0] < pb[0]:
            out.append(pa)
            i += 1
        elif pb[0] < pa[0]:
            out.append(pb)
            j += 1
        else:
            k = pa[1] + pb[1]
            if k:
                out.append((pa[0], k))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _sparse(names: tuple[str, ...], exps: Exponents) -> Monomial:
    """The monomial of an exponent tuple over sorted names."""
    return tuple([(v, k) for v, k in zip(names, exps) if k])


class LaurentPoly:
    """Immutable sparse Laurent polynomial with int or Fraction coefficients."""

    __slots__ = ("terms", "_vars", "_exps", "_key")

    def __init__(self, terms: dict[Monomial, Coeff]):
        # Trusted constructor: callers must pass canonical monomials (sorted
        # names, no zero exponent) with nonzero canonical coefficients.
        self.terms = terms
        self._vars = None
        self._exps = None
        self._key = None

    @property
    def vars(self) -> tuple[str, ...]:
        """The sorted names of the variables some term uses."""
        if self._vars is None:
            self._vars = tuple(sorted({v for m in self.terms for v, _ in m}))
        return self._vars

    def dense(self) -> tuple[tuple[str, ...], tuple[Exponents, ...]]:
        """The dense view: the sorted variable names, and each term's
        exponent tuple over them, in the order of ``terms``."""
        if self._exps is None:
            self._exps = self._exponents_over(self.vars)
        return self._vars, self._exps

    def _exponents_over(self, names: tuple[str, ...]) -> tuple[Exponents, ...]:
        """Each term's exponent tuple over sorted names that hold its own."""
        if not names:
            return ((),) * len(self.terms)
        where = {v: i for i, v in enumerate(names)}
        zero = [0] * len(names)
        rows = []
        for m in self.terms:
            row = zero.copy()
            for v, k in m:
                row[where[v]] = k
            rows.append(tuple(row))
        return tuple(rows)

    def _same_monomials(self, terms: dict[Monomial, Coeff]) -> "LaurentPoly":
        """A polynomial with new coefficients on this one's monomials, in
        this one's order; it shares the cached views."""
        p = LaurentPoly(terms)
        p._vars, p._exps = self._vars, self._exps
        return p

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(vars: Iterable[str], terms: Mapping[Exponents, object]) -> "LaurentPoly":
        """Build a polynomial from exponent tuples over the given distinct
        variable names and int or Fraction coefficients, dropping zero terms."""
        pick = sorted((v, i) for i, v in enumerate(vars))
        for (a, _), (b, _) in zip(pick, pick[1:]):
            if a == b:
                raise ValueError(f"variable names must be distinct, got {a!r} twice")
        return LaurentPoly({
            tuple([(v, e[i]) for v, i in pick if e[i]]): _frac(c)
            for e, c in terms.items()
            if c != 0
        })

    @staticmethod
    def constant(c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly({})
        return LaurentPoly({(): c})

    @staticmethod
    def var(name: str, power: int = 1, coeff=1) -> "LaurentPoly":
        c = _frac(coeff)
        if c == 0:
            return LaurentPoly({})
        if power == 0:
            return LaurentPoly({(): c})
        return LaurentPoly({((name, power),): c})

    @staticmethod
    def monomial(exps: Mapping[str, int], coeff=1) -> "LaurentPoly":
        c = _frac(coeff)
        if c == 0:
            return LaurentPoly({})
        return LaurentPoly({tuple(sorted((v, e) for v, e in exps.items() if e != 0)): c})

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Coeff:
        if not self.terms:
            return 0
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms[()]

    def __bool__(self) -> bool:
        return bool(self.terms)

    def key(self):
        """Hashable canonical key: the variables and the terms sorted by
        their exponent tuples over them."""
        if self._key is None:
            names, exps = self.dense()
            self._key = (names, tuple(sorted(zip(exps, self.terms.values()))))
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                other = LaurentPoly.constant(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                del out[m]
        return LaurentPoly(_demoted(out))

    __radd__ = __add__

    def __neg__(self):
        return self._same_monomials({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        ta, tb = self.terms, other.terms
        if not ta or not tb:
            return LaurentPoly({})
        if len(ta) > len(tb):
            ta, tb = tb, ta
            self, other = other, self
        if len(ta) == 1 and () in ta:
            # a constant factor keeps the other's monomials and their order
            return other.scale(ta[()])
        out: dict[Monomial, Coeff] = {}
        get = out.get
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                m = _times(ma, mb)
                s = get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return LaurentPoly(_demoted(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if not self.is_monomial():
                raise ValueError("negative power of a non-monomial Laurent polynomial")
            (m, c), = self.terms.items()
            return LaurentPoly({tuple([(v, n * k) for v, k in m]): coeff_quotient(1, c ** -n)})
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

    def monomial_gcd(self) -> Monomial:
        """The monomial of the least exponent of each variable over all
        terms, where a term without the variable counts as exponent 0."""
        names, exps = self.dense()
        return _sparse(names, tuple(map(min, zip(*exps))))

    def shift(self, unit: Monomial) -> "LaurentPoly":
        """Multiply by a monomial; the terms keep their order."""
        if not unit:
            return self
        return LaurentPoly({_times(m, unit): c for m, c in self.terms.items()})

    def scale(self, c) -> "LaurentPoly":
        c = _frac(c)
        if c == 0:
            return LaurentPoly({})
        if c == 1:
            return self
        return self._same_monomials(_demoted({m: k * c for m, k in self.terms.items()}))

    def coefficients_in(self, name: str) -> dict[int, "LaurentPoly"]:
        """The univariate view in one variable: exponent -> coefficient
        polynomial in the other variables, for every exponent that occurs."""
        if not self.terms:
            return {}
        buckets: dict[int, dict[Monomial, Coeff]] = {}
        for m, c in self.terms.items():
            for i, (v, k) in enumerate(m):
                if v == name:
                    buckets.setdefault(k, {})[m[:i] + m[i + 1:]] = c
                    break
            else:
                buckets.setdefault(0, {})[m] = c
        if len(buckets) == 1 and 0 in buckets:
            return {0: self}
        return {d: LaurentPoly(terms) for d, terms in buckets.items()}

    @staticmethod
    def from_coefficients(coeffs: Mapping[int, "LaurentPoly"], name: str) -> "LaurentPoly":
        """Inverse of ``coefficients_in``: the sum of coeffs[d] * name^d."""
        total = LaurentPoly({})
        for d, c in coeffs.items():
            total = total + (c * LaurentPoly.var(name, d) if d else c)
        return total

    def degree_in(self, name: str) -> tuple[int, int]:
        """(min, max) exponent of a variable across all terms."""
        exps = [next((k for v, k in m if v == name), 0) for m in self.terms]
        if not any(exps):
            return (0, 0)
        return (min(exps), max(exps))

    def partial(self, name: str) -> "LaurentPoly":
        out: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            for i, (v, k) in enumerate(m):
                if v == name:
                    if k == 1:
                        out[m[:i] + m[i + 1:]] = c
                    else:
                        out[m[:i] + ((v, k - 1),) + m[i + 1:]] = c * k
                    break
        return LaurentPoly(_demoted(out))

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

        Division runs on exponent tuples over the dividend's dense view
        when the divisor's variables are among its own.  They are in
        every exact division by a divisor whose least exponent of each
        variable is 0, such as a canonical denominator factor, so a
        numerator trial-divided by many factors builds its view once.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return LaurentPoly({})
        names, fexps = self.dense()
        if divisor.vars == names:
            gexps = divisor.dense()[1]
        elif set(divisor.vars) <= set(names):
            gexps = divisor._exponents_over(names)
        else:
            names = tuple(sorted(set(names) | set(divisor.vars)))
            fexps, gexps = self._exponents_over(names), divisor._exponents_over(names)
        # per variable, the exponent range any exact quotient must lie in
        box = [
            (min(fs) - min(gs), max(fs) - max(gs))
            for fs, gs in zip(zip(*fexps), zip(*gexps))
        ]
        if any(lo > hi for lo, hi in box):
            return None
        rem = dict(zip(fexps, self.terms.values()))
        div = dict(zip(gexps, divisor.terms.values()))
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
        return LaurentPoly({_sparse(names, e): c for e, c in quot.items()})

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a point; works for complex, float, int or Fraction
        values, and stays exact at an int or Fraction point."""
        missing = [v for v in self.vars if v not in point]
        if missing:
            raise KeyError(f"no value supplied for {missing}")
        total = 0
        for m, c in self.terms.items():
            acc = c
            for v, k in m:
                v = point[v]
                # an int to a negative power would be a float
                exact = k < 0 and v.__class__ is int
                acc = acc * (coeff_quotient(1, v ** -k) if exact else v ** k)
            total = total + acc
        return total

    def rename(self, mapping: Mapping[str, str]) -> "LaurentPoly":
        """Rename variables (mapping may cover a subset); two variables may
        not get the same name."""
        names, exps = self.dense()
        return LaurentPoly.make([mapping.get(v, v) for v in names], dict(zip(exps, self.terms.values())))

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
    _, exps = p.dense()
    for _, (m, c) in sorted(zip(exps, p.terms.items()), key=lambda t: t[0], reverse=True):
        factors = [f"{v}^{k}" if k != 1 else v for v, k in m]
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
