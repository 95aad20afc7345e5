"""Exact rational functions built on LaurentPoly.

Canonical form kept by every constructor and operation:

* the denominator is a true polynomial (no negative exponents) with no
  monomial content; Laurent units always live in the numerator,
* the denominator has coprime integer coefficients and its lex-first term
  has a positive coefficient,
* no tracked denominator factor divides the numerator exactly.

Denominators are stored as a multiset of factors so that sums and products
cancel shared factors by exact trial division instead of a general gcd.
A bounded single-main-variable gcd pass catches the remaining shared
factors.  It has three budgets, so normalization stays fast and
deterministic: a term cap on each pseudo-remainder (_GCD_TERM_CAP), a work
budget over the whole recursion (_GCD_WORK_CAP) and a cap on coefficient
bits (_GCD_BIT_CAP).  A bail-out only leaves a common factor uncancelled in
the canonical form.  No verdict depends on it, because equal()
cross-multiplies.  The budgets are live: over the test suite, 25 of the
938 poly_gcd calls hit the bit cap, 6 the work budget and 2 the term cap,
all on random inputs: substituted bivariate rational functions in
test_substitute_is_a_ring_map (tests/test_properties.py) and quotients of
polynomials of up to 4 terms in 5 variables in
test_roundtrip_random_expressions (tests/test_rational.py).

The pass skips every factor of the form a*v + b, with v a variable, a a
monomial and b free of v.  Such a factor is irreducible, and trial division
has already shown that it does not divide the numerator (a cancellation in
the pass keeps that true), so the two are coprime and the gcd would be 1.

Substitution normalizes once per polynomial.  Each bound value is raised
to each power it needs once per call.  A term c*x^e becomes the numerator
c * prod power.num over the multiset sum of the powers' factors, left
unnormalized; every term is lifted over the LCM of those multisets
(over_common_denominator), the numerators are summed, and one make
normalizes the total.  A denominator factor f^m of the substituted
function folds into the same make: G_f.den^m joins the numerator and
(G_f.num, m) the factors.  The result is value-equal to substituting term
by term through normalized sums and products.  That its canonical form is
identical too is checked against that route, kept in
tests/term_by_term_substitution.py, not proven: the gcd pass has budgets,
and it sees different inputs on the two routes.

LaurentPoly keeps each monomial as its sparse (name, exponent) pairs.
Substitution, the irreducibility test and the monomial content divided out
of a factor (LaurentPoly.monomial_gcd and shift) read those pairs.  Only the
canonical sign (the lex-first term, in _normalize_factor), the factor order
(sorted by LaurentPoly.key()) and trial division read the polynomial's
dense view, exponent tuples over its sorted variable names.  Lex order over
that view is the order of the aligned exponent tuples the polynomials
carried before they were sparse, so no canonical form, factor order or
printed form depends on the layout.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .laurent import LaurentPoly, Monomial, coeff_quotient, format_poly, tokenize

_GCD_TERM_CAP = 240


class RationalFunction:
    __slots__ = ("num", "factors", "_den", "_hash")

    def __init__(self, num: LaurentPoly, factors: tuple[tuple[LaurentPoly, int], ...]):
        # Trusted constructor; use make()/as_rational() from outside.
        self.num = num
        self.factors = factors
        self._den = None
        self._hash = None

    # -- constructors -----------------------------------------------------

    @staticmethod
    def make(num: LaurentPoly, raw_factors: Sequence[tuple[LaurentPoly, int]] = ()) -> "RationalFunction":
        """Normalize numerator/denominator-factor data into canonical form."""
        merged: dict = {}
        for f, m in raw_factors:
            if m == 0:
                continue
            if m < 0:
                raise ValueError("factor multiplicities must be positive")
            if f.is_zero():
                raise ZeroDivisionError("zero denominator")
            f, unit = _normalize_factor(f)
            if unit is not None:
                num = num * unit ** m if m != 1 else num * unit
            if f is None:
                continue
            merged[f.key()] = (f, merged.get(f.key(), (f, 0))[1] + m)
        if num.is_zero():
            return RationalFunction(LaurentPoly({}), ())
        factors = {k: fm for k, fm in merged.items()}
        # exact trial division of the numerator by tracked factors
        changed = True
        while changed and factors:
            changed = False
            for k, (f, m) in list(factors.items()):
                q = num.exact_div(f)
                if q is not None:
                    num = q
                    if m == 1:
                        del factors[k]
                    else:
                        factors[k] = (f, m - 1)
                    changed = True
        # bounded gcd pass for shared non-unit factors.  Trial division has
        # shown that no factor divides num, and cancelling a common g from num
        # and f keeps that true (f/g | num/g would give f | num), so an
        # irreducible factor is coprime to num and needs no gcd.
        changed = True
        while changed and factors:
            changed = False
            for k, (f, m) in list(factors.items()):
                if m != 1 or len(num.terms) == 1 or _is_irreducible(f):
                    continue
                g = poly_gcd(num, f)
                if g.is_constant():
                    continue
                num = num.exact_div(g)
                rest = f.exact_div(g)
                del factors[k]
                rest, unit = _normalize_factor(rest)
                if unit is not None:
                    num = num * unit
                if rest is not None:
                    factors[rest.key()] = (rest, factors.get(rest.key(), (rest, 0))[1] + 1)
                changed = True
                break
        ordered = tuple(sorted(factors.values(), key=lambda fm: fm[0].key()))
        return RationalFunction(num, ordered)

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction.make(p, ())

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction.make(LaurentPoly.constant(c), ())

    @staticmethod
    def var(name: str) -> "RationalFunction":
        return RationalFunction.make(LaurentPoly.var(name), ())

    # -- basic structure --------------------------------------------------

    @property
    def den(self) -> LaurentPoly:
        if self._den is None:
            d = LaurentPoly.constant(1)
            for f, m in self.factors:
                d = d * f ** m
            self._den = d
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.factors

    def variables(self) -> tuple[str, ...]:
        seen = set(self.num.vars)
        for f, _ in self.factors:
            seen.update(f.vars)
        return tuple(sorted(seen))

    def __eq__(self, other) -> bool:
        """Structural equality of canonical forms (not value equality)."""
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.num.key(), self.den.key()))
        return self._hash

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        factors, (left, right) = over_common_denominator((self, other))
        return RationalFunction.make(left + right, factors)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.factors)

    def __sub__(self, other):
        other = as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction.make(
            self.num * other.num, tuple(self.factors) + tuple(other.factors)
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return as_rational(other) * self.inverse()

    def inverse(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction.make(self.den, ((self.num, 1),))

    def __pow__(self, n: int) -> "RationalFunction":
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return RationalFunction.constant(1)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 1:
            return self
        num = self.num ** n
        return RationalFunction.make(num, tuple((f, m * n) for f, m in self.factors))

    # -- the contract operations ------------------------------------------

    def equal(self, other) -> bool:
        """Exact value equality: the difference sums to zero."""
        return sum_is_zero(((self, 1), (other, -1)))

    def substitute(self, bindings: Mapping[str, object]) -> "RationalFunction":
        """Simultaneously replace variables; unbound variables pass through,
        and a function with no bound variable comes back as itself."""
        vals = {name: as_rational(v) for name, v in bindings.items()}
        if vals.keys().isdisjoint(self.variables()):
            return self
        out = _substitute_poly(self.num, vals)
        if not self.factors:
            return out
        # with f -> G_f, N / prod f^m = N.num * prod G_f.den^m over
        # N.den * prod G_f.num^m, normalized by one make
        num, factors = out.num, list(out.factors)
        for f, m in self.factors:
            g = _substitute_poly(f, vals)
            if g.factors:
                num = num * g.den**m
            factors.append((g.num, m))
        return RationalFunction.make(num, factors)

    def partial(self, name: str) -> "RationalFunction":
        """Exact partial derivative."""
        flist = list(self.factors)
        dnum = self.num.partial(name)
        base = LaurentPoly.constant(1)
        for f, _ in flist:
            base = base * f
        top = dnum * base
        for i, (f, m) in enumerate(flist):
            df = f.partial(name)
            if df.is_zero():
                continue
            rest = LaurentPoly.constant(m)
            for j, (g, _) in enumerate(flist):
                if j != i:
                    rest = rest * g
            top = top - self.num * df * rest
        return RationalFunction.make(top, tuple((f, m + 1) for f, m in flist))

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate numerically (complex/float) or exactly (int, Fraction)."""
        total = self.num.evaluate(point)
        for f, m in self.factors:
            v = f.evaluate(point)
            if v == 0:
                raise ZeroDivisionError(f"denominator factor vanishes at the point: {format_poly(f)}")
            d = v ** m
            # two ints divide exactly, not into a float
            total = coeff_quotient(total, d) if type(total) is type(d) is int else total / d
        return total

    def rename(self, mapping: Mapping[str, str]) -> "RationalFunction":
        return RationalFunction.make(
            self.num.rename(mapping),
            tuple((f.rename(mapping), m) for f, m in self.factors),
        )

    # -- printing ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.factors:
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self) -> str:
        return f"RationalFunction({str(self)!r})"


def over_common_denominator(parts: Sequence[RationalFunction]):
    """The LCM of the parts' denominator factor multisets, and an iterator
    putting each part's numerator over it, one part at a time, in order."""
    lcm: dict = {}
    for p in parts:
        for f, m in p.factors:
            k = f.key()
            if k not in lcm or lcm[k][1] < m:
                lcm[k] = (f, m)
    return tuple(lcm.values()), (_lifted(p, lcm) for p in parts)


def sum_is_zero(signed: Iterable[tuple[object, int]]) -> bool:
    """Whether the sum of m*t over the (t, m) pairs is zero, exactly.
    Structurally equal terms merge first; the survivors' numerators are
    lifted over the LCM of their denominators and summed."""
    count: Counter = Counter()
    for t, m in signed:
        count[as_rational(t)] += m
    parts = [(t, m) for t, m in count.items() if m]
    _, numerators = over_common_denominator([t for t, _ in parts])
    total = LaurentPoly({})
    for num, (_, m) in zip(numerators, parts):
        total = total + (num if m == 1 else num.scale(m))
    return total.is_zero()


def _lifted(p: RationalFunction, lcm: dict) -> LaurentPoly:
    num = p.num
    if lcm:
        have = {f.key(): m for f, m in p.factors}
        for k, (f, m) in lcm.items():
            dm = m - have.get(k, 0)
            if dm:
                num = num * f**dm
    return num


def _normalize_factor(f: LaurentPoly):
    """Split a factor into (canonical factor or None, unit to push to the numerator)."""
    units = []
    mono = _inverse(f.monomial_gcd())
    if mono:
        f = f.shift(mono)
        units.append(LaurentPoly({mono: 1}))
    c = f.content()
    # the lex-first term, over the dense view
    _, lead_c = max(zip(f.dense()[1], f.terms.values()))
    if lead_c < 0:
        c = -c
    if c != 1:
        inv = coeff_quotient(1, c)
        f = f.scale(inv)
        units.append(LaurentPoly.constant(inv))
    if f.is_constant():
        v = f.constant_value()
        if v != 1:
            units.append(LaurentPoly.constant(coeff_quotient(1, v)))
        f = None
    unit = None
    for u in units:
        unit = u if unit is None else unit * u
    return f, unit


def _inverse(mono: Monomial) -> Monomial:
    """The monomial whose product with ``mono`` is 1."""
    return tuple([(v, -k) for v, k in mono])


def _is_irreducible(f: LaurentPoly) -> bool:
    """True if f = a*v + b for a variable v, a monomial a and b != 0 free of v.

    Such an f is irreducible: if f = g*h, the exponent ranges of v in g and
    h add up to that of f, which is 1, so one of them, say h, is v^k * h0
    with h0 free of v.  Then h0 divides the v-coefficient a of f, a
    monomial, so h is a unit.  Hence a factor of this shape that does not
    divide a polynomial shares no non-unit factor with it, and poly_gcd
    would return 1.  A v of that shape occurs in exactly one term, to the
    power 1.
    """
    if len(f.terms) < 2:
        return False
    seen: dict[str, list[int]] = {}
    for m in f.terms:
        for v, k in m:
            seen.setdefault(v, []).append(k)
    return [1] in seen.values()


def _substitute_poly(p: LaurentPoly, vals: Mapping[str, "RationalFunction"]) -> "RationalFunction":
    if not any(v in vals for m in p.terms for v, _ in m):
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

    # each term is c * prod power.num over the multiset sum of the powers'
    # factors, left unnormalized; the terms are summed over their LCM
    terms = []
    for mono, c in p.terms.items():
        num = LaurentPoly.constant(c)
        factors: dict = {}
        for name, k in mono:
            got = power(name, k)
            num = num * got.num
            for f, m in got.factors:
                key = f.key()
                factors[key] = (f, factors[key][1] + m if key in factors else m)
        terms.append(RationalFunction(num, tuple(factors.values())))
    lcm, numerators = over_common_denominator(terms)
    total = LaurentPoly({})
    for num in numerators:
        total = total + num
    return RationalFunction.make(total, lcm)


def as_rational(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, LaurentPoly):
        return RationalFunction.from_poly(x)
    if isinstance(x, (int, Fraction)):
        return RationalFunction.constant(x)
    if isinstance(x, str):
        return parse(x)
    return NotImplemented


# -- bounded polynomial gcd -----------------------------------------------


class _OutOfWork(Exception):
    pass


class _Work:
    """Shared charge counter for one top-level gcd computation.

    The pseudo-remainder sequence recurses on coefficient contents, and
    that tree can blow up in several variables even when every node stays
    under the term cap.  A single budget across the whole tree keeps the
    worst case bounded.
    """

    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, n: int):
        self.left -= n
        if self.left < 0:
            raise _OutOfWork


_GCD_WORK_CAP = 4000


def poly_gcd(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Non-unit common factor of two polynomials, or 1.

    Runs a primitive pseudo-remainder sequence in one main variable at a
    time, recursing on coefficient contents.  Past the term or bit cap of a
    pseudo-remainder it keeps only the content gcd found so far, and past
    the global work budget it returns 1; the result is always verified by
    exact division, so a bail-out can only miss a cancellation, never
    corrupt the value.
    """
    try:
        return _poly_gcd(f, g, _Work(_GCD_WORK_CAP))
    except _OutOfWork:
        return LaurentPoly.constant(1)


def _poly_gcd(f: LaurentPoly, g: LaurentPoly, work: _Work) -> LaurentPoly:
    if f.is_zero() or g.is_zero() or f.is_monomial() or g.is_monomial():
        return LaurentPoly.constant(1)
    work.spend(len(f.terms) + len(g.terms))
    f = f.shift(_inverse(f.monomial_gcd()))
    g = g.shift(_inverse(g.monomial_gcd()))
    shared = sorted(set(f.vars) & set(g.vars))
    if not shared:
        return LaurentPoly.constant(1)
    best = min(shared, key=lambda v: f.degree_in(v)[1] + g.degree_in(v)[1])
    result = _gcd_in_var(f, g, best, work)
    if result.is_constant() or result.is_monomial():
        return LaurentPoly.constant(1)
    # a useful common factor is no bigger than either input
    if len(result.terms) > max(len(f.terms), len(g.terms)):
        return LaurentPoly.constant(1)
    if f.exact_div(result) is None or g.exact_div(result) is None:
        return LaurentPoly.constant(1)
    return result


def _content_of(coeffs, work: _Work) -> LaurentPoly:
    items = list(coeffs)
    if not items:
        return LaurentPoly.constant(1)
    acc = items[0]
    for c in items[1:]:
        if acc.is_constant() or acc.is_monomial():
            return LaurentPoly.constant(1)
        acc = _poly_gcd(acc, c, work)
    if acc.is_monomial():
        return LaurentPoly.constant(1)
    return acc


def _gcd_in_var(f: LaurentPoly, g: LaurentPoly, v: str, work: _Work) -> LaurentPoly:
    uf, ug = f.coefficients_in(v), g.coefficients_in(v)
    cf = _content_of(uf.values(), work)
    cg = _content_of(ug.values(), work)
    content_gcd = _poly_gcd(cf, cg, work) if not (cf.is_constant() or cg.is_constant()) else LaurentPoly.constant(1)
    pf = {d: c.exact_div(cf) for d, c in uf.items()} if not cf.is_constant() else uf
    pg = {d: c.exact_div(cg) for d, c in ug.items()} if not cg.is_constant() else ug
    a, b = (pf, pg) if max(pf) >= max(pg) else (pg, pf)
    while b:
        r = _pseudo_rem(a, b, work)
        if r is None:
            return content_gcd
        # strip content to control growth
        if r:
            rc = _content_of(r.values(), work)
            if not rc.is_constant():
                r = {d: c.exact_div(rc) for d, c in r.items()}
        a, b = b, r
    if max(a) == 0:
        return content_gcd
    prim, _ = _normalize_factor(LaurentPoly.from_coefficients(a, v))
    return content_gcd if prim is None else content_gcd * prim


_GCD_BIT_CAP = 20000


def _coeff_bits(p: LaurentPoly) -> int:
    return max((c.numerator.bit_length() + c.denominator.bit_length() for c in p.terms.values()), default=0)


def _pseudo_rem(a: dict[int, LaurentPoly], b: dict[int, LaurentPoly], work: _Work):
    da, db = max(a), max(b)
    lb = b[db]
    nb = sum(len(c.terms) for c in b.values())
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        # pre-charge the term-product count of the coming round, and refuse
        # runaway integer growth: pseudo-remainders can square coefficient
        # sizes every step
        size_in = sum(len(c.terms) for c in r.values())
        work.spend(size_in * len(lb.terms) + nb * len(lr.terms) + 1)
        if _coeff_bits(lr) + _coeff_bits(lb) > _GCD_BIT_CAP:
            return None
        shift = dr - db
        nxt: dict[int, LaurentPoly] = {}
        for d, c in r.items():
            nxt[d] = c * lb
        for d, c in b.items():
            t = nxt.get(d + shift, LaurentPoly({})) - c * lr
            nxt[d + shift] = t
        r = {d: c for d, c in nxt.items() if not c.is_zero()}
        if sum(len(c.terms) for c in r.values()) > _GCD_TERM_CAP:
            return None
        if r and max(r) >= dr:  # leading term failed to cancel: bail out
            return None
    return r


# -- parser ---------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ValueError(f"expected {op!r}, got {val!r}")

    def parse_expr(self) -> RationalFunction:
        node = self.parse_term()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_term()
                node = node + rhs if val == "+" else node - rhs
            else:
                return node

    def parse_term(self) -> RationalFunction:
        node = self.parse_factor()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_factor()
                node = node * rhs if val == "*" else node / rhs
            else:
                return node

    def parse_factor(self) -> RationalFunction:
        sign = 1
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                if val == "-":
                    sign = -sign
            else:
                break
        node = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            node = node ** self.parse_int_exponent()
        return node if sign == 1 else -node

    def parse_int_exponent(self) -> int:
        esign = 1
        kind, val = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            if val == "-":
                esign = -1
        kind, val = self.take()
        if kind != "num":
            raise ValueError(f"expected integer exponent, got {val!r}")
        return esign * int(val)

    def parse_atom(self) -> RationalFunction:
        kind, val = self.take()
        if kind == "num":
            return RationalFunction.constant(int(val))
        if kind == "name":
            return RationalFunction.var(val)
        if kind == "op" and val == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ValueError(f"unexpected token {val!r}")


def parse(text: str) -> RationalFunction:
    """Parse the arithmetic grammar into a canonical rational function."""
    tokens = tokenize(text)
    if not tokens:
        raise ValueError("empty expression")
    parser = _Parser(tokens)
    node = parser.parse_expr()
    if parser.pos != len(tokens):
        raise ValueError(f"trailing input near {parser.tokens[parser.pos]!r}")
    return node
