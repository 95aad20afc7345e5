"""Laurent polynomials on exponent tuples aligned with a sorted tuple of
variable names: the arithmetic that ``lgmirror.laurent.LaurentPoly`` ran
before its monomials became sparse (name, exponent) pairs.

Every sum and product aligns both operands to the union of their variables
and drops the variables no term uses afterwards.  It is the reference that
the sparse arithmetic is compared with, result by result: the variables,
the exponent tuples and coefficients in term order, ``key()`` and the
printed form.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, itemgetter, neg

from lgmirror.laurent import coeff_quotient


def _demoted(terms):
    if Fraction in map(type, terms.values()):
        return {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return terms


class DenseLaurent:
    """Sorted variable names and a dict from exponent tuples over them to
    nonzero int or Fraction coefficients; every variable is used."""

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = terms

    @staticmethod
    def make(vars_, terms) -> "DenseLaurent":
        """From sorted names and nonzero canonical coefficients."""
        return DenseLaurent.pruned(tuple(vars_), dict(terms))

    @staticmethod
    def pruned(vars_, terms) -> "DenseLaurent":
        """Drop the variables no term uses."""
        used = [i for i, column in enumerate(zip(*terms)) if any(column)]
        if len(used) != len(vars_):
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
            vars_ = tuple(vars_[i] for i in used)
        return DenseLaurent(vars_, terms)

    @staticmethod
    def constant(c) -> "DenseLaurent":
        return DenseLaurent((), {(): c} if c else {})

    def remap(self, merged):
        if merged == self.vars:
            return self.terms
        if not self.vars:
            return {(0,) * len(merged): c for c in self.terms.values()}
        where = {v: i for i, v in enumerate(self.vars)}
        pad = len(self.vars)
        pick = itemgetter(*[where.get(v, pad) for v in merged])
        return {pick(e + (0,)): c for e, c in self.terms.items()}

    @staticmethod
    def align(a: "DenseLaurent", b: "DenseLaurent"):
        if a.vars == b.vars:
            return a.vars, a.terms, b.terms
        merged = tuple(sorted(set(a.vars) | set(b.vars)))
        return merged, a.remap(merged), b.remap(merged)

    def __add__(self, other: "DenseLaurent") -> "DenseLaurent":
        vars_, ta, tb = DenseLaurent.align(self, other)
        out = dict(ta)
        for e, c in tb.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return DenseLaurent.pruned(vars_, _demoted(out))

    def __mul__(self, other: "DenseLaurent") -> "DenseLaurent":
        if not self.terms or not other.terms:
            return DenseLaurent((), {})
        vars_, ta, tb = DenseLaurent.align(self, other)
        if len(ta) > len(tb):
            ta, tb = tb, ta
        out = {}
        for ea, ca in ta.items():
            for eb, cb in tb.items():
                e = tuple(map(add, ea, eb))
                s = out.get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return DenseLaurent.pruned(vars_, _demoted(out))

    def __pow__(self, n: int) -> "DenseLaurent":
        if n < 0:
            (e, c), = self.terms.items()
            return DenseLaurent(self.vars, {tuple(n * x for x in e): coeff_quotient(1, c ** -n)})
        result = DenseLaurent.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monomial_gcd(self) -> tuple:
        """The componentwise least exponent tuple over the terms."""
        return tuple(map(min, zip(*self.terms)))

    def shift(self, exps) -> "DenseLaurent":
        """Multiply by the monomial with the given exponent tuple."""
        return DenseLaurent.pruned(
            self.vars, {tuple(map(add, e, exps)): c for e, c in self.terms.items()}
        )

    def partial(self, name: str) -> "DenseLaurent":
        if name not in self.vars:
            return DenseLaurent((), {})
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return DenseLaurent.pruned(self.vars, _demoted(out))

    def coefficients_in(self, name: str) -> dict[int, "DenseLaurent"]:
        if name not in self.vars:
            return {0: self} if self.terms else {}
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets: dict[int, dict] = {}
        for e, c in self.terms.items():
            buckets.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
        return {d: DenseLaurent.pruned(rest, terms) for d, terms in buckets.items()}

    def exact_div(self, divisor: "DenseLaurent"):
        """self / divisor by lex-leading division inside the Newton box of
        any exact quotient, or None when it is not exact."""
        if not self.terms:
            return DenseLaurent((), {})
        vars_, ta, tb = DenseLaurent.align(self, divisor)
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
        quot = {}
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
        return DenseLaurent.pruned(vars_, quot)

    def key(self):
        return (self.vars, tuple(sorted(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = [f"{v}^{k}" if k != 1 else v for v, k in zip(self.vars, e) if k != 0]
            mag = abs(c)
            if not factors:
                body = _magnitude(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([_magnitude(mag)] + factors)
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)


def _magnitude(q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
