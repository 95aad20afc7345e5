"""Substitution over one common denominator against the term-by-term
reference: identical canonical forms, one normalization, and the
zero-denominator paths."""

import random
from fractions import Fraction

import pytest

import term_by_term_substitution as ref
from lgmirror.atlas import gr_product_atlas, og15_atlas
from lgmirror.ladder import index_sets
from lgmirror.laurent import LaurentPoly
from lgmirror.plucker import _fan_chart, parametrize
from lgmirror.potentials import restricted_terms
from lgmirror.rational import RationalFunction, as_rational, parse

VARS = ("x", "y", "z")
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3))
# sparse denominators that some bindings send to zero
DENOMINATORS = ("x - y", "x*y - 1", "x + z", "y - 1", "x*z + y", "z - x^2")


def _same_form(a: RationalFunction, b: RationalFunction) -> bool:
    return a.num == b.num and a.factors == b.factors


def _poly(rng, terms):
    exps = [tuple(rng.randint(-1, 2) for _ in VARS) for _ in range(terms)]
    return LaurentPoly.make(VARS, {e: rng.choice(COEFFS) for e in exps})


def _function(rng):
    if rng.random() < 0.5:
        den = parse(rng.choice(DENOMINATORS))
    else:
        den = as_rational(_poly(rng, rng.randint(1, 2)))
    return as_rational(_poly(rng, rng.randint(1, 3))) / den


def _value(rng):
    r = rng.random()
    if r < 0.15:
        return RationalFunction.var(rng.choice(VARS))
    if r < 0.25:
        return RationalFunction.constant(rng.choice((1, -1, 2)))
    if r < 0.6:
        return as_rational(_poly(rng, rng.randint(1, 2)))
    return as_rational(_poly(rng, rng.randint(1, 2))) / as_rational(_poly(rng, rng.randint(1, 2)))


def _outcome(substitute, f, bindings):
    try:
        return substitute(f, bindings)
    except ZeroDivisionError:
        return ZeroDivisionError


def test_random_substitutions_match_the_reference():
    rng = random.Random(20)
    zeros = 0
    for _ in range(2000):
        f = _function(rng)
        bindings = {v: _value(rng) for v in rng.sample(VARS, rng.randint(1, 3))}
        got = _outcome(RationalFunction.substitute, f, bindings)
        want = _outcome(ref.substitute, f, bindings)
        if want is ZeroDivisionError:
            zeros += 1
            assert got is ZeroDivisionError, (f, bindings)
        else:
            assert got is not ZeroDivisionError and _same_form(got, want), (f, bindings)
    assert zeros > 0  # the zero-denominator path was exercised


@pytest.mark.parametrize("n", range(4, 9))
def test_atlas_pullbacks_match_the_reference(n):
    _check_pullbacks(gr_product_atlas(n))


def test_og15_pullbacks_match_the_reference():
    _check_pullbacks(og15_atlas())


def _check_pullbacks(a):
    checked = 0
    for t in a.transitions:
        w = a.potentials.get(t.target)
        if w is None:
            continue
        got = w.substitute_terms(t.bindings)
        want = [ref.substitute(term, t.bindings) for term in w.terms]
        assert all(map(_same_form, got, want)), (t.source, t.target)
        checked += 1
    assert checked


@pytest.mark.parametrize("n", range(4, 10))
def test_parametrized_restricted_terms_match_the_reference(n):
    table = _fan_chart(n)
    for pair_set in index_sets(n)[0]:
        for term in restricted_terms(n, pair_set):
            assert _same_form(parametrize(term, n), ref.substitute(term, table)), (pair_set, term)


def test_substitution_into_a_polynomial_normalizes_once(monkeypatch):
    # every power is a first power, so no bound value is raised through make
    f = parse("x*y + 2*x - 3*y + 1")
    bindings = {"x": parse("u + v"), "y": parse("u*v - 1")}
    calls = []
    real = RationalFunction.make
    monkeypatch.setattr(
        RationalFunction, "make", staticmethod(lambda *a: calls.append(a) or real(*a))
    )
    out = f.substitute(bindings)
    assert len(calls) == 1
    monkeypatch.undo()
    assert _same_form(out, ref.substitute(f, bindings))


def test_pow_one_is_the_function_itself():
    f = parse("(x + 1)/(x*y - 2)")
    assert f ** 1 is f


def test_substituting_a_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        parse("1/(x - y)").substitute({"x": parse("y")})


def test_parametrize_rejects_a_function_undefined_on_the_grassmannian():
    # the three-term Plucker relation of gr(2,4) is the denominator
    with pytest.raises(ValueError, match="undefined on the Grassmannian"):
        parametrize("1/(p_1,3*p_2,4 - p_1,2*p_3,4 - p_1,4*p_2,3)", 4)
