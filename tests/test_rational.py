"""Unit and property tests for canonical rational functions."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror.laurent import LaurentPoly
from lgmirror.rational import (
    RationalFunction,
    _is_irreducible,
    as_rational,
    parse,
    poly_gcd,
    sum_is_zero,
)


def test_partial_fraction_identity():
    a = parse("1/((u*v-1)*u*z) + 1/(u*z)")
    b = parse("v/((u*v-1)*z)")
    assert a.equal(b)
    assert a == b  # the canonical forms coincide here as well


def test_partial_derivative_with_quotient_rule():
    f = parse("u + v/((u*v-1)*z)")
    df = f.partial("u")
    assert df.equal(parse("1 - v^2/((u*v-1)^2*z)"))


def test_canonical_denominator_shape():
    f = parse("(2*v + 4)/(6*z0*(u*v - 1))")
    den = f.den
    # no monomial content, integer coprime coefficients, positive lex-first term
    assert den.monomial_gcd() == ()
    assert den.content() == 1
    assert max(zip(den.dense()[1], den.terms.values()))[1] > 0
    assert f.equal(parse("(v + 2)/(3*z0*(u*v-1))"))


def test_denominator_sign_normalization():
    f = parse("1/(1 - u*v)")
    g = parse("-1/(u*v - 1)")
    assert f == g
    assert max(zip(f.den.dense()[1], f.den.terms.values()))[1] > 0


def test_gcd_cancellation_univariate():
    assert parse("(x^2 - 1)/(x - 1)") == parse("x + 1")


def test_gcd_cancellation_multivariate():
    assert parse("(u^2*v^2 - 1)/(u*v - 1)") == parse("u*v + 1")
    f = parse("((u + v)^2 * (u - v))/((u + v) * z)")
    assert f == parse("((u+v)*(u-v))/z")


def test_poly_gcd_finds_shared_factor():
    a = parse("(u + v)*(u*v - 1)").num
    b = parse("(u + v)*(u - 2)").num
    g = poly_gcd(a, b)
    assert g == parse("u + v").num


def test_poly_gcd_trivial_for_coprime():
    a = parse("u + 1").num
    b = parse("v + 1").num
    assert poly_gcd(a, b).is_constant()


def test_long_exact_quotient_cancels():
    f = parse("(x^120-1)/(x-1)")
    assert f.factors == ()
    assert len(f.num.terms) == 120


@pytest.mark.parametrize("text", ["1 + x*y", "x*y - 1", "1 + x + y", "x^2*y + x + 1"])
def test_is_irreducible_linear_in_a_variable(text):
    assert _is_irreducible(parse(text).num)


@pytest.mark.parametrize("text", ["x^2 - 1", "x^2 + y^2", "(1+x)*(1+y)"])
def test_is_irreducible_refuses_other_shapes(text):
    assert not _is_irreducible(parse(text).num)


@st.composite
def polys(draw):
    names = ("u", "v", "w")
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = tuple(draw(st.integers(0, 2)) for _ in names)
        terms[e] = terms.get(e, 0) + draw(st.integers(-3, 3))
    return LaurentPoly.make(names, {e: Fraction(c) for e, c in terms.items() if c})


@st.composite
def binomials(draw):
    names = ("u", "v", "w")
    e1, e2 = (tuple(draw(st.integers(0, 2)) for _ in names) for _ in range(2))
    sign = draw(st.sampled_from([1, -1]))
    return LaurentPoly.make(names, {e1: Fraction(1)}) + LaurentPoly.make(names, {e2: Fraction(sign)})


@settings(max_examples=150, deadline=None)
@given(binomials(), binomials(), binomials(), polys())
def test_irreducible_factor_that_does_not_divide_is_coprime(b1, b2, b3, h):
    # g shares the factor b1 with the candidate b1*b2, so a wrong verdict shows
    g = b1 * b3
    for f in (b1 * b2, b2, h):
        if f.is_zero() or g.is_zero() or not _is_irreducible(f):
            continue
        if g.exact_div(f) is None:
            assert poly_gcd(g, f).is_constant()


def test_normalize_idempotent_structurally():
    samples = [
        "3/2*u - v^2/(7*(u*v-1))",
        "(u - v)/(v - u)",
        "1/(u*v*z^3)",
        "(x+1)^3/(x^2-1)",
    ]
    for text in samples:
        f = parse(text)
        again = RationalFunction.make(f.num, f.factors)
        assert again == f


def test_substitute_is_simultaneous():
    f = parse("x/y")
    g = f.substitute({"x": parse("y"), "y": parse("x")})
    assert g.equal(parse("y/x"))


def test_substitute_then_equal_congruence():
    f = parse("1/((u*v-1)*u*z) + 1/(u*z)")
    g = parse("v/((u*v-1)*z)")
    binding = {"v": parse("(a+1)/a"), "z": parse("a^2")}
    assert f.substitute(binding).equal(g.substitute(binding))


def test_substitute_leaves_unbound_variables():
    f = parse("u + v")
    assert f.substitute({"u": parse("w^2")}).equal(parse("w^2 + v"))


def test_mixed_partials_commute():
    f = parse("u^2*v/(u*v - 1) + v/(u + w)")
    assert f.partial("u").partial("v").equal(f.partial("v").partial("u"))


def test_pow_and_inverse():
    f = parse("(u + 1)/v")
    assert (f ** 0).equal(parse("1"))
    assert (f ** -2).equal(parse("v^2/(u+1)^2"))
    assert (f * f.inverse()).equal(parse("1"))


def test_evaluate_exact():
    f = parse("(u^2 - v)/(u - 1)")
    got = f.evaluate({"u": Fraction(3), "v": Fraction(2)})
    assert got == Fraction(7, 2)
    # integer coefficients at an integer point divide exactly, not into a float
    got = f.evaluate({"u": 3, "v": 2})
    assert type(got) is Fraction and got == Fraction(7, 2)
    with pytest.raises(ZeroDivisionError):
        f.evaluate({"u": Fraction(1), "v": Fraction(0)})


def test_evaluate_exact_with_negative_exponents():
    # monomial denominators are negative exponents of the numerator
    got = parse("1/u").evaluate({"u": 2})
    assert type(got) is Fraction and got == Fraction(1, 2)
    got = parse("(u+1)/v").evaluate({"u": 2, "v": 3})
    assert type(got) in (int, Fraction) and got == 1
    got = parse("v/u^2").evaluate({"u": Fraction(1, 3), "v": 2})
    assert type(got) in (int, Fraction) and got == 18
    # complex points stay complex
    assert parse("1/u").evaluate({"u": 2j}) == -0.5j


def test_parser_rejects_garbage():
    for bad in ["", "u +", "(u", "u ? v", "2^u"]:
        with pytest.raises(ValueError):
            parse(bad)


def test_comma_variable_tokens():
    f = parse("p_1,3/p_2,3")
    assert f.variables() == ("p_1,3", "p_2,3")


def test_roundtrip_random_expressions():
    rng = random.Random(7)
    names = ["u", "v", "z0", "w0", "T"]

    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = tuple(rng.randint(-2, 3) for _ in names)
            terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return LaurentPoly.make(tuple(names), {e: c for e, c in terms.items() if c})

    for _ in range(60):
        num = rand_poly()
        den = rand_poly()
        if den.is_zero():
            continue
        f = as_rational(num) / as_rational(den)
        assert parse(str(f)) == f


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6))
def test_constant_arithmetic_matches_fractions(a, b, d):
    x = RationalFunction.constant(Fraction(a, d))
    y = RationalFunction.constant(b)
    assert (x + y).equal(RationalFunction.constant(Fraction(a, d) + b))
    assert (x * y).equal(RationalFunction.constant(Fraction(a, d) * b))


def test_sum_is_zero_on_signed_term_lists():
    assert sum_is_zero([])
    assert sum_is_zero([(parse("x/y"), 2), ("x/y", -1), (parse("x/y"), -1)])
    # the zero test needs the lift: no two terms are structurally equal
    partial_fractions = [("1/(x - 1)", 1), ("1/(x + 1)", 1), ("2*x/(x^2 - 1)", -1)]
    assert sum_is_zero(partial_fractions)
    assert not sum_is_zero(partial_fractions[:2])
    assert not sum_is_zero([("x", 2), ("x", -1)])
    assert not sum_is_zero([("1/(x - 1)", 1), ("1/(x - 1)", 1), ("2/(x - 1)", 1)])
    assert sum_is_zero([("1/(x - 1)", 2), ("2/(x - 1)", -1)])
