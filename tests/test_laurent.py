"""Unit tests for the sparse Laurent polynomial layer."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror.laurent import LaurentPoly, format_poly
from lgmirror.rational import parse


def P(text):
    r = parse(text)
    assert r.is_polynomial(), text
    return r.num


def test_binomial_square():
    u, v = LaurentPoly.var("u"), LaurentPoly.var("v")
    assert (u + v) ** 2 == u ** 2 + 2 * u * v + v ** 2


def test_negative_exponents_multiply():
    m = LaurentPoly.monomial({"u": -2, "v": 1}, Fraction(3, 2))
    n = LaurentPoly.monomial({"u": 2, "w": -1})
    prod = m * n
    assert prod == LaurentPoly.monomial({"v": 1, "w": -1}, Fraction(3, 2))


def test_variable_pruning():
    u = LaurentPoly.var("u")
    z = LaurentPoly.var("z")
    diff = (u + z) - z
    assert diff.vars == ("u",)


def test_content_and_monomial_gcd():
    p = P("6*u^2*v - 9*u*v^2")
    assert p.content() == Fraction(3)
    assert p.monomial_gcd() == (1, 1)
    shifted = p.shift((-1, -1))
    assert shifted == P("6*u - 9*v")


def test_exact_div_success_and_failure():
    f = P("u^2*v^2 - 1")
    g = P("u*v - 1")
    q = f.exact_div(g)
    assert q == P("u*v + 1")
    assert P("u^2 + 1").exact_div(g) is None


def test_exact_div_with_laurent_units():
    f = P("u*v - 1") * LaurentPoly.monomial({"z": -3})
    g = P("u*v - 1")
    assert f.exact_div(g) == LaurentPoly.monomial({"z": -3})


def _geometric(x, n):
    return sum((x ** k for k in range(n)), LaurentPoly.constant(0))


def test_exact_div_long_quotient():
    x = LaurentPoly.var("x")
    assert (x ** 200 - 1).exact_div(x - 1) == _geometric(x, 200)


def test_exact_div_long_quotient_with_laurent_unit():
    x = LaurentPoly.var("x")
    unit = LaurentPoly.monomial({"z": -3})
    f = (x ** 200 - 1) * unit
    assert f.exact_div(x - 1) == _geometric(x, 200) * unit
    assert f.exact_div((x - 1) * unit) == _geometric(x, 200)


def test_pow_negative_monomial_only():
    m = LaurentPoly.monomial({"u": 2}, Fraction(1, 2))
    assert m ** -1 == LaurentPoly.monomial({"u": -2}, 2)
    with pytest.raises(ValueError):
        (P("u + 1")) ** -1


def test_partial_derivative():
    p = P("u^3*v - 2*u*v + 7")
    assert p.partial("u") == P("3*u^2*v - 2*v")
    assert p.partial("w").is_zero()


def test_evaluate_exact_and_complex():
    p = P("u^2 - v")
    assert p.evaluate({"u": Fraction(1, 2), "v": Fraction(1, 4)}) == 0
    val = p.evaluate({"u": 1j, "v": 2.0})
    assert val == (-1 - 2) + 0j


def test_rename_is_injective_only():
    p = P("u + v")
    q = p.rename({"u": "a"})
    assert q == P("a + v")
    with pytest.raises(ValueError):
        p.rename({"u": "v"})


def test_format_deterministic_order():
    p = P("v + u^2 + u")
    assert format_poly(p) == "u^2 + u + v"


@st.composite
def small_polys(draw):
    names = ("u", "v", "w")
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(-3, 3)) for _ in names)
        c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5)))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return LaurentPoly.make(names, {e: c for e, c in terms.items() if c})


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(small_polys(), small_polys())
def test_exact_division_inverts_multiplication(a, b):
    if b.is_zero():
        return
    q = (a * b).exact_div(b)
    assert q is not None and q == a
    # lex-leading division finds the quotient terms largest first
    assert list(q.terms) == sorted(q.terms, reverse=True)


@st.composite
def shifts(draw):
    return LaurentPoly.monomial({v: draw(st.integers(-4, 4)) for v in ("u", "v", "w")})


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys(), shifts(), shifts())
def test_exact_div_rejects_off_by_a_constant(a, b, m1, m2):
    # a*b + 1 = q*b would make b a unit, and a polynomial of two or more
    # terms is not one
    if len(b.terms) < 2:
        return
    assert ((a * b + 1) * m1).exact_div(b * m2) is None


@settings(max_examples=100, deadline=None)
@given(small_polys(), small_polys(), small_polys(), shifts())
def test_exact_div_quotient_is_exact(a, b, c, m):
    if b.is_zero():
        return
    f = a * b * m + c
    q = f.exact_div(b)
    if q is not None:
        assert q * b == f
    if c.is_zero():
        assert q == a * m


# -- the coefficient invariant: an int when whole, else a Fraction ----------


def _canonical(p):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1)
        for c in p.terms.values()
    )


@settings(max_examples=120, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_arithmetic_keeps_coefficients_ints_or_proper_fractions(a, b, c):
    # small_polys draws halves and thirds, so sums and products land on
    # whole values that must come out as ints
    results = [a + b, a - b, a + b + c, a * b, (a + b) * c, a * 2, Fraction(1, 2) * a]
    results += [p.partial(v) for p in (a, a * b) for v in ("u", "v", "w")]
    if not b.is_zero():
        results.append((a * b).exact_div(b))
    for p in results:
        assert _canonical(p), p.terms


def test_exact_div_by_a_monomial_gives_exact_halves():
    x, y = LaurentPoly.var("x"), LaurentPoly.var("y")
    q = (x + 3 * x ** 2 * y + 4 * x * y).exact_div(2 * x)
    assert q.terms == {(0, 0): Fraction(1, 2), (1, 1): Fraction(3, 2), (0, 1): 2}
    assert _canonical(q) and type(q.terms[(0, 1)]) is int
    half = (x ** 2 - 1).exact_div(2 * x - 2)
    assert half == LaurentPoly.make(("x",), {(1,): Fraction(1, 2), (0,): Fraction(1, 2)})
    assert _canonical(half)
    assert _canonical((6 * x ** 2 - 6).exact_div(2 * x - 2))


def test_negative_power_of_an_integer_coefficient_is_exact():
    inv = LaurentPoly.monomial({"x": 1}, 2) ** -1
    assert inv.terms == {(-1,): Fraction(1, 2)} and _canonical(inv)
    back = LaurentPoly.monomial({"x": 1}, Fraction(1, 2)) ** -2
    assert back.terms == {(-2,): 4} and type(back.terms[(-2,)]) is int


def test_make_and_constructors_demote_whole_fractions():
    p = LaurentPoly.make(("x", "y"), {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 3)})
    assert type(p.terms[(1, 0)]) is int and _canonical(p)
    assert type(LaurentPoly.constant(Fraction(6, 3)).constant_value()) is int
    assert type(P("u/2 + u/2").terms[(1,)]) is int
    with pytest.raises(TypeError):
        LaurentPoly.constant(0.5)


def test_univariate_view_keeps_coefficients_canonical():
    p = P("3*u^2*v + u*v/2 - 7 + w/3")
    view = p.coefficients_in("u")
    assert all(_canonical(c) for c in view.values())
    back = LaurentPoly.from_coefficients(view, "u")
    assert back == p and _canonical(back)


def test_novikov_expansion_with_lead_two_stays_exact():
    from lgmirror.novikov import novikov_expand

    series = novikov_expand(parse("4/(2 + T)"), {}, 4)
    coeffs = [series.coefficient(e) for e in series.exponents()]
    assert [c.constant_value() for c in coeffs] == [2, -1, Fraction(1, 2), Fraction(-1, 4)]
    assert all(_canonical(c) for c in coeffs)
    assert type(coeffs[0].constant_value()) is int
