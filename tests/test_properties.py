"""Randomized property suites: derivatives, substitution congruence, gauge."""

import cmath
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from lgmirror.laurent import LaurentPoly
from lgmirror.potentials import immersed_potential, og_potentials
from lgmirror.rational import (
    RationalFunction,
    as_rational,
    over_common_denominator,
    parse,
)

from gauge import gauge_automorphism

VARS = ("x", "y")

# expression sizes are kept deliberately small: substitution composes
# denominators multiplicatively and large random shapes stop terminating
nonzero_fractions = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
).filter(lambda f: f != 0)

exponent_pairs = st.tuples(st.integers(-1, 1), st.integers(-1, 1))

laurents = st.dictionaries(
    exponent_pairs, nonzero_fractions, min_size=1, max_size=3
).map(lambda d: LaurentPoly.make(VARS, d))

small_laurents = st.dictionaries(
    exponent_pairs, nonzero_fractions, min_size=1, max_size=2
).map(lambda d: LaurentPoly.make(VARS, d))

rationals = st.tuples(laurents, small_laurents).map(
    lambda pair: as_rational(pair[0]) / as_rational(pair[1])
)

polynomials = small_laurents.map(as_rational)

substitutions = st.fixed_dictionaries({"x": polynomials, "y": polynomials})


# -- finite differences against exact partials -----------------------------


def _sample_point(rng, variables, expr, tries=200):
    """A random point with every denominator comfortably away from zero."""
    for _ in range(tries):
        point = {}
        for v in variables:
            r = rng.uniform(0.1, 10.0)
            t = rng.uniform(0.0, 2.0 * cmath.pi)
            point[v] = r * cmath.exp(1j * t)
        try:
            scale = abs(complex(expr.evaluate(point)))
        except ZeroDivisionError:
            continue
        clear = all(
            abs(complex(as_rational(f).evaluate(point))) > 0.05
            for f, _ in expr.factors
        )
        if clear and scale < 1e4:
            return point
    raise RuntimeError("could not sample a well-conditioned point")


def _fd_cases():
    gr_immersed = immersed_potential(4, {(1, 2)})
    og_clifford = og_potentials().clifford
    return [
        (parse("(x^2*y - 3/x + 1/y^2)/(x*y - 2)"), ("x", "y")),
        (parse("x^3 - 2*x*y + 5/(x - y)"), ("x", "y")),
        (gr_immersed.expr.substitute({"T": 1}), gr_immersed.variables),
        (og_clifford.expr, og_clifford.variables),
    ]


def test_finite_difference_matches_exact_partials():
    rng = random.Random(20240817)
    h = 1e-6
    cases = _fd_cases()
    checked = 0
    while checked < 100:
        expr, variables = cases[checked % len(cases)]
        point = _sample_point(rng, variables, expr)
        for v in variables:
            exact = complex(expr.partial(v).evaluate(point))
            up = dict(point)
            down = dict(point)
            up[v] = point[v] + h
            down[v] = point[v] - h
            approx = (
                complex(expr.evaluate(up)) - complex(expr.evaluate(down))
            ) / (2 * h)
            assert abs(approx - exact) <= 1e-5 * max(1.0, abs(exact))
        checked += 1
    assert checked == 100


def test_partial_of_constant_vanishes():
    assert parse("7/3").partial("x").equal(RationalFunction.constant(0))


# -- substitution is a ring map compatible with equality -------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=rationals, g=polynomials, sub=substitutions)
def test_substitute_equal_congruence(a, g, sub):
    assume(not g.num.is_zero())
    b = (a * g) / g
    assert a.equal(b)
    try:
        sa = a.substitute(sub)
        sb = b.substitute(sub)
    except ZeroDivisionError:
        assume(False)
    assert sa.equal(sb)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(a=rationals, b=rationals, sub=substitutions)
def test_substitute_is_a_ring_map(a, b, sub):
    try:
        left_sum = (a + b).substitute(sub)
        left_prod = (a * b).substitute(sub)
        sa = a.substitute(sub)
        sb = b.substitute(sub)
    except ZeroDivisionError:
        assume(False)
    assert left_sum.equal(sa + sb)
    assert left_prod.equal(sa * sb)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=rationals, b=rationals)
def test_product_rule_is_exact(a, b):
    left = (a * b).partial("x")
    right = a.partial("x") * b + a * b.partial("x")
    assert left.equal(right)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(a=rationals)
def test_equal_is_stable_under_exact_evaluation(a):
    point = {"x": Fraction(3, 2), "y": Fraction(-5, 7)}
    b = (a * parse("x*y + 3")) / parse("x*y + 3")
    try:
        va = a.evaluate(point)
        vb = b.evaluate(point)
    except ZeroDivisionError:
        assume(False)
    assert va == vb


# -- the common denominator and the univariate view ------------------------


@settings(max_examples=100, deadline=None, derandomize=True)
@given(parts=st.lists(rationals, min_size=1, max_size=3))
def test_common_denominator_sum_equals_add(parts):
    factors, numerators = over_common_denominator(parts)
    total = LaurentPoly({})
    for p, num in zip(parts, numerators):
        assert RationalFunction.make(num, factors).equal(p)
        total = total + num
    expected = parts[0]
    for p in parts[1:]:
        expected = expected + p
    assert RationalFunction.make(total, factors).equal(expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=laurents, name=st.sampled_from(("x", "y", "z")))
def test_univariate_view_round_trips(p, name):
    coeffs = p.coefficients_in(name)
    assert all(name not in c.vars and not c.is_zero() for c in coeffs.values())
    assert LaurentPoly.from_coefficients(coeffs, name) == p


# -- gauge transformations preserve the wall function ----------------------


@pytest.mark.parametrize("k", range(-3, 4))
def test_gauge_preserves_uv(k):
    gauge = gauge_automorphism(k)
    uv = parse("u*v")
    assert uv.substitute(gauge.bindings).equal(uv)


@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("power", [-2, -1, 1, 2])
def test_gauge_preserves_powers_of_uv(k, power):
    gauge = gauge_automorphism(k)
    expr = parse("u*v") ** power
    assert expr.substitute(gauge.bindings).equal(expr)


@pytest.mark.parametrize("k", [-3, -1, 1, 2, 3])
def test_gauge_moves_u_itself(k):
    gauge = gauge_automorphism(k)
    u = parse("u")
    assert not u.substitute(gauge.bindings).equal(u)


def test_gauge_zero_is_identity_on_everything():
    gauge = gauge_automorphism(0)
    probe = parse("u^2/(u*v - 1) + v")
    assert probe.substitute(gauge.bindings).equal(probe)
