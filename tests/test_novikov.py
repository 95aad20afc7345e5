"""Tests for the formal parameter expansion."""
from fractions import Fraction

import pytest

from lgmirror.laurent import LaurentPoly
from lgmirror.novikov import NovikovSeries, novikov_expand
from lgmirror.rational import as_rational, parse


def test_geometric_expansion_of_immersed_term():
    # v/((uv-1) z0) = -(v/z0) (1 + uv + (uv)^2 + ...) under weights u,v -> 1, z0 -> 0
    s = novikov_expand(parse("v/((u*v-1)*z0)"), {"u": 1, "v": 1, "z0": 0}, 6)
    assert s.exponents() == (Fraction(1), Fraction(3), Fraction(5))
    for i, (e, coeff) in enumerate(s.terms):
        expected = LaurentPoly.monomial({"u": i, "v": i + 1, "z0": -1}, -1)
        assert coeff == expected


def test_expansion_to_higher_order():
    s = novikov_expand(parse("v/((u*v-1)*z0)"), {"u": 1, "v": 1, "z0": 0}, 11)
    assert s.exponents() == tuple(Fraction(2 * i + 1) for i in range(5))
    for i, (_, coeff) in enumerate(s.terms):
        assert coeff == LaurentPoly.monomial({"u": i, "v": i + 1, "z0": -1}, -1)


def test_t_variable_gets_default_weight_one():
    s = novikov_expand(parse("T^4/z12 + z12/z11"), {"z12": 3, "z11": 2}, 10)
    assert s.exponents() == (Fraction(1),)
    coeff = s.terms[0][1]
    assert coeff == LaurentPoly.monomial({"z12": -1}) + LaurentPoly.monomial({"z11": -1, "z12": 1})


def test_nonunique_minimal_valuation_rejected():
    with pytest.raises(ValueError):
        novikov_expand(parse("1/(1 + u)"), {"u": 0}, 4)


def test_fractional_weights():
    s = novikov_expand(parse("u + v"), {"u": Fraction(1, 2), "v": Fraction(3, 2)}, 2)
    assert s.exponents() == (Fraction(1, 2), Fraction(3, 2))


def test_product_respects_truncation():
    # v(u^2 + z0)/((uv - 1) z0) = -v(u^2/z0 + 1) sum_k (uv)^k, and (uv)^k has
    # valuation 2k: the terms -u^k v^(k+1) and -u^(k+2) v^(k+1)/z0 land at
    # T^(2k+1) and T^(2k+3)
    weights = {"u": 1, "v": 1, "z0": 0}
    s = novikov_expand(parse("v/((u*v-1)*z0)") * parse("u^2 + z0"), weights, 8)
    assert s.order == 8
    assert s.exponents() == (1, 3, 5, 7)
    assert as_rational(s.coefficient(1)).equal(parse("-v"))
    for k in range(1, 4):
        expected = parse(f"-u^{k}*v^{k + 1} - u^{k + 1}*v^{k}/z0")
        assert as_rational(s.coefficient(2 * k + 1)).equal(expected), k


def test_product_with_negative_valuations():
    # u * v/(1 - uv) = sum_{k>=1} (uv)^k, and uv has valuation -1 + 2 = 1
    weights = {"u": -1, "v": 2}
    s = novikov_expand(parse("u") * parse("v/(1 - u*v)"), weights, 5)
    assert s.order == 5
    assert s.exponents() == (1, 2, 3, 4)
    for k in range(1, 5):
        assert as_rational(s.coefficient(k)).equal(parse(f"u^{k}*v^{k}")), k


def test_series_constructor_guards():
    one = LaurentPoly.constant(1)
    with pytest.raises(ValueError):
        NovikovSeries(((Fraction(2), one), (Fraction(1), one)), Fraction(5))
    with pytest.raises(ValueError):
        NovikovSeries(((Fraction(7), one),), Fraction(5))
    with pytest.raises(ValueError):
        NovikovSeries(((Fraction(1), LaurentPoly((), {})),), Fraction(5))
