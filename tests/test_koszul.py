"""Koszul factorization: exact division, the squared differential, faults."""

import cmath
import math
import random
from dataclasses import replace

import pytest

from koszul_by_masks import apply_differential, square_check_by_masks
from lgmirror import koszul
from lgmirror.koszul import (
    center_decompose,
    corrupt_cofactor,
    divide_linear,
    equal_mod_adjoined,
    gr24_koszul,
    koszul_square_check,
    og15_koszul,
    reduce_adjoined,
)
from lgmirror.laurent import LaurentPoly
from lgmirror.potentials import gc_torus_potential
from lgmirror.rational import RationalFunction, parse

I_MODULUS = parse("s^2 + 1").num


@pytest.fixture(scope="module")
def og_data():
    return og15_koszul()


@pytest.fixture(scope="module")
def gr_data():
    return gr24_koszul()


def torus_koszul(n):
    """The gr(2,n) torus chart at T = 1, split at the all-ones centre;
    2(n - 2) variables."""
    p = gc_torus_potential(n)
    p = replace(p, terms=p.substitute_terms({"T": 1}))
    return center_decompose(p, dict.fromkeys(p.variables, 1))


# -- exact division --------------------------------------------------------


def test_divide_linear_plain():
    q = divide_linear(parse("x^2 - 9").num, "x", LaurentPoly.constant(3))
    assert RationalFunction.from_poly(q).equal(parse("x + 3"))


def test_divide_linear_inexact_raises():
    with pytest.raises(ArithmeticError):
        divide_linear(parse("x^2 + 1").num, "x", LaurentPoly.constant(1))


def test_divide_linear_missing_variable_raises():
    with pytest.raises(ArithmeticError):
        divide_linear(parse("y + 1").num, "x", LaurentPoly.constant(1))


def test_divide_linear_handles_negative_exponents():
    # 1/x - 1/2 vanishes at x = 2; quotient must be -1/(2x)
    p = parse("1/x - 1/2").num
    q = divide_linear(p, "x", LaurentPoly.constant(2))
    product = RationalFunction.from_poly(q) * parse("x - 2")
    assert product.equal(RationalFunction.from_poly(p))


def test_divide_linear_with_adjoined_symbol():
    # x^2 + 1 = (x - s)(x + s) once s^2 = -1
    q = divide_linear(parse("x^2 + 1").num, "x", parse("s").num, modulus=I_MODULUS)
    assert RationalFunction.from_poly(q).equal(parse("x + s"))


# -- the adjoined relation -------------------------------------------------


def test_reduce_adjoined_powers():
    assert reduce_adjoined(parse("s^2 + 1").num, I_MODULUS).is_zero()
    assert reduce_adjoined(parse("s^3").num, I_MODULUS).key() == parse("-s").num.key()
    assert reduce_adjoined(parse("s^4").num, I_MODULUS).key() == parse("1").num.key()
    assert reduce_adjoined(parse("1/s").num, I_MODULUS).key() == parse("-s").num.key()


def test_reduce_adjoined_leaves_other_variables_alone():
    p = parse("x^2*s^2 + x^2").num
    assert reduce_adjoined(p, I_MODULUS).is_zero()
    assert reduce_adjoined(p, parse("t^2 + 1").num).key() == p.key()


def test_equal_mod_adjoined():
    assert equal_mod_adjoined(parse("s^2"), parse("-1"), I_MODULUS)
    assert not equal_mod_adjoined(parse("s^2"), parse("1"), I_MODULUS)
    assert not equal_mod_adjoined(parse("s^2"), parse("-1"), None)


def _cyclotomic(m):
    """Integer coefficients, constant term first, of the m-th cyclotomic
    polynomial: x^m - 1 divided exactly by the monic Phi_d over the proper
    divisors d of m."""
    quotient = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d:
            continue
        divisor = _cyclotomic(d)
        top = len(divisor) - 1
        out = [0] * (len(quotient) - top)
        for k in range(len(out) - 1, -1, -1):
            out[k] = quotient[k + top]
            for j, c in enumerate(divisor):
                quotient[k + j] -= out[k] * c
        assert not any(quotient[:top])
        quotient = out
    return quotient


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8, 9, 12, 15])
def test_reduce_adjoined_matches_roots_of_unity(m, deadline):
    # the residue modulo Phi_m takes the value of the input at e^(2 pi i / m)
    phi = _cyclotomic(m)
    assert len(phi) - 1 == sum(math.gcd(k, m) == 1 for k in range(1, m + 1))
    modulus = LaurentPoly.make(("s",), {(k,): c for k, c in enumerate(phi) if c})
    zeta, x = cmath.exp(2j * cmath.pi / m), 0.8 - 0.6j
    rng = random.Random(m)
    for _ in range(25):
        terms = {
            (rng.randint(-2, 2), rng.randint(-3 * m, 3 * m)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 6))
        }
        residue = reduce_adjoined(LaurentPoly.make(("x", "s"), terms), modulus)
        if "s" in residue.vars:
            low, high = residue.degree_in("s")
            assert 0 <= low and high < len(phi) - 1
        want = sum(c * x**a * zeta**b for (a, b), c in terms.items())
        point = {"x": x, "s": zeta}
        names, rows = residue.dense()
        got = sum(
            c * math.prod(point[v] ** e for v, e in zip(names, exps))
            for exps, c in zip(rows, residue.terms.values())
        )
        assert abs(got - want) < 1e-9 * (1 + sum(map(abs, terms.values()))), terms


# -- decomposition ---------------------------------------------------------


def _square_of_one(data):
    """The verdict on the square of 1, whose diagonal coefficient is the sum
    of form_i * cofactor_i tested against the centered potential."""
    return next(v for v in koszul_square_check(data).verdicts if v.name == "square[1]")


def test_single_variable_square():
    data = center_decompose(parse("x^2"), {"x": 0})
    assert data.cofactors[0].equal(parse("x"))
    assert data.value.equal(RationalFunction.constant(0))
    assert _square_of_one(data).passed
    assert koszul_square_check(data).passed


def test_single_variable_shifted_center():
    data = center_decompose(parse("x^2"), {"x": 3})
    assert data.cofactors[0].equal(parse("x + 3"))
    assert data.value.equal(RationalFunction.constant(9))
    assert koszul_square_check(data).passed


def test_cofactors_are_linear_in_the_potential():
    center = {"u": 0, "v": 0, "z0": -1}
    extra = parse("u*v + z0^2")
    base = center_decompose(parse("v + v*z0 + u^2/(z0*(u*v - 1))"), center)
    bump = center_decompose(extra, center)
    both = center_decompose(base.potential + extra, center)
    for combined, a, b in zip(both.cofactors, base.cofactors, bump.cofactors):
        assert combined.equal(a + b)


def test_center_must_cover_all_variables():
    with pytest.raises(ValueError, match="cover"):
        center_decompose(parse("x + y"), {"x": 0})


def test_center_on_pole_rejected():
    with pytest.raises(ValueError, match="pole"):
        center_decompose(parse("1/z0 + u"), {"u": 0, "z0": 0})
    with pytest.raises(ValueError, match="pole"):
        center_decompose(parse("1/(u*v - 1)"), {"u": 1, "v": 1})


def test_center_values_must_be_polynomial():
    with pytest.raises(ValueError, match="polynomial"):
        center_decompose(parse("x + y"), {"x": parse("1/y"), "y": 0})


def test_variable_used_as_adjoined_symbol_rejected():
    with pytest.raises(ValueError, match="adjoined"):
        center_decompose(parse("x^2"), {"x": 0}, adjoined=parse("x^2 + 1").num)


@pytest.mark.parametrize("modulus", ["s^2 + t", "s^2 + s", "3", "1/s + 1"])
def test_malformed_adjoined_polynomial_rejected(modulus):
    # two variables, no constant term, no variable, a negative exponent
    with pytest.raises(ValueError, match="adjoined"):
        center_decompose(parse("x^2"), {"x": 0}, adjoined=parse(modulus).num)


@pytest.mark.parametrize("modulus", ["s^2 + t", "s^2 + s", "3", "1/s + 1"])
def test_reduce_adjoined_checks_its_modulus(modulus, deadline):
    # the reduction itself refuses a modulus it cannot pivot on
    with pytest.raises(ValueError, match="adjoined"):
        reduce_adjoined(parse("1/s").num, parse(modulus).num)


def test_vacuous_cofactor_for_absent_variable():
    data = center_decompose(parse("x^2"), {"x": 0, "y": 5})
    assert data.cofactors[1].equal(RationalFunction.constant(0))
    assert koszul_square_check(data).passed


# -- the two model factorizations ------------------------------------------


def test_og_decomposition(og_data):
    assert og_data.variables == ("u", "v", "z0")
    assert og_data.value.equal(RationalFunction.constant(0))
    assert og_data.modulus is None
    assert _square_of_one(og_data).passed


def test_og_square_check_covers_eight_basis_elements(og_data):
    report = koszul_square_check(og_data)
    assert report.passed, [v.name for v in report.failures()]
    squares = [v for v in report.verdicts if v.name.startswith("square[")]
    assert len(squares) == 8


def test_og_first_cofactor(og_data):
    assert og_data.cofactors[0].equal(parse("u"))


def test_gr_decomposition(gr_data):
    assert gr_data.variables == ("u1", "v1", "z1_1", "z2_2")
    assert gr_data.value.equal(RationalFunction.constant(0))
    assert gr_data.modulus.key() == I_MODULUS.key()
    assert _square_of_one(gr_data).passed


def test_gr_square_check_covers_sixteen_basis_elements(gr_data):
    report = koszul_square_check(gr_data)
    assert report.passed, [v.name for v in report.failures()]
    squares = [v for v in report.verdicts if v.name.startswith("square[")]
    assert len(squares) == 16


def test_gr_cofactors_are_reduced(gr_data):
    # after rewriting, the adjoined symbol appears at most linearly
    for cof in gr_data.cofactors:
        if "s" not in cof.num.vars:
            continue
        names, rows = cof.num.dense()
        idx = names.index("s")
        assert all(exps[idx] in (0, 1) for exps in rows)


def test_model_labels(og_data, gr_data):
    assert og_data.label == "og(1,5)/immersed"
    assert gr_data.label == "gr(2,4)/immersed[1,2]"
    assert center_decompose(parse("x^2"), {"x": 0}).label == "generic"


@pytest.mark.parametrize("make", [og15_koszul, gr24_koszul])
def test_shipped_centres_are_critical_points(make):
    # each partial vanishes at the centre, modulo the adjoined relation
    data = make()
    centre = dict(zip(data.variables, data.center))
    zero = RationalFunction.constant(0)
    for v in data.variables:
        slope = data.potential.partial(v).substitute(centre)
        assert equal_mod_adjoined(slope, zero, data.modulus), v


# -- the differential ------------------------------------------------------


def test_differential_flips_parity(og_data):
    one = RationalFunction.constant(1)
    for mask in range(8):
        image = apply_differential(og_data, {mask: one})
        for out_mask in image:
            assert bin(out_mask).count("1") % 2 != bin(mask).count("1") % 2


def test_differential_square_is_diagonal(og_data):
    one = RationalFunction.constant(1)
    target = og_data.potential - og_data.value
    for mask in range(8):
        square = apply_differential(og_data, apply_differential(og_data, {mask: one}))
        for out_mask, coeff in square.items():
            expected = target if out_mask == mask else RationalFunction.constant(0)
            assert coeff.equal(expected)


def _square_cases():
    for name, make in [("og15", og15_koszul), ("gr24", gr24_koszul)]:
        data = make()
        yield pytest.param(data, id=name)
        for i in range(len(data.variables)):
            yield pytest.param(corrupt_cofactor(data, i), id=f"{name}-corrupt{i}")
    yield pytest.param(torus_koszul(5), id="gr25-torus")


@pytest.mark.parametrize("data", list(_square_cases()))
def test_table_route_matches_the_masks_route(data):
    def rows(report):
        return [(v.name, v.passed, v.detail) for v in report.verdicts]

    assert rows(koszul_square_check(data)) == rows(square_check_by_masks(data))


def test_square_check_reads_the_insertion_signs(og_data, gr_data, monkeypatch):
    # with every sign +1 the two orders of a product no longer cancel
    monkeypatch.setattr(koszul, "_insert_sign", lambda mask, i: 1)
    for data in (og_data, gr_data):
        off_diagonal = [
            v
            for v in koszul_square_check(data).verdicts
            if v.name.startswith("square[")
            and not v.passed
            and v.detail != f"wrong coefficient on {v.name[len('square['):-1]}"
        ]
        assert off_diagonal, data.label


@pytest.fixture(scope="module")
def gr27_torus():
    return torus_koszul(7)


@pytest.mark.deadline(5)
def test_ten_variable_square_check(gr27_torus, deadline):
    report = koszul_square_check(gr27_torus)
    assert len(gr27_torus.variables) == 10
    assert len(report.verdicts) == 1024  # 2^10 squares
    assert report.passed, [v.name for v in report.failures()]


@pytest.mark.deadline(5)
def test_ten_variable_corrupted_cofactor_fails(gr27_torus, deadline):
    assert not koszul_square_check(corrupt_cofactor(gr27_torus, 0)).passed


def test_corrupted_cofactor_detected(og_data):
    bad = corrupt_cofactor(og_data, 2)
    report = koszul_square_check(bad)
    assert not report.passed
    assert any(v.name == "square[1]" for v in report.failures())


def test_corruption_leaves_original_intact(og_data):
    corrupt_cofactor(og_data, 0)
    assert koszul_square_check(og_data).passed


# -- serialization ---------------------------------------------------------


def test_as_dict_contains_cofactors(og_data):
    data = og_data.as_dict()
    assert data["schema"] == "koszul/1"
    assert len(data["cofactors"]) == 3
    assert data["value"] == "0"
