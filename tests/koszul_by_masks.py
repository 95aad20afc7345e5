"""The square check of a Koszul factorization by applying the odd operator
twice to every exterior basis element, each coefficient summed as a
canonical RationalFunction.  It is the reference that the product-table
route of ``lgmirror.koszul.koszul_square_check`` is compared with, verdict
by verdict."""

from typing import Mapping

from lgmirror.koszul import KoszulData, _basis_label, _insert_sign, equal_mod_adjoined
from lgmirror.rational import RationalFunction
from lgmirror.report import Report, Verdict


def apply_differential(
    data: KoszulData, element: Mapping[int, RationalFunction]
) -> dict[int, RationalFunction]:
    """One application of wedge-by-linear-forms plus cofactor contraction."""
    m = len(data.variables)
    forms = data.linear_forms()
    out: dict[int, RationalFunction] = {}

    def add(mask, term):
        out[mask] = out.get(mask, RationalFunction.constant(0)) + term

    for mask, coeff in element.items():
        for i in range(m):
            bit = 1 << i
            sign = _insert_sign(mask, i)
            if mask & bit:
                add(mask ^ bit, data.cofactors[i] * coeff * sign)
            else:
                add(mask | bit, forms[i] * coeff * sign)
    return out


def square_check_by_masks(data: KoszulData) -> Report:
    """The report of ``koszul_square_check``, from the operator applied
    twice to every basis element."""
    m = len(data.variables)
    target = data.potential - data.value
    zero = RationalFunction.constant(0)
    verdicts = []
    for mask in range(1 << m):
        image = apply_differential(data, {mask: RationalFunction.constant(1)})
        square = apply_differential(data, image)
        ok = True
        detail = "matches"
        for k, coeff in square.items():
            want = target if k == mask else zero
            if not equal_mod_adjoined(coeff, want, data.modulus):
                ok = False
                detail = f"wrong coefficient on {_basis_label(k, m)}"
                break
        verdicts.append(Verdict(f"square[{_basis_label(mask, m)}]", ok, detail))
    return Report(f"koszul factorization [{data.label}]", tuple(verdicts))
