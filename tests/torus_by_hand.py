"""The gr(2,n) torus potential and its pair surgery written out by hand, an
oracle for the facet build of lgmirror.potentials.

Each term is keyed by kind and column: ("row1", j) is z1_{j+1}/z1_j,
("row2", j) is z2_{j+1}/z2_j and ("rung", j) is z1_j/z2_j, where z1_{n-1}
stands for the quantum monomial and z2_0 for 1.  The keys are listed in
the order of the facets of ``ladder.moment_inequalities`` (row-1 steps,
row-2 steps, rungs, then the floor ("row2", 0)), but every term is
written from the z-variables alone and reads nothing from ``ladder``.
"""
from lgmirror.rational import RationalFunction


def z1(n, j, quantum):
    # the slot one past the top row is, by convention, the quantum monomial
    if j == n - 1:
        return quantum
    return RationalFunction.var(f"z1_{j}")


def z2(j):
    # the slot before the bottom row starts is, by convention, 1
    if j == 0:
        return RationalFunction.constant(1)
    return RationalFunction.var(f"z2_{j}")


def torus_terms(n, quantum):
    """Key -> term of the torus potential, with ``quantum`` for T^n or q."""
    terms = {}
    for j in range(1, n - 1):
        terms["row1", j] = z1(n, j + 1, quantum) / z1(n, j, quantum)
    for j in range(1, n - 2):
        terms["row2", j] = z2(j + 1) / z2(j)
    for j in range(1, n - 1):
        terms["rung", j] = z1(n, j, quantum) / z2(j)
    terms["row2", 0] = z2(1)
    return terms


def pair_keys(i):
    """The six torus terms the pair (i, i+1) removes; the middle four are
    the ones the homogeneous side merges, a and b' then c and d."""
    return (
        ("row1", i + 1), ("row1", i), ("row2", i),
        ("rung", i + 1), ("rung", i), ("row2", i - 1),
    )


def removed_by_value(n, i, quantum):
    """The terms of ``pair_keys(i)``, rebuilt from the z-variables."""
    return [
        z1(n, i + 2, quantum) / z1(n, i + 1, quantum),
        z1(n, i + 1, quantum) / z1(n, i, quantum),
        z2(i + 1) / z2(i),
        z1(n, i + 1, quantum) / z2(i + 1),
        z1(n, i, quantum) / z2(i),
        z2(i) / z2(i - 1),
    ]
