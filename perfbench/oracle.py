"""Reference answers computed without any lgmirror code.

Everything here is closed-form arithmetic or brute-force counting in plain
Python, so a change to the program cannot move the reference along with
the answer it is checked against.
"""

from __future__ import annotations

import cmath
import itertools
import math

VALUE_TOL = 1e-8
RESIDUAL_TOL = 1e-10


def gr_critical_values(n: int) -> list[complex]:
    """Critical values of the gr(2,n) mirror at q = 1: n*(z_a + z_b) over
    the 2-subsets of the roots of z^n = -1."""
    roots = [cmath.exp(1j * math.pi * (2 * k + 1) / n) for k in range(n)]
    return [n * (a + b) for a, b in itertools.combinations(roots, 2)]


def og15_critical_values() -> list[complex]:
    """Critical values of the quadric mirror at q = 1: 3*4^(1/3)*xi^j for
    the cube roots of unity xi^j, and 0."""
    xi = cmath.exp(2j * math.pi / 3)
    return [3 * 4.0 ** (1.0 / 3.0) * xi**j for j in range(3)] + [0j]


def match_values(values, expected, tol: float = VALUE_TOL) -> int:
    """How many of ``values`` match a distinct entry of ``expected``.

    The expected values of one model are either equal or far apart, so
    taking the first unused match is a maximum matching."""
    unused = list(expected)
    matched = 0
    for v in values:
        for k, e in enumerate(unused):
            if abs(v - e) <= tol:
                del unused[k]
                matched += 1
                break
    return matched


def fibonacci(k: int) -> int:
    """F(1) = F(2) = 1."""
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def independent_subsets(size: int) -> int:
    """Subsets of a path of ``size`` vertices with no two adjacent, by brute
    force."""
    return sum(1 for mask in range(1 << size) if not mask & (mask >> 1))


def maximal_pair_sets(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Maximal sets of disjoint pairs (i, i+1) drawn from {1..n-2}, by brute
    force over all subsets of the n-3 candidate pairs; bit b of a subset
    stands for the pair (b+1, b+2)."""
    size = n - 3
    valid = {m for m in range(1 << size) if not m & (m >> 1)}
    maximal = [
        m
        for m in sorted(valid)
        if all(m | (1 << b) not in valid for b in range(size) if not m >> b & 1)
    ]
    return [tuple((b + 1, b + 2) for b in range(size) if m >> b & 1) for m in maximal]


def wall_series_coefficient(i: int) -> str:
    """The T^(2i+1) coefficient of v/((u*v - 1)*z0) with valuations
    u = v = 1, z0 = 0, written the way the program prints polynomials:
    -u^i*v^(i+1)*z0^-1."""

    def power(name: str, k: int) -> str:
        return name if k == 1 else f"{name}^{k}"

    factors = ([power("u", i)] if i else []) + [power("v", i + 1), "z0^-1"]
    return "-" + "*".join(factors)
