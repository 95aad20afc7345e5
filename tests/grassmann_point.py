"""Points of Gr(2,n) as two coordinate rows over Fractions (or complex
numbers), the reference for the integer covering sampler of
lgmirror.plucker.

A point reads each minor from its rows when asked and decides chart
membership minor by minor, so it shares no scaling, no pattern grouping
and no waiver table with the sampler: the two can check each other.
"""
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Pair = tuple[int, int]


def cyclic_pairs(n: int) -> tuple[Pair, ...]:
    """The index pairs whose coordinates are required nonzero."""
    return tuple((j, j + 1) for j in range(1, n)) + ((1, n),)


@dataclass(frozen=True, eq=False)
class GrassmannPoint:
    """A plane through the origin, spanned by two coordinate rows and
    recorded by their minors, each computed when read.

    Exact points carry Fractions and satisfy the relations identically;
    numeric points carry complex values, checked to double precision.
    Two points are equal when they are the same plane, however spanned.
    """

    n: int
    top: tuple
    bottom: tuple

    NUMERIC_TOL = 1e-10

    @classmethod
    def from_vectors(cls, n, top, bottom) -> "GrassmannPoint":
        if len(top) != n or len(bottom) != n:
            raise ValueError("need two coordinate rows of length n")
        pt = cls(n, tuple(top), tuple(bottom))
        if not pt.in_open_part():
            raise ValueError("point lies on the forbidden divisor")
        return pt

    def minor(self, i: int, j: int):
        a, b = self.top, self.bottom
        return a[i - 1] * b[j - 1] - a[j - 1] * b[i - 1]

    def _plane(self) -> tuple:
        """The minors divided by the first nonzero one: the same for every
        pair of rows spanning the plane."""
        minors = self.values.values()
        lead = next((m for m in minors if m != 0), 1)
        if self.is_exact():
            lead = Fraction(lead)
        return tuple(m / lead for m in minors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GrassmannPoint):
            return NotImplemented
        return self.n == other.n and self._plane() == other._plane()

    def __hash__(self) -> int:
        return hash((self.n, self._plane()))

    @cached_property
    def values(self) -> dict[Pair, object]:
        """Every minor p_{i,j}, i < j, built on first use."""
        return {p: self.minor(*p) for p in itertools.combinations(range(1, self.n + 1), 2)}

    def is_exact(self) -> bool:
        # the minors are exact exactly when both rows are
        return all(isinstance(v, (Fraction, int)) for v in self.top + self.bottom)

    def scale(self) -> float:
        return max(abs(complex(v)) for v in self.values.values())

    @cached_property
    def _zero_tol(self):
        """None on an exact point; on a numeric one, the size up to which a
        minor counts as zero."""
        return None if self.is_exact() else self.NUMERIC_TOL * max(self.scale(), 1.0)

    def minor_nonzero(self, i: int, j: int) -> bool:
        """Whether p_{i,j} is nonzero: exactly on an exact point, beyond
        ``NUMERIC_TOL`` times the largest minor (at least 1) on a numeric one."""
        m = self.minor(i, j)
        tol = self._zero_tol
        return m != 0 if tol is None else abs(complex(m)) > tol

    def in_open_part(self) -> bool:
        return all(self.minor_nonzero(*p) for p in cyclic_pairs(self.n))


def random_point(n: int, seed: int) -> GrassmannPoint:
    """Deterministic pseudo-random exact point off the divisor, one
    generator per seed."""
    rng = random.Random(seed)

    def draw():
        num = 0
        while num == 0:
            num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 9))

    for _ in range(1000):
        top = [draw() for _ in range(n)]
        bottom = [draw() for _ in range(n)]
        try:
            return GrassmannPoint.from_vectors(n, top, bottom)
        except ValueError:
            continue
    raise RuntimeError("could not sample a point off the divisor")


def chart_membership(pt: GrassmannPoint, pair_set: frozenset) -> bool:
    """Whether the point lies in the chart attached to the pair set.

    The chart waives the nonvanishing requirement on p_{n-i-1,n} exactly
    for the chosen pairs (i, i+1); all other such coordinates must be
    nonzero.  Larger pair sets therefore give larger charts.
    """
    n = pt.n
    chosen = {i for i, _ in pair_set}
    return all(pt.minor_nonzero(n - i - 1, n) for i in range(1, n - 2) if i not in chosen)
