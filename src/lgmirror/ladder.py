"""Ladder diagrams on a 3 x (n-1) grid and the faces they cut out.

Vertices of the grid are (i, j) with 0 <= i <= 2 and 0 <= j <= n-2, drawn
with i horizontal.  A positive path walks from (0,0) to (2, n-2) by unit
steps; a diagram is a union of such paths.  Unit boxes of the grid are
(a, b) with a in {0,1} and b in 0..n-3.  An edge set is an int mask whose
bit k stands for edge k of ``ladder_edges(n)``; most functions take the
ambient size n alongside the mask.

The same grid indexes the defining inequalities of a moment polytope:
each inequality is pinned to one grid edge, and the face attached to a
diagram is cut out by the inequalities of the pinned edges the diagram is
missing.  ``moment_inequalities`` builds that correspondence explicitly
so the polytope route stays independent of the diagram route.
"""
from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from types import MappingProxyType

from .polytope import Inequality

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]
Box = tuple[int, int]

__all__ = [
    "CHART_KINDS",
    "Diagram",
    "FaceClass",
    "admissible_diagrams",
    "bounded_regions",
    "chart_coordinates",
    "check_pair_set",
    "check_size",
    "classify_face",
    "diagram_from_pairs",
    "holonomies",
    "holonomy",
    "index_sets",
    "ladder_edges",
    "moment_inequalities",
    "monotone_point",
    "pairs_label",
    "positive_paths",
    "slot_coordinates",
    "tight_edge_indices",
]

# -- model size and pair sets --------------------------------------------


def check_size(n: int) -> None:
    """Reject a size that names no model: gr(2,n) needs n >= 4."""
    if n < 4:
        raise ValueError("need n >= 4")


def check_pair_set(n: int, pair_set) -> frozenset:
    """The pair set as a frozenset of int pairs, once it is valid for gr(2,n).

    Valid means n >= 4, every pair is (i, i+1) of integers with
    1 <= i <= n-3, no pair is listed twice, and no index lies in two pairs.
    """
    check_size(n)
    listed = [tuple(pair) for pair in pair_set]
    pairs = frozenset(listed)
    if len(pairs) != len(listed):
        raise ValueError(f"not a valid pair set for n={n}: a pair is listed twice in {listed}")
    if not all(isinstance(x, numbers.Integral) for pair in pairs for x in pair):
        raise ValueError(f"not a valid pair set for n={n}: {sorted(pairs, key=str)}")
    pairs = frozenset((int(i), int(j)) for i, j in pairs)
    used: set[int] = set()
    for i, j in pairs:
        if j != i + 1 or not 1 <= i <= n - 3 or i in used or j in used:
            raise ValueError(f"not a valid pair set for n={n}: {sorted(pairs)}")
        used.update((i, j))
    return pairs


def pairs_label(pair_set) -> str:
    """The pair set spelled as in chart names and on the command line."""
    return ";".join(f"{i},{j}" for i, j in sorted(pair_set))


@lru_cache(maxsize=None)
def ladder_edges(n: int) -> tuple[Edge, ...]:
    """Every edge of the grid, sorted; bit k of an edge mask is edge k.

    An edge is its two end vertices in increasing order.
    """
    check_size(n)
    rungs = [((i, j), (i + 1, j)) for j in range(n - 1) for i in range(2)]
    rails = [((i, j), (i, j + 1)) for j in range(n - 2) for i in range(3)]
    return tuple(sorted(rungs + rails))


@lru_cache(maxsize=None)
def _bits(n: int) -> dict[Edge, int]:
    return {e: 1 << k for k, e in enumerate(ladder_edges(n))}


@lru_cache(maxsize=None)
def positive_paths(n: int) -> tuple[int, ...]:
    """All minimal lattice paths (0,0) -> (2, n-2), as edge masks."""
    bits = _bits(n)
    out: list[int] = []

    def walk(pos: Vertex, acc: int):
        i, j = pos
        if pos == (2, n - 2):
            out.append(acc)
            return
        if i < 2:
            walk((i + 1, j), acc | bits[pos, (i + 1, j)])
        if j < n - 2:
            walk((i, j + 1), acc | bits[pos, (i, j + 1)])

    walk((0, 0), 0)
    return tuple(out)


@dataclass(frozen=True)
class Diagram:
    n: int
    mask: int

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, decoded from the mask."""
        return frozenset(e for k, e in enumerate(ladder_edges(self.n)) if self.mask >> k & 1)

    @cached_property
    def regions(self) -> tuple[frozenset[Box], ...]:
        return bounded_regions(self.n, self.mask)

    @property
    def dimension(self) -> int:
        return len(self.regions)


@lru_cache(maxsize=None)
def _box_walls(n: int) -> tuple[tuple[Box, ...], tuple[tuple[int, int, int], ...]]:
    """The unit boxes in sorted order, and (edge bit, box, box) for each
    grid edge: the two sides of the edge, as numbers.

    Box number x is boxes[x]; number len(boxes) is the outside.
    """
    rows = n - 2
    boxes = tuple((a, b) for a in range(2) for b in range(rows))

    def side(a: int, b: int) -> int:
        return a * rows + b if 0 <= a <= 1 and 0 <= b < rows else len(boxes)

    walls = []
    for k, ((i, j), (_, j2)) in enumerate(ladder_edges(n)):
        if j == j2:  # step in i, horizontal segment at height j
            walls.append((1 << k, side(i, j - 1), side(i, j)))
        else:  # step in j, vertical segment at x = i
            walls.append((1 << k, side(i - 1, j), side(i, j)))
    return boxes, tuple(walls)


def bounded_regions(n: int, mask: int) -> tuple[frozenset[Box], ...]:
    """Connected groups of unit boxes enclosed by the diagram, in sorted
    order.

    Boxes merge across every grid edge the diagram does not use; groups
    touching the outside are dropped.  Regions are disjoint, so sorted
    order is the order of their least boxes, which is the order in which
    a scan of the boxes in sorted order meets them.
    """
    boxes, walls = _box_walls(n)
    parent = list(range(len(boxes) + 1))
    for bit, x, y in walls:
        if not mask & bit:
            while parent[x] != x:
                x = parent[x]
            while parent[y] != y:
                y = parent[y]
            if x != y:
                parent[x] = y
    outside = len(boxes)
    while parent[outside] != outside:
        outside = parent[outside]
    groups: dict[int, list[Box]] = {}
    for x, box in enumerate(boxes):
        while parent[x] != x:
            x = parent[x]
        if x != outside:
            groups.setdefault(x, []).append(box)
    return tuple(map(frozenset, groups.values()))


def admissible_diagrams(n: int) -> tuple[Diagram, ...]:
    """Every distinct union of positive paths, in increasing order of edge mask.

    The closure runs over the path masks: after the k-th path, the set holds
    every union of a nonempty subset of the first k.  Measured
    single-threaded on a 2-core host: 0.007-0.012 s at n = 7 (5,695
    diagrams), 0.04 s at n = 8 (29,823) and 0.33-0.46 s with a 42 MB
    process peak at n = 9 (156,159).  The count grows about fivefold per
    step in n, the time about eightfold.  Classifying every diagram, which
    finds its regions, takes 0.06 s at n = 7 and 0.54 s at n = 8.
    """
    masks: set[int] = set()
    for p in positive_paths(n):
        masks |= {u | p for u in masks}
        masks.add(p)
    return tuple(Diagram(n, u) for u in sorted(masks))


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class FaceClass:
    lagrangian: bool
    n1: int
    n2: int
    diffeo_type: str


def _is_double_block(piece: frozenset[Box]) -> bool:
    if len(piece) != 4:
        return False
    rows = {b for _, b in piece}
    if len(rows) != 2 or max(rows) - min(rows) != 1:
        return False
    return piece == {(a, b) for a in range(2) for b in rows}


def _fiber_name(n1: int, n2: int) -> str:
    parts = []
    if n2 == 1:
        parts.append("S^3")
    elif n2 > 1:
        parts.append(f"(S^3)^{n2}")
    tor = n1 + n2
    if tor == 1:
        parts.append("S^1")
    elif tor > 1:
        parts.append(f"T^{tor}")
    return " x ".join(parts) if parts else "point"


def classify_face(d: Diagram) -> FaceClass:
    pieces = d.regions
    n1 = sum(1 for p in pieces if len(p) == 1)
    n2 = sum(1 for p in pieces if _is_double_block(p))
    total_boxes = 2 * (d.n - 2)
    lag = (n1 + n2 == len(pieces)) and (n1 + 4 * n2 == total_boxes)
    return FaceClass(lag, n1, n2, _fiber_name(n1, n2))


def monotone_point(d: Diagram) -> dict[tuple[int, int], Fraction]:
    """The distinguished interior point of a Lagrangian face.

    Keyed by the coordinate labels (1..2, 1..n-2); single boxes get the
    staircase value, each 2x2 group sits at its lower level.
    """
    cls = classify_face(d)
    if not cls.lagrangian:
        raise ValueError("diagram does not carry a Lagrangian fiber")
    point: dict[tuple[int, int], Fraction] = {}
    for piece in d.regions:
        if len(piece) == 1:
            ((a, b),) = piece
            point[(a + 1, b + 1)] = Fraction(b - a)
        else:
            low = min(b for _, b in piece)
            for a, b in piece:
                point[(a + 1, b + 1)] = Fraction(low)
    return point


# -- pair sets and their diagrams ----------------------------------------


@lru_cache(maxsize=None)
def index_sets(n: int) -> tuple[tuple[frozenset, ...], tuple[frozenset, ...]]:
    """Sets of disjoint consecutive pairs from {1..n-2}, plus the maximal ones.

    Both lists run by size, then lexicographically in the pairs' first
    indices.  A k-set of pairwise non-adjacent first indices s_1 < ... < s_k
    from {1..n-3} is c_t = s_t - (t - 1), a k-subset of {1..n-2-k}; the
    shift is a bijection that keeps lexicographic order, so the sets come
    from ``itertools.combinations`` without a scan over all subsets.
    """
    m = n - 3  # the number of consecutive pairs
    all_sets, maximal = [], []
    for k in range(max(m, 0) + 1):
        for combo in itertools.combinations(range(1, m - k + 2), k):
            firsts = [c + t for t, c in enumerate(combo)]
            all_sets.append(frozenset((i, i + 1) for i in firsts))
            # maximal exactly when no pair has both of its indices unused
            used = {x for i in firsts for x in (i, i + 1)}
            if all(i in used or i + 1 in used for i in range(1, m + 1)):
                maximal.append(all_sets[-1])
    return tuple(all_sets), tuple(maximal)


def diagram_from_pairs(n: int, pair_set: frozenset) -> Diagram:
    """Full ladder minus the four edges through the middle vertex of each pair.

    Over the pair sets of ``index_sets(n)[0]`` these are exactly the
    Lagrangian diagrams.  In a Lagrangian diagram every region is a single
    box or a 2x2 block and every box lies in a region, so every edge between
    two regions, or between a region and the outside, is present.  No edge at
    a block's centre is: a union of paths uses 0 or at least 2 of the four
    edges at that vertex, and any 2 of them would split the block.  So the
    diagram is the full ladder minus the four centre edges of disjoint
    blocks; the block on rows i-1, i has its centre at (1, i), which is the
    pair (i, i+1).  Conversely each kept edge lies on a path that crosses
    the middle rail between two centres, since no two centres are adjacent
    and neither rail end is one; so the diagram is a union of paths, and its
    regions are the blocks and the remaining single boxes.
    """
    pair_set = check_pair_set(n, pair_set)
    bits = _bits(n)
    mask = (1 << len(bits)) - 1
    for i, _ in pair_set:
        mid = (1, i)
        for e in (((0, i), mid), (mid, (2, i)), ((1, i - 1), mid), (mid, (1, i + 1))):
            mask &= ~bits[e]
    return Diagram(n, mask)


# -- chart coordinates over a pair set -----------------------------------


def holonomy(row: int, j: int) -> str:
    """The torus-chart holonomy on ladder row 1 or 2 at column j."""
    return f"z{row}_{j}"


def slot_coordinates(i: int) -> dict[str, str]:
    """Global names of the coordinates at the slot of the pair (i, i+1),
    keyed by their names in the one-slot wall crossings of ``atlas``."""
    return {
        "u": f"u{i}", "v": f"v{i}",
        "x1": f"x{i}_1", "y1": f"y{i}_1", "x2": f"x{i}_2", "y2": f"y{i}_2",
        "za": holonomy(1, i), "zb": holonomy(1, i + 1),
        "wa": holonomy(2, i), "wb": holonomy(2, i + 1),
    }


# the slot coordinates of each chart kind; every kind but the torus trades
# the holonomies zb and wa of each selected slot for them
_KIND_SLOT = {
    "torus": (), "immersed": ("u", "v"), "chekanov": ("x1", "y1"), "clifford": ("x2", "y2")
}
CHART_KINDS = tuple(_KIND_SLOT)


def holonomies(n: int, pair_set) -> tuple[str, ...]:
    """The holonomies kept by the charts over the pair set, row 1 then row 2."""
    pairs = check_pair_set(n, pair_set)
    traded = {slot_coordinates(i)[k] for i, _ in pairs for k in ("zb", "wa")}
    every = (holonomy(row, j) for row in (1, 2) for j in range(1, n - 1))
    return tuple(h for h in every if h not in traded)


def chart_coordinates(n: int, pair_set, kind: str) -> tuple[str, tuple[str, ...]]:
    """Name and variables of the chart of one kind over the pair set.

    The torus kind, and every kind over the empty pair set, gives the torus
    chart on all holonomies; otherwise the chart is ``kind[pairs]`` on the
    kind's slot coordinates, slot by slot, then the kept holonomies.
    """
    pair_set = check_pair_set(n, pair_set)
    if kind not in _KIND_SLOT:
        raise ValueError(f"unknown chart kind: {kind!r}")
    if kind == "torus" or not pair_set:
        return "torus", holonomies(n, frozenset())
    slots = tuple(
        slot_coordinates(i)[k] for i, _ in sorted(pair_set) for k in _KIND_SLOT[kind]
    )
    return f"{kind}[{pairs_label(pair_set)}]", slots + holonomies(n, pair_set)


# -- the pinned inequalities ---------------------------------------------


@lru_cache(maxsize=None)
def moment_inequalities(n: int):
    """Inequalities of the ambient polytope, each pinned to a grid edge.

    Returns (labels, ineqs, pinned) where labels[k] names coordinate k as
    a (row, column) pair, ineqs[k] is exact affine data, and pinned maps a
    grid edge to the index of its inequality.  Coordinates are ordered
    row 1 then row 2, columns 1..n-2.  The two boundary values are fixed
    constants: top neighbour n-2, bottom neighbour -2.  Built once per n and
    shared by every caller, hence read-only: two tuples and a mapping proxy.
    """
    labels = [(1, j) for j in range(1, n - 1)] + [(2, j) for j in range(1, n - 1)]
    pos = {lab: k for k, lab in enumerate(labels)}
    dim = len(labels)

    def form(terms: dict[tuple[int, int], int], const: int = 0) -> Inequality:
        coeffs = [Fraction(0)] * dim
        for lab, c in terms.items():
            coeffs[pos[lab]] += c
        return tuple(coeffs), Fraction(const)

    ineqs: list[Inequality] = []
    pinned: dict[Edge, int] = {}

    def add(ineq: Inequality, edge: Edge):
        pinned[edge] = len(ineqs)
        ineqs.append(ineq)

    for j in range(1, n - 1):  # row-1 increments, pinned to top rung at column j
        if j < n - 2:
            q = form({(1, j + 1): 1, (1, j): -1})
        else:
            q = form({(1, j): -1}, n - 2)
        add(q, ((0, j), (1, j)))
    for j in range(1, n - 2):  # row-2 increments, pinned to bottom rung
        add(form({(2, j + 1): 1, (2, j): -1}), ((1, j), (2, j)))
    for j in range(1, n - 1):  # interlacing, pinned to middle rail segments
        add(form({(1, j): 1, (2, j): -1}), ((1, j - 1), (1, j)))
    add(form({(2, 1): 1}, 2), ((2, 0), (2, 1)))  # floor, pinned to first bottom rail segment
    return tuple(labels), tuple(ineqs), MappingProxyType(pinned)


def tight_edge_indices(d: Diagram) -> frozenset[int]:
    """Indices of pinned inequalities whose edges the diagram is missing."""
    _, _, pinned = moment_inequalities(d.n)
    bits = _bits(d.n)
    return frozenset(idx for e, idx in pinned.items() if not d.mask & bits[e])
