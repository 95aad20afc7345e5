"""Bounded regions of a ladder diagram by a union-find keyed by dict, on
box tuples and an outside marker: the reference for
lgmirror.ladder.bounded_regions."""
from lgmirror.ladder import ladder_edges

_OUT = "out"


def _edge_sides(n, e):
    (i, j), (_, j2) = e
    if j == j2:  # step in i, horizontal segment at height j
        below = (i, j - 1) if j >= 1 else _OUT
        above = (i, j) if j <= n - 3 else _OUT
        return below, above
    # step in j, vertical segment at x = i
    left = (i - 1, j) if i >= 1 else _OUT
    right = (i, j) if i <= 1 else _OUT
    return left, right


def bounded_regions(n, mask):
    """Connected groups of unit boxes enclosed by the diagram, sorted.

    Boxes merge across every grid edge the diagram does not use; groups
    touching the outside are dropped.
    """
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    boxes = [(a, b) for a in range(2) for b in range(n - 2)]
    for box in boxes:
        find(box)
    find(_OUT)
    for k, e in enumerate(ladder_edges(n)):
        if not mask >> k & 1:
            union(*_edge_sides(n, e))
    groups = {}
    for box in boxes:
        groups.setdefault(find(box), set()).add(box)
    out_root = find(_OUT)
    regions = [frozenset(g) for root, g in groups.items() if root != out_root]
    return tuple(sorted(regions, key=sorted))
