"""The gr(2,4) charts as they were first written out by hand, kept as the
frozen reference that the derived product atlas is checked against.

They use the local-model names: the node chart has coordinates u, v, z0, w0
and its two smoothings x1, y1, z1, w1 and x2, y2, z2, w2, at T = 1.  On
``gr_product_atlas(4)`` these are the charts immersed[1,2], chekanov[1,2] and
clifford[1,2], whose coordinates the renaming below gives.
"""

from lgmirror.rational import parse

RENAMING = {
    "u": "u1",
    "v": "v1",
    "x1": "x1_1",
    "y1": "y1_1",
    "x2": "x1_2",
    "y2": "y1_2",
    **{z: "z1_1" for z in ("z0", "z1", "z2")},
    **{w: "z2_2" for w in ("w0", "w1", "w2")},
}

CHART_NAMES = {kind: f"{kind}[1,2]" for kind in ("immersed", "chekanov", "clifford")}

POTENTIALS = {
    "immersed": "v/((u*v - 1)*z0) + u + u*z0/w0 + v*w0",
    "chekanov": "1/(x1*y1*z1) + 1/(y1*z1) + y1 + y1*z1/w1 + x1*w1/y1 + w1/y1",
    "clifford": "1/(x2*y2*z2) + y2 + x2*y2 + x2*y2*z2/w2 + y2*z2/w2 + w2/y2",
}

# the six node wall crossings: (source, target, bindings)
TRANSITIONS = [
    ("immersed", "chekanov", {"x1": "u*v - 1", "y1": "u", "z1": "z0", "w1": "w0"}),
    ("chekanov", "immersed", {"u": "y1", "v": "(x1 + 1)/y1", "z0": "z1", "w0": "w1"}),
    ("immersed", "clifford", {"x2": "u*v - 1", "y2": "1/v", "z2": "z0", "w2": "w0"}),
    ("clifford", "immersed", {"u": "(1 + x2)*y2", "v": "1/y2", "z0": "z2", "w0": "w2"}),
    ("clifford", "chekanov", {"x1": "x2", "y1": "y2*(1 + x2)", "z1": "z2", "w1": "w2"}),
    ("chekanov", "clifford", {"x2": "x1", "y2": "y1/(1 + x1)", "z2": "z1", "w2": "w1"}),
]


def renamed(text: str):
    """A hand-written expression in the product atlas coordinates."""
    return parse(text).rename(RENAMING)


def renamed_transitions():
    """The six wall crossings in the chart names and coordinates of the
    product atlas.  The holonomy bindings become the identity there."""
    return [
        (
            CHART_NAMES[s],
            CHART_NAMES[t],
            {RENAMING[k]: str(renamed(e)) for k, e in bindings.items()},
        )
        for s, t, bindings in TRANSITIONS
    ]
