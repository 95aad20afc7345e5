"""The gauge family at the node: reparametrizations of the immersed chart
that preserve the product u*v, used to probe the atlas checks."""

from lgmirror.atlas import Transition
from lgmirror.rational import RationalFunction, parse


def gauge_automorphism(k: int) -> Transition:
    """Reparametrization of the node chart that preserves the product u*v."""
    k = int(k)
    scale = parse("1 - u*v")
    bindings = {
        "u": scale**k * RationalFunction.var("u"),
        "v": scale**-k * RationalFunction.var("v"),
    }
    return Transition("immersed", "immersed", bindings)
