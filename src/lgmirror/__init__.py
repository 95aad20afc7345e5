"""Exact symbolic and numeric toolkit for Landau-Ginzburg mirror potentials
of two-plane Grassmannians and the three-dimensional quadric."""

from .atlas import (
    Atlas,
    Chart,
    Transition,
    gr24_atlas,
    gr_product_atlas,
    local_model_atlas,
    og15_atlas,
    verify_cocycle,
    verify_potential_transport,
)
from .koszul import KoszulData, center_decompose, koszul_square_check
from .laurent import LaurentPoly
from .novikov import NovikovSeries, novikov_expand
from .potentials import (
    Potential,
    gc_torus_potential,
    immersed_potential,
    rietsch_gr,
    verify_rietsch_identity,
)
from .rational import RationalFunction, as_rational, parse, poly_gcd
from .report import Report, RunReport, Verdict

__all__ = [
    "Atlas",
    "Chart",
    "Transition",
    "gr24_atlas",
    "gr_product_atlas",
    "local_model_atlas",
    "og15_atlas",
    "verify_cocycle",
    "verify_potential_transport",
    "KoszulData",
    "center_decompose",
    "koszul_square_check",
    "LaurentPoly",
    "RationalFunction",
    "parse",
    "as_rational",
    "poly_gcd",
    "NovikovSeries",
    "novikov_expand",
    "Potential",
    "gc_torus_potential",
    "immersed_potential",
    "rietsch_gr",
    "verify_rietsch_identity",
    "Report",
    "RunReport",
    "Verdict",
]
