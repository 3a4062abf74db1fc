"""Ordinary and double (bigraded) cohomology of moment-angle complexes.

The ambient topology never appears: everything is driven by a finite
simplicial complex K on [m], its full subcomplexes, and exact linear algebra
over the rationals or GF(p).
"""

from .complexes import (
    K2rComplex,
    SimplicialComplex,
    glue_simplex,
    join,
    k2r_family,
    square,
    two_points,
    wedge,
)
from .cohomology import CohomologyEngine
from .double import BigradedRankTable, h_ranks, hh_ranks
from .theorem import check_theorem1, verify_theorem1
from . import errors, masks

__all__ = [
    "SimplicialComplex",
    "K2rComplex",
    "join",
    "wedge",
    "glue_simplex",
    "k2r_family",
    "square",
    "two_points",
    "CohomologyEngine",
    "BigradedRankTable",
    "h_ranks",
    "hh_ranks",
    "check_theorem1",
    "verify_theorem1",
    "errors",
    "masks",
]
