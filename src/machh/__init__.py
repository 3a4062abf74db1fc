"""Ordinary and double (bigraded) cohomology of moment-angle complexes.

The ambient topology never appears: everything is driven by a finite
simplicial complex K on [m], its full subcomplexes, and exact linear algebra
over the rationals or GF(p).
"""

from .complexes import (
    K2rComplex,
    SimplicialComplex,
    full_subcomplex,
    glue_simplex,
    join,
    k2r_family,
    square,
    two_points,
    wedge,
)
from .cohomology import CohomologyBasis, CohomologyEngine
from .double import BigradedRankTable, RowComplex, assemble_row, h_ranks, hh_ranks
from .fields import prime_field
from .oracle import oracle_hh_rows, oracle_reduced_betti
from .theorem import Thm1Report, Thm1Verification, check_theorem1, verify_theorem1
from . import errors, masks

__all__ = [
    "SimplicialComplex",
    "K2rComplex",
    "full_subcomplex",
    "join",
    "wedge",
    "glue_simplex",
    "k2r_family",
    "square",
    "two_points",
    "CohomologyBasis",
    "CohomologyEngine",
    "BigradedRankTable",
    "RowComplex",
    "assemble_row",
    "h_ranks",
    "hh_ranks",
    "prime_field",
    "oracle_reduced_betti",
    "oracle_hh_rows",
    "Thm1Report",
    "Thm1Verification",
    "check_theorem1",
    "verify_theorem1",
    "errors",
    "masks",
]
