"""Exhaustive census: every complex on m <= 4 vertices with every vertex a face.

Engine double cohomology equals the oracle's over Q and GF(32003), and the
gluing theorem holds on every admissible sigma.
"""

from itertools import combinations

import pytest

import machh as M
from machh.cohomology import CohomologyEngine
from machh.double import hh_ranks
from machh.oracle import oracle_hh_rows
from machh.theorem import check_theorem1, verify_theorem1


def labelled_complexes(m: int) -> list[M.SimplicialComplex]:
    """Every complex on [m] with every vertex a face, once each, as the
    closures of the sets of non-singleton subsets."""
    singletons = [[v] for v in range(1, m + 1)]
    others = [list(s) for size in range(2, m + 1) for s in combinations(range(1, m + 1), size)]
    found = {}
    for choice in range(1 << len(others)):
        chosen = [s for idx, s in enumerate(others) if choice >> idx & 1]
        found.setdefault(M.SimplicialComplex.from_facets(m, singletons + chosen), None)
    return list(found)


CENSUS = [K for m in range(1, 5) for K in labelled_complexes(m)]


def test_counts():
    assert [len(labelled_complexes(m)) for m in range(1, 5)] == [1, 2, 9, 114]


@pytest.mark.parametrize("char", [0, 32003], ids=["Q", "gf:32003"])
def test_engine_equals_oracle(char):
    for K in CENSUS:
        assert hh_ranks(CohomologyEngine(K, char)).rows() == oracle_hh_rows(K), K


def test_theorem1_on_every_admissible_sigma():
    admissible = 0
    for K in CENSUS:
        engine = CohomologyEngine(K)
        for sigma in range(1 << K.m):
            if sigma.bit_count() < 2 or not check_theorem1(engine, sigma).applicable:
                continue
            admissible += 1
            assert verify_theorem1(K, sigma).verdict, (K, sigma)
    assert admissible == 19
