import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh.cohomology import CohomologyEngine
from machh.double import hh_ranks
from machh.errors import ResourceLimit
from machh.linalg import dense_rank
from machh.oracle import (
    _SubsetQuotient,
    _cells_by_degree,
    _coboundary_matrix,
    _face_tuples,
    _matrix_rank,
    _echelon,
    _null_space,
    _solve_in_span,
    oracle_hh_rows,
    oracle_reduced_betti,
)

from conftest import complexes, full_subcomplex, random_complex, simplex


def boundary_sphere(n: int) -> M.SimplicialComplex:
    verts = list(range(1, n + 3))
    facets = [[v for v in verts if v != skip] for skip in verts]
    return M.SimplicialComplex.from_facets(n + 2, facets)


class TestOracleBetti:
    def test_sphere_knowns(self):
        assert oracle_reduced_betti(boundary_sphere(2), 2) == 1
        assert oracle_reduced_betti(boundary_sphere(2), 1) == 0
        assert oracle_reduced_betti(boundary_sphere(1), 1) == 1

    def test_square_is_circle(self, square):
        assert oracle_reduced_betti(square, 1) == 1
        assert oracle_reduced_betti(square, 0) == 0

    def test_simplex_acyclic(self):
        for p in range(-1, 4):
            assert oracle_reduced_betti(simplex(3), p) == 0

    def test_empty_complex(self, square):
        empty = full_subcomplex(square, 0)
        assert oracle_reduced_betti(empty, -1) == 1

    def test_vertex_cap(self):
        big = M.SimplicialComplex.from_facets(13, [[v] for v in range(1, 14)])
        with pytest.raises(ResourceLimit):
            oracle_reduced_betti(big, 0)


class TestOracleDouble:
    def test_known_totals(self, square, square_diag):
        assert sum(oracle_hh_rows(square).values()) == 4
        assert oracle_hh_rows(square) == {-1: 1, 0: 2, 1: 1}
        assert sum(oracle_hh_rows(square_diag).values()) == 2
        assert sum(oracle_hh_rows(M.two_points()).values()) == 2
        assert sum(oracle_hh_rows(simplex(2)).values()) == 1

    def test_m_cap(self):
        big = M.SimplicialComplex.from_facets(9, [[v] for v in range(1, 10)])
        with pytest.raises(ResourceLimit):
            oracle_hh_rows(big)


class TestEngineOracleEquivalence:
    def test_betti_agreement(self):
        rng = random.Random(41)
        for _ in range(25):
            K = random_complex(rng, rng.randint(3, 7))
            eng = CohomologyEngine(K)
            for I in range(1 << K.m):
                for p in range(-1, K.dim() + 1):
                    sub = full_subcomplex(K, I)
                    assert eng.rank(I, p) == oracle_reduced_betti(sub, p), (K, I, p)

    def test_double_agreement(self):
        rng = random.Random(43)
        for _ in range(20):
            K = random_complex(rng, rng.randint(3, 7))
            assert hh_ranks(CohomologyEngine(K)).rows() == oracle_hh_rows(K), K


sparse_matrices = st.integers(1, 9).flatmap(
    lambda ncols: st.lists(
        st.lists(st.sampled_from([0, 0, 0, 0, 1, -1, 2]), min_size=ncols, max_size=ncols),
        max_size=9,
    )
)


class TestDenseRankOracle:
    @settings(max_examples=300, deadline=None)
    @given(sparse_matrices)
    def test_rank_agreement(self, rows):
        mat = [[Fraction(x) for x in row] for row in rows]
        assert dense_rank(mat, 0) == _matrix_rank(mat)


def probe_reps(faces: list[tuple], subset: tuple, p: int) -> list[list[Fraction]]:
    """Greedy probe: keep each kernel vector of delta_p that raises the rank of
    the coboundaries and the vectors kept so far."""
    table = _cells_by_degree([f for f in faces if set(f) <= set(subset)])
    n = len(table.get(p, []))
    down = _coboundary_matrix(table, p - 1)
    probe = [[row[c] for row in down] for c in range(len(table.get(p - 1, [])))]
    reps = []
    for kv in _null_space(_coboundary_matrix(table, p), n):
        if _matrix_rank(probe + [kv]) > _matrix_rank(probe):
            probe.append(kv)
            reps.append(kv)
    return reps


class TestQuotientRepresentatives:
    @settings(max_examples=100, deadline=None)
    @given(complexes())
    def test_one_echelon_picks_what_the_probe_picks(self, K):
        faces = _face_tuples(K)
        for size in range(K.m + 1):
            for subset in combinations(range(1, K.m + 1), size):
                for p in range(-1, K.dim() + 1):
                    expected = probe_reps(faces, subset, p)
                    assert _SubsetQuotient(faces, subset, p).reps == expected, (K, subset, p)


def solve_one(span: list, target: list):
    """Coefficients of target over span from its own elimination of [span | target]."""
    aug = [[col[r] for col in span] + [target[r]] for r in range(len(target))]
    rows, pivots = _echelon(aug)
    coeffs = [Fraction(0)] * len(span)
    for row, pc in zip(rows, pivots):
        if pc == len(span):
            return None
        coeffs[pc] = row[len(span)]
    return coeffs


class TestSolveInSpan:
    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=6))
    def test_one_elimination_per_target_equals_one_per_vector(self, K):
        """Every restricted representative bound for a target, as oracle_hh_rows
        gathers them, gets the coordinates of its own solve."""
        faces = _face_tuples(K)
        ground = range(1, K.m + 1)
        for p in range(-1, K.dim() + 1):
            quotients = {
                subset: _SubsetQuotient(faces, subset, p)
                for size in range(K.m + 1)
                for subset in combinations(ground, size)
            }
            for t, qt in quotients.items():
                if not qt.rank:
                    continue
                vectors = []
                for i in ground:
                    if i in t:
                        continue
                    s = tuple(sorted(t + (i,)))
                    q = quotients[s]
                    keep = [idx for idx, cell in enumerate(q.cells) if i not in cell]
                    vectors += [[rep[idx] for idx in keep] for rep in q.reps]
                span = qt.boundaries + qt.reps
                expected = [solve_one(span, v)[len(qt.boundaries) :] for v in vectors]
                assert qt.coordinates(vectors) == expected, (K, t, p)

    def test_vectors_outside_the_span_are_none(self):
        span = [[Fraction(1), Fraction(0), Fraction(0)]]
        inside = [Fraction(3), Fraction(0), Fraction(0)]
        outside = [Fraction(1), Fraction(1), Fraction(0)]
        twice = [Fraction(2), Fraction(2), Fraction(0)]
        targets = [outside, inside, twice, inside]
        assert _solve_in_span(span, targets) == [solve_one(span, t) for t in targets]
        assert _solve_in_span(span, targets) == [None, [3], None, [3]]
        assert _solve_in_span([], [[Fraction(0)], [Fraction(1)]]) == [[], None]
