import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh import masks
from machh.cohomology import CohomologyEngine
from machh.double import h_ranks, hh_ranks
from machh.errors import ResourceLimit
from machh.oracle import oracle_hh_rows
from machh.serialization import complex_from_dict, complex_to_dict

from conftest import (
    brute_force_factors,
    complexes,
    dense_is_zero,
    dense_mul,
    full_blocks,
    permute_complex,
    random_complex,
    random_permutation,
    relabelled_joins,
    row_of,
    simplex,
    textbook_rref,
    uncleared_row_ranks,
    unfactored_h_ranks,
    unfactored_hh_ranks,
)


class TestHRanks:
    def test_square(self, square):
        t = h_ranks(CohomologyEngine(square))
        assert t.entries == {(0, 0): 1, (-1, 4): 2, (-2, 8): 1}
        assert t.total() == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplex(self, n):
        assert h_ranks(CohomologyEngine(simplex(n))).entries == {(0, 0): 1}

    def test_two_points(self):
        assert h_ranks(CohomologyEngine(M.two_points())).entries == {(0, 0): 1, (-1, 4): 1}

    def test_resource_limit(self, square):
        with pytest.raises(ResourceLimit):
            CohomologyEngine(square, max_m=3)

    def test_total_matches_subset_sums(self):
        rng = random.Random(3)
        for _ in range(10):
            K = random_complex(rng, rng.randint(3, 6))
            eng = CohomologyEngine(K)
            raw = sum(
                eng.rank(I, p)
                for I in range(1 << K.m)
                for p in range(-1, K.dim() + 1)
            )
            assert h_ranks(eng).total() == raw


class TestEngineCarriesTheRequest:
    """The engine is the one place a request names its complex, field and cap."""

    def test_cap_refused_when_the_engine_is_built(self):
        with pytest.raises(ResourceLimit):
            CohomologyEngine(M.k2r_family(16).complex, max_m=4)

    @pytest.mark.parametrize("x", [True, 22.5, "22", None])
    def test_a_cap_that_is_no_int_is_refused(self, x):
        """The cap follows the field's int rule. The engine refuses a bool, a
        float, a str and None; ``complex_from_dict`` refuses all but None,
        which there means no cap."""
        square = M.square()
        named = re.escape(f"got {x!r}")
        with pytest.raises(ValueError, match=named):
            CohomologyEngine(square, 0, x)
        doc = complex_to_dict(square)
        if x is None:
            assert complex_from_dict(doc, x) == square
        else:
            with pytest.raises(ValueError, match=named):
                complex_from_dict(doc, x)

    def test_row_is_over_the_engines_field(self):
        gf3 = 3
        points = M.SimplicialComplex.from_facets(3, [[1], [2], [3]])
        row = row_of(CohomologyEngine(points, gf3), 0)
        assert row.engine.char == gf3
        mats = [row._block(l, frozenset()) for l in row.groups if l - 1 in row.groups]
        entries = [x for mat in mats for r in mat for x in r]
        assert entries and all(type(x) is int and 0 <= x < 3 for x in entries)
        assert 2 in entries  # a block sign of -1, reduced mod 3


class TestAssembleRow:
    def test_square_row_zero(self, square):
        row = row_of(CohomologyEngine(square), 0)
        assert [I for I, _ in row.groups[2]] == [
            masks.mask_of([1, 3], 4),
            masks.mask_of([2, 4], 4),
        ]
        assert list(row.groups) == [2]  # no rank at other cardinalities
        assert row.cohomology_ranks() == {2: 2}

    def test_any_row_minus_one(self, square):
        row = row_of(CohomologyEngine(square), -1)
        assert row.groups == {0: [(0, 1)]}
        assert full_blocks(row) == {}

    def test_square_diag_row_one(self, square_diag):
        row = row_of(CohomologyEngine(square_diag), 1)
        # two hollow triangles contribute in cardinality 3, the whole set in 4
        assert row.dims == {3: 2, 4: 2}
        assert row.cohomology_ranks() == {}  # all classes cancel within the row


class TestHHRanks:
    def test_known_totals(self, square, square_diag):
        assert hh_ranks(CohomologyEngine(square)).total() == 4
        assert hh_ranks(CohomologyEngine(M.two_points())).total() == 2
        assert hh_ranks(CohomologyEngine(square_diag)).total() == 2
        assert hh_ranks(CohomologyEngine(M.k2r_family(3).complex)).total() == 6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_simplex(self, n):
        assert hh_ranks(CohomologyEngine(simplex(n))).entries == {(0, 0): 1}

    def test_row_profiles(self, square, square_diag):
        assert hh_ranks(CohomologyEngine(square)).rows() == {-1: 1, 0: 2, 1: 1}
        assert hh_ranks(CohomologyEngine(simplex(3))).rows() == {-1: 1}
        assert hh_ranks(CohomologyEngine(square_diag)).rows() == {-1: 1, 0: 1}
        assert M.hh_ranks(M.CohomologyEngine(square)).rows() == {-1: 1, 0: 2, 1: 1}

    def test_euler_examples(self, square):
        assert hh_ranks(CohomologyEngine(square)).euler_characteristic() == 0
        assert hh_ranks(CohomologyEngine(simplex(2))).euler_characteristic() == 1
        assert hh_ranks(CohomologyEngine(M.two_points())).euler_characteristic() == 0

    def test_zero_zero_entry_always_present(self):
        rng = random.Random(17)
        for _ in range(10):
            K = random_complex(rng, rng.randint(2, 6))
            assert hh_ranks(CohomologyEngine(K)).entries.get((0, 0), 0) >= 1


class TestRowProperties:
    def test_differential_squares_to_zero(self):
        rng = random.Random(23)
        for _ in range(15):
            K = random_complex(rng, rng.randint(3, 6))
            eng = CohomologyEngine(K)
            for p in range(-1, K.dim() + 1):
                blocks = full_blocks(row_of(eng, p))
                for l, mat in blocks.items():
                    nxt = blocks.get(l + 1)
                    if nxt:
                        assert dense_is_zero(dense_mul(mat, nxt, 0))

    def test_rowwise_euler_identity(self):
        # alternating sums of group dims and of cohomology ranks agree per row
        rng = random.Random(29)
        for _ in range(15):
            K = random_complex(rng, rng.randint(3, 6))
            eng = CohomologyEngine(K)
            for p in range(-1, K.dim() + 1):
                row = row_of(eng, p)
                lhs = sum((-1) ** l * d for l, d in row.dims.items())
                rhs = sum((-1) ** l * r for l, r in row.cohomology_ranks().items())
                assert lhs == rhs

    def test_join_convolution_small(self, square):
        tp = M.two_points()
        assert (
            hh_ranks(CohomologyEngine(M.join(square, tp))).entries
            == hh_ranks(CohomologyEngine(square)).convolve(hh_ranks(CohomologyEngine(tp))).entries
        )

    def test_wedge_table(self, square):
        w = M.wedge(square, 1, square, 1)
        assert hh_ranks(CohomologyEngine(w)).entries == {(0, 0): 1, (-1, 4): 1}

    def test_relabel_invariance_small(self):
        rng = random.Random(31)
        for _ in range(8):
            K = random_complex(rng, rng.randint(3, 6))
            base = hh_ranks(CohomologyEngine(K)).entries
            for _ in range(3):
                P = permute_complex(K, random_permutation(rng, K.m))
                assert hh_ranks(CohomologyEngine(P)).entries == base


class TestJoinFactorisation:
    """h and hh of a join are convolved from its factors' own subsets. These
    tests check the factored path against rows over the whole vertex set and
    against the oracle. Acceptance criterion 4c compares a join with its
    factors, but both sides of it now run the factored path, so the
    independent check is here."""

    @settings(max_examples=40, deadline=None)
    @given(K=relabelled_joins(), char=st.sampled_from([0, 32003]))
    def test_factored_equals_unfactored(self, K, char):
        engine = CohomologyEngine(K, char)
        assert engine.factors == brute_force_factors(K)
        h, hh = h_ranks(engine), hh_ranks(engine)
        for I in engine._cache:
            assert any(not I & ~V for V in engine.factors), (K, masks.mask_str(I))
        reference = CohomologyEngine(K, char)
        assert h.entries == unfactored_h_ranks(reference).entries
        assert hh.entries == unfactored_hh_ranks(reference).entries

    # the dense Fraction oracle takes up to 26 s on one m=8 join, 0.4 s at m=6
    @settings(max_examples=15, deadline=None)
    @given(K=relabelled_joins(max_m=6), char=st.sampled_from([0, 32003]))
    def test_rows_equal_oracle(self, K, char):
        assert hh_ranks(CohomologyEngine(K, char)).rows() == oracle_hh_rows(K)

    def test_parts(self, square):
        two = CohomologyEngine(M.two_points())
        assert two.factors == (0b11,)
        assert CohomologyEngine(simplex(3)).factors == ()
        cone = M.join(square, simplex(0))  # vertex 5 is a cone point
        assert CohomologyEngine(cone).factors == (0b0101, 0b1010)
        assert hh_ranks(CohomologyEngine(cone)).entries == hh_ranks(CohomologyEngine(square)).entries


class TestClearing:
    """Each row is ranked on the rows that clearing keeps. This checks it
    against the full blocks ``full_blocks(row)`` ranked by a reference
    elimination, and checks that ``psi`` runs for exactly the targets with a
    row left in."""

    @settings(max_examples=100, deadline=None)
    @given(
        K=st.one_of(complexes(2, 7), relabelled_joins(max_m=7)),
        char=st.sampled_from([0, 32003]),
    )
    def test_cleared_equals_full(self, K, char):
        engine = CohomologyEngine(K, char)
        targets = []
        psi = engine.psi
        engine.psi = lambda I, p, vertices: (
            targets.extend(I & ~masks.bit(i) for i in masks.vertices(vertices)) or psi(I, p, vertices)
        )
        for p in range(-1, K.dim() + 1):
            row = row_of(engine, p)
            del targets[:]
            ranks = row.cohomology_ranks()
            called = set(targets)
            assert ranks == uncleared_row_ranks(row), (K, p)
            blocks = full_blocks(row)
            expected = set()
            for l, mat in blocks.items():
                below = blocks.get(l - 1)
                columns = list(range(row.dims[l - 1]))
                rref = textbook_rref([dict(enumerate(r)) for r in below or ()], columns, char)
                cleared = {q for q, _ in rref}
                reached = {I & ~masks.bit(i) for I, _ in row.groups[l] for i in masks.vertices(I)}
                pos = 0
                for J, b in row.groups[l - 1]:
                    if J in reached and any(r not in cleared for r in range(pos, pos + b)):
                        expected.add(J)
                    pos += b
            assert called == expected, (K, p)
