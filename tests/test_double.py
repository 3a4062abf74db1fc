import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh import double, masks
from machh.cohomology import CohomologyEngine
from machh.double import h_ranks, hh_ranks
from machh.errors import ResourceLimit
from machh.linalg import dense_rank
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
    reference_rank,
    relabelled_joins,
    row_columns,
    row_of,
    simplex,
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
        mats = [row_columns(row, l) for l in row.groups if l - 1 in row.groups]
        entries = [x for mat in mats for col in mat for x in col]
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
    """Each level of a row is ranked column by column, sources in decreasing
    mask order, on the rows that the level below leaves uncleared, and stops
    once its rank reaches their number. This checks the ranks against the
    full blocks ``full_blocks(row)`` ranked by a reference elimination, and
    the pivots and the ``psi`` calls, in order and with their targets,
    against the same rule applied to the full blocks with
    ``reference_rank``."""

    @staticmethod
    def reference_walk(row, blocks) -> tuple[dict, list]:
        """``({l: pivots}, [(source, its psi targets)])`` of the rule on a
        row's full blocks: a greedy column basis over the kept rows, sources
        in decreasing mask order, stopped at the kept count. A source is
        called for its targets with a row kept, if it has one."""
        char = row.engine.char
        pivots, calls = {}, []
        cleared: set = set()
        for l in sorted(row.groups):
            mat = blocks.get(l)
            found = set()
            if mat is not None:
                kept = [r for r in range(row.dims[l - 1]) if r not in cleared]
                rows_of, pos = {}, 0
                for J, b in row.groups[l - 1]:
                    rows_of[J], pos = set(range(pos, pos + b)), pos + b
                sources, col = [], 0
                for I, b in row.groups[l]:
                    sources.append((I, range(col, col + b)))
                    col += b
                basis = []
                for I, cols in reversed(sources):
                    if len(basis) == len(kept):
                        break
                    reached = {I & ~masks.bit(i) for i in masks.vertices(I)}
                    called = {J for J in reached if rows_of.get(J, set()) - cleared}
                    if not called:
                        continue
                    calls.append((I, called))
                    for c in cols:
                        column = [mat[r][c] for r in kept]
                        if reference_rank(basis + [column], char) > len(basis):
                            basis.append(column)
                            found.add(c)
            pivots[l] = found
            cleared = found
        return pivots, calls

    @settings(max_examples=100, deadline=None)
    @given(
        K=st.one_of(complexes(2, 7), relabelled_joins(max_m=7)),
        char=st.sampled_from([0, 32003]),
    )
    def test_cleared_equals_full(self, K, char):
        engine = CohomologyEngine(K, char)
        calls = []  # (source, its targets, the columns that enlarged the span)
        psi = engine.psi

        def psi_spy(I, p, vertices):
            calls.append((I, {I & ~masks.bit(i) for i in masks.vertices(vertices)}, []))
            return psi(I, p, vertices)

        def rank_spy(mat, red):
            enlarged = dense_rank(mat, red)
            calls[-1][2].extend(enlarged)
            return enlarged

        engine.psi = psi_spy
        for p in range(-1, K.dim() + 1):
            row = row_of(engine, p)
            del calls[:]
            with mock.patch.object(double, "dense_rank", rank_spy):
                ranks = row.cohomology_ranks()
            assert ranks == uncleared_row_ranks(row), (K, p)
            blocks = full_blocks(row)
            pivots, expected = self.reference_walk(row, blocks)
            assert [(I, targets) for I, targets, _ in calls] == expected, (K, p)
            first = {}
            for sources in row.groups.values():
                col = 0
                for I, b in sources:
                    first[I], col = col, col + b
            found = {l: set() for l in row.groups}
            for I, _, enlarged in calls:
                found[I.bit_count()].update(first[I] + c for c in enlarged)
            assert found == pivots, (K, p)
            for l, mat in blocks.items():
                basis = [[r[c] for c in sorted(pivots[l])] for r in mat]
                assert reference_rank(basis, char) == len(pivots[l]) == reference_rank(mat, char), (K, p, l)


class TestRankTenOnSevenVertices:
    """A complex on 7 vertices with double cohomology of rank 10, where the
    k2r family needs 8 vertices. Its row complex has three nonzero rows, and
    the engine over Q and over GF(32003) and the oracle agree on them."""

    FACETS = [
        [2, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5], [1, 2, 4, 6], [1, 3, 4, 6],
        [2, 5, 6], [3, 5, 6], [1, 4, 5, 6], [1, 2, 3, 7], [1, 5, 7], [2, 5, 7],
        [3, 5, 7], [4, 5, 7], [1, 6, 7], [2, 4, 6, 7], [3, 4, 6, 7],
    ]
    ROWS = {-1: 1, 1: 5, 2: 4}

    @pytest.mark.parametrize("char", [0, 32003])
    def test_engine_rows(self, char):
        K = M.SimplicialComplex.from_facets(7, self.FACETS)
        table = hh_ranks(CohomologyEngine(K, char))
        assert table.rows() == self.ROWS
        assert table.total() == 10

    def test_oracle_rows(self):
        assert oracle_hh_rows(M.SimplicialComplex.from_facets(7, self.FACETS)) == self.ROWS


class TestKept:
    """``RowComplex._kept(l, picked)`` leaves out row k of target J exactly
    when k is in ``picked[J]``, the columns of J picked one level down, and
    numbers the kept rows 0..n-1 in target order. Checked on the top level
    of the rank-ten complex's row 2: one source, the whole vertex set, over
    seven targets of two or more rows each."""

    @pytest.fixture
    def row(self):
        K = M.SimplicialComplex.from_facets(7, TestRankTenOnSevenVertices.FACETS)
        return row_of(CohomologyEngine(K), 2)

    def test_picked_rows_are_left_out(self, row):
        targets = row.groups[6]
        assert [I for I, _ in row.groups[7]] == [masks.full_mask(7)]
        assert len(targets) == 7 and min(b for _, b in targets) >= 2
        (J0, b0), (J1, _), (J2, b2) = targets[:3]
        picked = {J0: set(range(b0)), J1: {0}, J2: {b2 - 1}}
        kept, n = row._kept(7, picked)
        assert list(kept) == [J for J, _ in targets[1:]]
        assert n == row.dims[6] - sum(len(ks) for ks in picked.values())
        assert [k for rows in kept.values() for k in rows if k is not None] == list(range(n))
        for J, b in targets[1:]:
            assert len(kept[J]) == b
            assert {k for k, r in enumerate(kept[J]) if r is None} == picked.get(J, set()), J
        assert kept[J1][:2] == [None, 0]

        calls = []
        psi = row.engine.psi

        def psi_spy(I, p, vertices):
            calls.append({I & ~masks.bit(i) for i in masks.vertices(vertices)})
            return psi(I, p, vertices)

        row.engine.psi = psi_spy
        (I, b), = row.groups[7]
        cols = row._columns(I, b, kept, n)
        assert calls == [set(kept)]  # every target but J0, whose rows are all picked
        assert len(cols) == b and all(len(col) == n for col in cols)

    def test_nothing_picked_keeps_every_row(self, row):
        kept, n = row._kept(7, {})
        assert n == row.dims[6]
        assert list(kept) == [J for J, _ in row.groups[6]]
        assert [k for rows in kept.values() for k in rows] == list(range(n))
