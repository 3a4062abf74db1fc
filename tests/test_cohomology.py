import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh import cohomology as C
from machh import masks
from machh.cohomology import CohomologyEngine, SubsetCohomology, _minimal_non_faces, prime_field
from machh.double import h_ranks, hh_ranks
from machh.errors import InternalInconsistency, NotApplicable
from machh.linalg import SparseReducer, dense_rank, kernel_basis
from machh.oracle import oracle_reduced_betti
from machh.theorem import verify_theorem1

from conftest import (
    brute_force_factors,
    coboundary_vector,
    complexes,
    dense_mul,
    full_blocks,
    full_subcomplex,
    permute_complex,
    psi_block,
    random_complex,
    reference_psi,
    relabelled_joins,
    row_of,
    rref_kernel_basis,
    simplex,
    textbook_rref,
    whole_table,
)


def boundary_sphere(n: int) -> M.SimplicialComplex:
    verts = list(range(1, n + 3))
    facets = [[v for v in verts if v != skip] for skip in verts]
    return M.SimplicialComplex.from_facets(n + 2, facets)


def cohomology(L: M.SimplicialComplex, p: int):
    """H̃^p(L) as the engine computes it for the full subset of L."""
    return CohomologyEngine(L).subset(masks.full_mask(L.m)).basis(p)


class TestCochainComplex:
    def test_empty_complex(self):
        empty = full_subcomplex(M.square(), 0)
        assert CohomologyEngine(empty).subset(0).simplices == {-1: [0]}
        assert cohomology(empty, -1).rank == 1

    def test_full_triangle_acyclic(self):
        tri = simplex(2)
        for p in range(-1, 3):
            assert cohomology(tri, p).rank == 0

    def test_coboundary_squares_to_zero(self):
        # delta_p ∘ delta_{p-1} = 0 for the rows of the engine's table, augmentation
        # included: the row of each face u, then the rows of the faces in it
        rng = random.Random(13)
        for _ in range(25):
            K = random_complex(rng, rng.randint(2, 6))
            for char in (0, 32003):
                eng = CohomologyEngine(K, char)
                hh_ranks(eng)
                rows = eng._rows
                for u in K.faces:
                    acc = {}
                    for t, c in rows[u].items():
                        for s, d in rows[t].items():
                            acc[s] = acc.get(s, 0) + c * d
                    assert not any(x % char if char else x for x in acc.values()), (K, char, u)

    def test_circle(self):
        circle = boundary_sphere(1)
        assert cohomology(circle, 1).rank == 1
        assert cohomology(circle, 0).rank == 0
        assert cohomology(circle, -1).rank == 0

    def test_nonempty_has_no_degree_minus_one(self, square):
        assert cohomology(square, -1).rank == 0


class TestReducedCohomology:
    def test_two_points(self):
        assert cohomology(M.two_points(), 0).rank == 1

    def test_square_is_circle(self, square):
        assert cohomology(square, 1).rank == 1

    def test_path_contractible(self):
        path = M.SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
        for p in range(-1, 3):
            assert cohomology(path, p).rank == 0

    def test_degenerate_degrees(self, square):
        assert cohomology(square, -3).rank == 0
        assert cohomology(square, 7).rank == 0

    def test_representatives_are_cocycles(self, square):
        basis = cohomology(square, 1)
        assert basis.rank == 1
        # the representative pairs to zero against the (nonexistent) 2-simplices,
        # and expressing it in the basis returns the unit coefficient
        assert basis.express(basis.representatives[0]) == [Fraction(1)]


def psi_rows(eng: CohomologyEngine, I: int, i: int, p: int) -> list[list]:
    """``eng.psi``'s block for I and i as a list of rows, one per target
    representative: ``psi`` gives its block column by column."""
    cols = psi_block(eng, I, i, p)
    return [[col[r] for col in cols] for r in range(eng.rank(I & ~masks.bit(i), p))]


class TestInducedMapPsi:
    def test_three_points_surjective(self):
        pts = M.SimplicialComplex.from_facets(3, [[1], [2], [3]])
        cols = psi_block(CohomologyEngine(pts), masks.full_mask(3), 3, 0)
        # two source representatives, one coordinate each
        assert len(cols) == 2 and len(cols[0]) == 1
        assert dense_rank(cols, 0) == 1

    def test_square_to_contractible_path(self, square):
        cols = psi_block(CohomologyEngine(square), masks.full_mask(4), 2, 1)
        assert cols == [[]]  # one source representative, target group is zero

    def test_singleton_to_empty(self, square):
        cols = psi_block(CohomologyEngine(square), masks.bit(1), 1, -1)
        assert cols == [] or all(not any(c) for c in cols)

    def test_functoriality_of_compositions(self):
        # the two one-step restriction paths from I to I\{i,j} agree exactly
        rng = random.Random(5)
        for _ in range(25):
            K = random_complex(rng, rng.randint(3, 6))
            eng = CohomologyEngine(K)
            I = masks.full_mask(K.m)
            verts = masks.vertices(I)
            i, j = rng.sample(verts, 2)
            for p in range(-1, K.dim() + 1):
                via_i = dense_mul(
                    psi_rows(eng, I & ~masks.bit(i), j, p), psi_rows(eng, I, i, p), Fraction(0)
                )
                via_j = dense_mul(
                    psi_rows(eng, I & ~masks.bit(j), i, p), psi_rows(eng, I, j, p), Fraction(0)
                )
                assert via_i == via_j


class TestPrimeField:
    def test_gf_matches_rationals_on_corpus(self, square, square_diag, case2_complex):
        gf = 32003
        rng = random.Random(99)
        corpus = [square, square_diag, case2_complex, M.k2r_family(3).complex] + [
            random_complex(rng, rng.randint(3, 6)) for _ in range(10)
        ]
        for K in corpus:
            eng_q = CohomologyEngine(K)
            eng_p = CohomologyEngine(K, gf)
            for I in range(1 << K.m):
                for p in range(-1, K.dim() + 1):
                    rq = eng_q.rank(I, p)
                    rp = eng_p.rank(I, p)
                    assert rp <= rq
                    assert rp == rq  # GF(32003): exact agreement on the corpus

    def test_a_field_is_its_characteristic(self):
        assert prime_field(3) == 3
        assert CohomologyEngine(M.square(), prime_field(3)).char == 3
        assert CohomologyEngine(M.square()).char == 0
        assert CohomologyEngine(M.square(), 0).char == 0

    def test_rejects_non_prime(self):
        with pytest.raises(ValueError):
            prime_field(15)
        with pytest.raises(ValueError):
            prime_field(2)

    @pytest.mark.parametrize("char", [4, 1, -3, 2, 6, 15])
    def test_engine_and_theorem_refuse_a_characteristic_that_is_no_field(self, char):
        # Z/4 and Z/6 are rings with zero divisors; 1, -3 and 2 are no odd prime
        with pytest.raises(ValueError, match="odd prime"):
            CohomologyEngine(M.square(), char)
        with pytest.raises(ValueError, match="odd prime"):
            verify_theorem1(M.square(), masks.mask_of([1, 3], 4), char)

    @pytest.mark.parametrize("char", [32003.0, 3.0, 3.5, 0.0, False, True, "3", None])
    def test_engine_and_theorem_refuse_a_characteristic_that_is_no_int(self, char):
        # a float field would run in float arithmetic; a bool is an int only to isinstance
        with pytest.raises(ValueError):
            CohomologyEngine(M.square(), char)
        with pytest.raises(ValueError):
            verify_theorem1(M.square(), masks.mask_of([1, 3], 4), char)


class TestScalarTypes:
    """Every stored scalar is exact and in its field: Q never holds a float,
    GF(p) holds only ints in [0, p)."""

    @staticmethod
    def stored_scalars(K, char):
        eng = CohomologyEngine(K, char)
        for p in range(-1, K.dim() + 1):
            row = row_of(eng, p)
            for l in row.groups:
                if l - 1 in row.groups:
                    yield from (x for r in row._block(l, frozenset()) for x in r)
        # psi below may build a cone target that no rank built, so build every
        # subset first and walk a snapshot of the cache
        for I in range(1 << K.m):
            eng.subset(I)
        for I, sc in list(eng._cache.items()):
            reducers = list(sc._delta.values())
            for p, basis in sc._basis.items():
                reducers.append(basis._kernel)
                basis.express({})  # builds the table if no psi has
                # the table holds the quotient's fully reduced rows, negated
                yield from (a for coords in basis._table.values() for _, a in coords)
                yield from (x for rep in basis.representatives for x in rep.values())
                for block in eng.psi(I, p, I).values():
                    yield from (x for col in block for x in col)
            for red in reducers:
                for vec in red.rows.values():
                    yield from vec.values()

    def test_rationals_are_ints_or_fractions(self):
        rng = random.Random(41)
        for _ in range(10):
            K = random_complex(rng, rng.randint(3, 6))
            for x in self.stored_scalars(K, 0):
                assert type(x) in (int, Fraction), (K, x)

    def test_gf_scalars_are_reduced_ints(self):
        gf = 32003
        rng = random.Random(43)
        for _ in range(10):
            K = random_complex(rng, rng.randint(3, 6))
            for x in self.stored_scalars(K, gf):
                assert type(x) is int and 0 <= x < gf, (K, x)


FIELDS = st.sampled_from([0, 32003])


def boundary_row(t: int, p: int) -> dict:
    """(-1)**i at t minus its i-th smallest vertex, written as p - 1 for -1."""
    verts = masks.vertices(t)
    return {
        t & ~masks.bit(v): 1 if i % 2 == 0 else p - 1 for i, v in enumerate(verts)
    }


def relabelled(K: M.SimplicialComplex, draw) -> M.SimplicialComplex:
    perm = draw(st.permutations(range(1, K.m + 1)))
    return permute_complex(K, {v: perm[v - 1] for v in range(1, K.m + 1)})


@st.composite
def relabelled_k2r(draw, max_r: int = 8):
    """A k2r member on at most 8 vertices, relabelled."""
    return relabelled(M.k2r_family(draw(st.integers(1, max_r))).complex, draw)


@st.composite
def with_isolated_vertices(draw, max_m: int = 7):
    """A drawn complex plus one to three vertices in no edge, relabelled."""
    K = draw(complexes(max_m=max_m - 1))
    extra = draw(st.integers(1, min(3, max_m - K.m)))
    facets = [masks.vertices(f) for f in K.facets] + [[v] for v in range(K.m + 1, K.m + extra + 1)]
    return relabelled(M.SimplicialComplex.from_facets(K.m + extra, facets), draw)


@st.composite
def joins_with_two_points(draw, max_m: int = 7):
    """A drawn complex joined with two points, relabelled."""
    return relabelled(M.join(draw(complexes(max_m=max_m - 2)), M.two_points()), draw)


class TestSkippedWork:
    """Cone skipping, clearing and presorted faces against the work they replace."""

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=7) | with_isolated_vertices(), FIELDS)
    def test_betti_minus_one_needs_no_reducer(self, K, char):
        # b_{-1}(K_I) = 1 - rank delta_{-1} - rank delta_{-2}, chained and from scratch
        eng = CohomologyEngine(K, char)
        for I in range(1 << K.m):
            for sc in (eng.subset(I), CohomologyEngine(K, char).subset(I)):
                betti = sc.betti(-1)
                assert -1 not in sc._delta and -2 not in sc._delta, (K, I)
                formula = len(sc.simplices[-1]) - sc.delta_reducer(-1).rank - sc.delta_reducer(-2).rank
                assert betti == formula == (1 if I == 0 else 0), (K, I)

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_rank_equals_oracle_and_cones_are_acyclic(self, K, char):
        eng = CohomologyEngine(K, char)
        for I in range(1 << K.m):
            L = full_subcomplex(K, I)
            betti = [oracle_reduced_betti(L, p) for p in range(-1, K.dim() + 1)]
            assert [eng.rank(I, p) for p in range(-1, K.dim() + 1)] == betti, (K, I)
            if eng.is_cone(I):
                assert not any(betti), (K, I)
                assert I not in eng._cache  # a cone is never built for a rank

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=7) | relabelled_joins(max_m=7) | with_isolated_vertices(), FIELDS)
    def test_non_cones_are_the_unions_of_minimal_non_faces(self, K, char):
        everything = range(1 << K.m)
        scanned = [
            N
            for N in everything
            if N not in K.faces and all(N & ~masks.bit(v) in K.faces for v in masks.vertices(N))
        ]
        assert _minimal_non_faces(K) == tuple(scanned), K
        eng = CohomologyEngine(K, char)
        for I in everything:
            inside = [f for f in K.faces if not f & ~I]
            apex = any(
                all(f | masks.bit(v) in K.faces for f in inside) for v in masks.vertices(I)
            )
            assert eng.is_cone(I) == apex, (K, I)
        table = list(whole_table(eng))
        assert table == sorted(set(table)), K
        assert not any(eng.is_cone(I) for I in table), K
        for V in eng.factors:
            inside = {I: b for I, b in whole_table(eng).items() if not I & ~V}
            assert eng.betti_table(V) == inside, (K, masks.mask_str(V))

    def test_engine_of_a_join_keeps_no_whole_complex_union_set(self):
        # the factors have 358 and 333 unions of minimal non-faces, so the join
        # has 119,214; a set of them all peaks at 11 MB under tracemalloc
        def seeded(seed):
            rng = random.Random(seed)
            extra = [rng.sample(range(1, 10), rng.randint(2, 4)) for _ in range(14)]
            return M.SimplicialComplex.from_facets(9, [[v] for v in range(1, 10)] + extra)

        K = M.join(seeded(3), seeded(4))
        tracemalloc.start()
        try:
            eng = CohomologyEngine(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(eng.factors) == 2
        assert peak < 1 << 20, peak

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_cleared_reducers_and_bases_match_full_ones(self, K, char):
        for I in range(1 << K.m):
            sc = CohomologyEngine(K, char).subset(I)
            scanned = {}
            for f in K.faces:
                if not f & ~I:
                    scanned.setdefault(f.bit_count() - 1, []).append(f)
            assert sc.simplices == {p: sorted(g) for p, g in scanned.items()}
            full = {}
            for p in range(-2, sc.max_p + 1):
                full[p] = SparseReducer(char)
                for t in sc.simplices.get(p + 1, ()):
                    full[p].add(boundary_row(t, char))
                assert sc.delta_reducer(p).rref_rows() == full[p].rref_rows(), (K, I, p)
            L = full_subcomplex(K, I)
            for p in range(-1, sc.max_p + 1):
                pivots = full[p].rows

                def quotient(sources):
                    red = SparseReducer(char)
                    for s in sources:
                        vec = coboundary_vector(sc, s, K.faces)
                        red.add({t: c for t, c in vec.items() if t not in pivots})
                    return red

                cleared = quotient(sc.delta_reducer(p - 1).rows)
                every = quotient(sc.simplices.get(p - 1, ()))
                assert cleared.rref_rows() == every.rref_rows(), (K, I, p)
                essential = [f for f in sc.simplices[p] if f not in pivots and f not in every.rows]
                assert len(essential) == sc.basis(p).rank == oracle_reduced_betti(L, p)


class TestFreeColumnBases:
    """Leading-term elimination, back-substituted kernels, the quotient on the
    free columns and the engine's Betti table against the references they replace."""

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_reducers_and_kernels_match_references(self, K, char):
        for I in range(1 << K.m):
            sc = CohomologyEngine(K, char).subset(I)
            for p in range(-1, sc.max_p + 1):
                red = sc.delta_reducer(p)
                columns = sc.simplices[p]
                every = [boundary_row(t, char) for t in sc.simplices.get(p + 1, ())]
                rref = textbook_rref(every, columns, char)
                assert red.rank == len(rref)
                assert set(red.rows) == {q for q, _ in rref}
                assert red.rref_rows() == rref, (K, I, p)
                assert kernel_basis(red, columns) == rref_kernel_basis(red, columns)
                some = columns[::2]
                assert kernel_basis(red, some) == rref_kernel_basis(red, some)

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7), FIELDS, st.randoms(use_true_random=False))
    def test_express_inverts_representatives(self, K, char, rng):
        eng = CohomologyEngine(K, char)
        for I in range(1 << K.m):
            sc = eng.subset(I)
            for p in range(-1, sc.max_p + 1):
                basis = sc.basis(p)
                a = [rng.randint(-3, 3) for _ in basis.representatives]
                if char:
                    a = [x % char for x in a]
                vec: dict = {}
                terms = [(x, rep) for x, rep in zip(a, basis.representatives)]
                terms += [
                    (rng.randint(-3, 3), coboundary_vector(sc, s, K.faces))
                    for s in sc.simplices.get(p - 1, ())
                ]
                for x, v in terms:
                    for s, c in v.items():
                        vec[s] = vec.get(s, 0) + x * c
                vec = {s: c % char if char else c for s, c in vec.items()}
                vec = {s: c for s, c in vec.items() if c}
                assert basis.express(vec) == a, (K, I, p)
                for q in sc.delta_reducer(p).rows:
                    broken = dict(vec)
                    broken[q] = (broken.get(q, 0) + 1) % char if char else broken.get(q, 0) + 1
                    with pytest.raises(InternalInconsistency):
                        basis.express(broken)
                with pytest.raises(InternalInconsistency):
                    basis.express({I | 1 << K.m: 1})  # not a simplex of K_I
                for q, faces in sc.simplices.items():
                    if q != p:
                        with pytest.raises(InternalInconsistency):
                            basis.express({faces[-1]: 1})  # a simplex of K_I, not of degree p

    @pytest.mark.parametrize("char", [0, 32003])
    def test_a_foreign_key_is_named_before_a_nonzero_coboundary(self, square, char):
        # 1 at one vertex of the square is no cocycle, and 1 << m is no face of it
        basis = CohomologyEngine(square, char).subset(masks.full_mask(4)).basis(0)
        with pytest.raises(InternalInconsistency, match="not a cocycle"):
            basis.express({masks.bit(1): 1})
        for vec in ({masks.bit(1): 1, 1 << 4: 1}, {1 << 4: 1, masks.bit(1): 1}):
            with pytest.raises(InternalInconsistency, match="not a cochain"):
                basis.express(vec)

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_betti_table_matches_oracle(self, K, char):
        eng = CohomologyEngine(K, char)
        table = whole_table(eng)
        for I in range(1 << K.m):
            L = full_subcomplex(K, I)
            betti = {p: oracle_reduced_betti(L, p) for p in range(-1, K.dim() + 1)}
            assert table.get(I, {}) == {p: b for p, b in betti.items() if b}, (K, I)
            if eng.is_cone(I):
                assert I not in table
        assert list(table) == sorted(table)


class TestDeltaRowSigns:
    """Each row of delta_p enters its reducer with a leading +1, so it needs no
    sign flip, and the stored rows are those of the textbook signs. A row
    enters either through ``add`` or, when its lead is free, as the table's
    row itself, so both ``add`` and the table's row maker are spied on."""

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_rows_lead_with_one_and_store_as_before(self, K, char):
        leads = []
        add, make = SparseReducer.add, C._delta_row

        def spy(red, v):
            leads.append(v[min(v)])
            return add(red, v)

        def made(t, field):
            row = make(t, field)
            leads.append(row[min(row)])
            return row

        for I in range(1 << K.m):
            sc = CohomologyEngine(K, char).subset(I)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(SparseReducer, "add", spy)
                mp.setattr(C, "_delta_row", made)
                reducers = {p: sc.delta_reducer(p) for p in range(sc.max_p, -2, -1)}
            for p, red in reducers.items():
                cleared = reducers[p + 1].rows if p + 1 in reducers else {}
                textbook = SparseReducer(char)
                for t in sc.simplices.get(p + 1, ()):
                    if t not in cleared:
                        textbook.add(boundary_row(t, char))
                assert red.rows == textbook.rows, (K, I, p)
        assert leads and set(leads) == {1}, K


class TestKunnethRank:
    """``rank`` of a subset that meets several join factors, from its parts."""

    @settings(max_examples=40, deadline=None)
    @given(relabelled_joins(max_m=7), FIELDS)
    def test_rank_on_joins_equals_a_direct_build(self, K, char):
        eng = CohomologyEngine(K, char)
        direct = CohomologyEngine(K, char)
        for I in range(1 << K.m):
            for p in range(-1, K.dim() + 1):
                expected = 0 if direct.is_cone(I) else direct.subset(I).betti(p)
                assert eng.rank(I, p) == expected, (K, masks.mask_str(I), p)
        for I in eng._cache:
            assert any(not I & ~V for V in eng.factors), (K, masks.mask_str(I))


@st.composite
def glued_pairs(draw, max_m: int = 7):
    """A complex and a minimal non-face sigma of it, which may be glued in."""
    K = draw(complexes(max_m=max_m).filter(_minimal_non_faces))
    return K, draw(st.sampled_from(_minimal_non_faces(K)))


def build_every_subset(eng: CohomologyEngine, rng) -> None:
    """eng.subset(I) for every I, in increasing order (every nonempty I then
    finds I minus its least vertex) or, if ``rng`` is given, shuffled."""
    order = list(range(1 << eng.K.m))
    if rng is not None:
        rng.shuffle(order)
    for I in order:
        eng.subset(I)


def assert_cached_subsets_match_scratch(eng: CohomologyEngine) -> int:
    """Every cached subset against one built from scratch, by a fresh engine
    that has no cached parent; returns how many extend a parent. Subsets
    without a parent are compared too: a child that wrote into its parent's
    rows would show there."""
    chained = 0
    for I, sc in list(eng._cache.items()):
        chained += sc._parent is not None
        fresh = CohomologyEngine(eng.K, eng.char).subset(I)
        where = (eng.K, masks.mask_str(I))
        assert sc.simplices == fresh.simplices, where
        for p in range(-2, fresh.max_p + 1):
            red, ref = sc.delta_reducer(p), fresh.delta_reducer(p)
            assert set(red.rows) == set(ref.rows), (*where, p)
            assert red.rref_rows() == ref.rref_rows(), (*where, p)
        for p in range(-1, fresh.max_p + 1):
            assert sc.betti(p) == fresh.betti(p), (*where, p)
            basis, ref = sc.basis(p), fresh.basis(p)
            assert basis.representatives == ref.representatives, (*where, p)
            for rep in ref.representatives:
                assert basis.express(rep) == ref.express(rep), (*where, p)
        for p in (-2, fresh.max_p + 1, fresh.max_p + 2):
            # degrees with no faces: delta_reducer's fresh empty reducers give the zero group
            for built in (sc, fresh):
                basis = built.basis(p)
                assert basis.rank == built.betti(p) == 0, (*where, p)
                assert basis.representatives == [] and basis.express({}) == [], (*where, p)
    return chained


class TestVertexChain:
    """A K_I built on a cached K_{I∖v} equals K_I built from scratch, and no
    stored row is ever mutated, so parent and child may share them."""

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7), FIELDS, st.none() | st.randoms(use_true_random=False))
    def test_chained_subsets_match_scratch(self, K, char, rng):
        eng = CohomologyEngine(K, char)
        build_every_subset(eng, rng)
        chained = assert_cached_subsets_match_scratch(eng)
        if rng is None:
            assert chained == (1 << K.m) - 1  # all but the empty subset

    @settings(max_examples=30, deadline=None)
    @given(relabelled_joins(max_m=7), FIELDS, st.none() | st.randoms(use_true_random=False))
    def test_chained_subsets_of_joins_match_scratch(self, K, char, rng):
        eng = CohomologyEngine(K, char)
        hh_ranks(eng)
        build_every_subset(eng, rng)
        assert_cached_subsets_match_scratch(eng)

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs(), FIELDS, st.none() | st.randoms(use_true_random=False))
    def test_glued_subsets_extend_inherited_ones(self, pair, char, rng):
        K, sigma = pair
        before = CohomologyEngine(K, char)
        build_every_subset(before, rng)
        glued = CohomologyEngine(M.glue_simplex(K, sigma), char)
        glued.inherit(before, sigma)
        inherited = dict(glued._cache)
        build_every_subset(glued, rng)
        assert_cached_subsets_match_scratch(glued)
        if rng is None:
            # an I ⊇ sigma extends an inherited I∖v for v the least vertex of sigma at most
            for I, sc in glued._cache.items():
                if not sigma & ~I and I & -I == sigma & -sigma:
                    assert sc._parent is inherited[I ^ I & -I], (K, masks.mask_str(I))

    @settings(max_examples=30, deadline=None)
    @given(complexes(max_m=7), FIELDS)
    def test_stored_rows_are_shared_and_never_mutated(self, K, char):
        eng = CohomologyEngine(K, char)
        hh_ranks(eng)
        built = [(sc, p, red) for sc in list(eng._cache.values()) for p, red in sc._delta.items()]
        snapshot = [{q: dict(row) for q, row in red.rows.items()} for _, _, red in built]
        for sc, p, red in built:
            parent = sc._parent
            if parent is not None and p in parent._delta:
                for q, row in parent._delta[p].rows.items():
                    assert red.rows[q] is row  # shared, not copied
        for I, sc in list(eng._cache.items()):
            for p in range(-1, sc.max_p + 1):
                eng.psi(I, p, I)
        for sc, p, red in built:
            red.rref_rows()
            kernel_basis(red, sc.simplices.get(p, ()))
        after = [{q: dict(row) for q, row in red.rows.items()} for _, _, red in built]
        assert after == snapshot, K

    @settings(max_examples=30, deadline=None)
    @given(relabelled_joins(max_m=7) | complexes(max_m=7), FIELDS)
    def test_stored_rows_are_plain_dicts(self, K, char):
        # a request path stores each echelon row as its vector
        eng = CohomologyEngine(K, char)
        hh_ranks(eng)
        for sc in eng._cache.values():
            for red in [*sc._delta.values(), *(basis._kernel for basis in sc._basis.values())]:
                assert all(type(row) is dict for row in red.rows.values()), (K, masks.mask_str(sc.I))


def spy_eliminations(mp: pytest.MonkeyPatch) -> tuple[list, list, list]:
    """Patch ``SparseReducer.add``, the row maker ``cohomology._delta_row``,
    ``SubsetCohomology.delta_reducer``, ``SubsetCohomology.basis`` and
    ``double.dense_rank`` where their callers look them up. Returns a list
    that gets (reducer, names of the spied calls open) per ``add``, one that
    gets ("make" or "add", row, names of the spied calls open) per row that
    the maker makes or that an ``add`` stores, and one that gets every
    reducer ``delta_reducer`` returns."""
    adds, entered, returned = [], [], []
    open_calls: list[str] = []

    def spy(fn, name, out=None):
        def call(*args, **kwargs):
            open_calls.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_calls.pop()
            if out is not None:
                out.append(result)
            return result

        return call

    add, make = SparseReducer.add, C._delta_row

    def add_spy(red, *args, **kwargs):
        adds.append((red, set(open_calls)))
        pivots = set(red.rows)
        grew = add(red, *args, **kwargs)
        entered.extend(("add", red.rows[q], set(open_calls)) for q in red.rows.keys() - pivots)
        return grew

    def make_spy(*args):
        row = make(*args)
        entered.append(("make", row, set(open_calls)))
        return row

    mp.setattr(SparseReducer, "add", add_spy)
    mp.setattr(C, "_delta_row", make_spy)
    mp.setattr(SubsetCohomology, "delta_reducer", spy(SubsetCohomology.delta_reducer, "delta_reducer", returned))
    mp.setattr(SubsetCohomology, "basis", spy(SubsetCohomology.basis, "basis"))
    mp.setattr("machh.double.dense_rank", spy(M.double.dense_rank, "dense_rank"))
    return adds, entered, returned


class TestOneWayIntoEliminations:
    """Every δ-row elimination runs inside ``delta_reducer``: an ``add``
    outside it belongs to a basis's quotient or to a row-complex rank, every
    δ row is made inside it, and a reducer that ``delta_reducer`` returns got
    every row inside it, as a made row stored as it is or through ``add``."""

    @staticmethod
    def run_and_check(K, char, rng, sigma=None) -> None:
        """``hh_ranks`` on K (and, with sigma, on K with sigma glued after
        ``inherit``), then every degree of every subset in a shuffled order,
        so that roots and chained subsets both occur; then the check."""
        with pytest.MonkeyPatch.context() as mp:
            adds, entered, returned = spy_eliminations(mp)
            eng = CohomologyEngine(K, char)
            hh_ranks(eng)
            if sigma is not None:
                glued = CohomologyEngine(M.glue_simplex(K, sigma), char)
                glued.inherit(eng, sigma)
                hh_ranks(glued)
                eng = glued
            build_every_subset(eng, rng)
            for sc in list(eng._cache.values()):
                for p in range(-2, sc.max_p + 3):
                    sc.betti(p)
                    sc.basis(p)
                    sc.delta_reducer(p)
        outside = [calls for _, calls in adds if not calls & {"delta_reducer", "basis", "dense_rank"}]
        assert not outside, (K, len(outside))
        deltas = {id(red) for red in returned}
        assert all("delta_reducer" in calls for red, calls in adds if id(red) in deltas), K
        assert all("delta_reducer" in calls for how, _, calls in entered if how == "make"), K
        inside = {id(row) for _, row, calls in entered if "delta_reducer" in calls}
        stored = [row for red in returned for row in red.rows.values()]
        assert stored and all(id(row) in inside for row in stored), K

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7) | relabelled_k2r(), FIELDS, st.randoms(use_true_random=False))
    def test_root_and_chained_subsets(self, K, char, rng):
        self.run_and_check(K, char, rng)

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs(), FIELDS, st.randoms(use_true_random=False))
    def test_glued_engine_after_inherit(self, pair, char, rng):
        K, sigma = pair
        self.run_and_check(K, char, rng, sigma)


def per_pivot_quotient(sc: SubsetCohomology, p: int, faces: frozenset) -> SparseReducer:
    """The quotient of H̃^p(K_I) as a basis built it before it read the free
    faces' rows: one coboundary vector per pivot of delta_{p-1}, cut down to
    the columns that are not pivots of delta_p. ``faces`` are K's."""
    pivots = sc.delta_reducer(p).rows
    quotient = SparseReducer(sc.char)
    for s in sc.delta_reducer(p - 1).rows:
        quotient.add({t: c for t, c in coboundary_vector(sc, s, faces).items() if t not in pivots})
    return quotient


def eager_parts(sc: SubsetCohomology, p: int, faces: frozenset) -> tuple[dict, list[dict]]:
    """The ``express`` table and the representatives of H̃^p(K_I) built both
    at once, as every basis did before it built its parts by role: the
    per-pivot quotient's fully reduced rows, negated, and one kernel vector
    per essential column."""
    char = sc.char
    if p not in sc.simplices:
        return {}, []
    pivots = sc.delta_reducer(p).rows
    quotient = per_pivot_quotient(sc, p, faces)
    essential = [f for f in sc.simplices[p] if f not in pivots and f not in quotient.rows]
    index = {e: k for k, e in enumerate(essential)}
    table = {e: ((k, 1),) for e, k in index.items()}
    for q, row in quotient.rref_rows():
        table[q] = tuple((index[e], char - a if char else -a) for e, a in row.items() if e != q)
    return table, kernel_basis(sc.delta_reducer(p), essential)


def record_roles(eng: CohomologyEngine, sources: set, targets: set) -> None:
    """Patch ``eng.psi`` to add (id of the subset, p) of each call's source,
    canon(I), to ``sources`` and of each of its targets, canon(I∖i), to
    ``targets``."""
    psi = eng.psi

    def spy(I, p, vertices):
        blocks = psi(I, p, vertices)
        sources.add((id(eng._cache[eng.canon(I)]), p))
        for i in masks.vertices(vertices):
            targets.add((id(eng._cache[eng.canon(I & ~masks.bit(i))]), p))
        return blocks

    eng.psi = spy


class TestBasesByRole:
    """A basis builds its ``express`` table only once it is the target of a
    ``psi`` and its representatives only once it is a source; either part
    forced later equals the part a basis built eagerly has."""

    @staticmethod
    def assert_parts_follow_roles(engines, sources, targets) -> None:
        where = engines[-1].K
        for eng in engines:
            for I, sc in list(eng._cache.items()):
                for p, basis in sc._basis.items():
                    role = (id(sc), p)
                    assert (basis._table is not None) == (role in targets), (where, I, p)
                    assert (basis._representatives is not None) == (role in sources), (where, I, p)
                    basis.express({})
                    table, representatives = eager_parts(sc, p, eng.K.faces)
                    assert basis._table == table, (where, I, p)
                    assert basis.representatives == representatives, (where, I, p)

    @settings(max_examples=40, deadline=None)
    @given(complexes(max_m=7) | relabelled_k2r(), FIELDS)
    def test_parts_follow_roles(self, K, char):
        eng = CohomologyEngine(K, char)
        sources, targets = set(), set()
        record_roles(eng, sources, targets)
        hh_ranks(eng)
        self.assert_parts_follow_roles([eng], sources, targets)

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs(), FIELDS)
    def test_parts_follow_roles_in_glued_engines(self, pair, char):
        K, sigma = pair
        before = CohomologyEngine(K, char)
        sources, targets = set(), set()
        record_roles(before, sources, targets)
        hh_ranks(before)
        glued = CohomologyEngine(M.glue_simplex(K, sigma), char)
        glued.inherit(before, sigma)
        record_roles(glued, sources, targets)
        hh_ranks(glued)
        self.assert_parts_follow_roles([before, glued], sources, targets)


def leading_one(row: dict, char: int) -> dict:
    """``row`` times the sign that makes its leading entry +1."""
    if row[min(row)] == 1:
        return row
    return {k: char - v for k, v in row.items()}


def seeded_complexes(max_m: int = 7):
    """``conftest.random_complex`` on 3 to ``max_m`` vertices from a drawn seed."""

    def seeded(seed):
        rng = random.Random(seed)
        return random_complex(rng, rng.randint(3, max_m))

    return st.integers(0, 2**32).map(seeded)


@st.composite
def apex_edges(draw, max_m: int = 7):
    """A drawn complex joined with two points, and sigma the edge between
    them, relabelled: the gluing hypotheses hold, with n = 1."""
    K = M.join(draw(complexes(max_m=max_m - 2)), M.two_points())
    perm = draw(st.permutations(range(1, K.m + 1)))
    return (
        permute_complex(K, {v: perm[v - 1] for v in range(1, K.m + 1)}),
        masks.mask_of([perm[K.m - 2], perm[K.m - 1]], K.m),
    )


def glued_after_verify(K: M.SimplicialComplex, sigma: int, char) -> CohomologyEngine:
    """The glued engine of ``verify_theorem1(K, sigma)`` once it has returned,
    caught as it ``inherit``s K's engine; if the hypotheses fail, a glued
    engine that inherits from K's after ``hh_ranks`` and then runs its own."""
    caught = []
    inherit = CohomologyEngine.inherit

    def spy(self, before, glued_sigma):
        caught.append(self)
        return inherit(self, before, glued_sigma)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(CohomologyEngine, "inherit", spy)
        try:
            verify_theorem1(K, sigma, char)
        except NotApplicable:
            before = CohomologyEngine(K, char)
            hh_ranks(before)
            CohomologyEngine(M.glue_simplex(K, sigma), char).inherit(before, sigma)
            hh_ranks(caught[-1])
    return caught[-1]


class TestDeltaRowTable:
    """The engine's one table of coboundary rows against textbook rows, and
    the quotient read off it against the per-pivot quotient it replaces."""

    @staticmethod
    def assert_rows_and_reducers_are_textbook(eng: CohomologyEngine) -> None:
        """Every table row is the textbook row led by +1, so no shared row was
        mutated, and every built subset's reducers have the row space of the
        textbook rows of all its faces, ranked by dense Gauss-Jordan. Every
        cached subset, inherited ones included, reads the engine's table."""
        char = eng.char
        for t, row in eng._rows.items():
            assert row == leading_one(boundary_row(t, char), char), (eng.K, masks.mask_str(t))
        for I, sc in list(eng._cache.items()):
            assert sc._rows is eng._rows, (eng.K, masks.mask_str(I))
            for p in range(-2, sc.max_p + 1):
                every = [boundary_row(t, char) for t in sc.simplices.get(p + 1, ())]
                rref = textbook_rref(every, sc.simplices.get(p, []), char)
                assert sc.delta_reducer(p).rref_rows() == rref, (eng.K, masks.mask_str(I), p)

    @staticmethod
    def assert_quotients_match_per_pivot(eng: CohomologyEngine) -> None:
        """Every basis's essential columns, quotient ``rref_rows`` (while the
        basis holds its quotient) and ``express`` table equal those of the
        per-pivot quotient."""
        build_every_subset(eng, None)
        for I, sc in list(eng._cache.items()):
            for p in range(-1, sc.max_p + 2):
                basis = sc.basis(p)
                ref = per_pivot_quotient(sc, p, eng.K.faces)
                pivots = sc.delta_reducer(p).rows
                essential = [f for f in sc.simplices.get(p, ()) if f not in pivots and f not in ref.rows]
                where = (eng.K, masks.mask_str(I), p)
                assert basis._essential == essential, where
                if basis._quotient is not None:
                    assert basis._quotient.rref_rows() == ref.rref_rows(), where
                basis.express({})
                assert basis._table == eager_parts(sc, p, eng.K.faces)[0], where

    @settings(max_examples=40, deadline=None)
    @given(
        relabelled_k2r() | seeded_complexes() | complexes(max_m=7) | relabelled_joins(max_m=7),
        FIELDS,
    )
    def test_after_hh(self, K, char):
        eng = CohomologyEngine(K, char)
        hh_ranks(eng)
        self.assert_rows_and_reducers_are_textbook(eng)
        self.assert_quotients_match_per_pivot(eng)
        self.assert_rows_and_reducers_are_textbook(eng)
        assert eng._rows, K

    @settings(max_examples=40, deadline=None)
    @given(glued_pairs() | apex_edges(), FIELDS)
    def test_after_verify_theorem1s_inherit(self, pair, char):
        glued = glued_after_verify(*pair, char)
        self.assert_rows_and_reducers_are_textbook(glued)
        self.assert_quotients_match_per_pivot(glued)
        self.assert_rows_and_reducers_are_textbook(glued)
        assert glued._rows, pair


def brute_force_twin_classes(K: M.SimplicialComplex) -> tuple[int, ...]:
    """The twin classes with two or more members among the vertices of K's
    join factors: a and b are twins when swapping them maps every face to a
    face. Each transposition is applied to every face."""

    def swaps_onto_faces(a, b):
        ab = masks.bit(a) | masks.bit(b)
        return all((f ^ ab if f & ab and f & ab != ab else f) in K.faces for f in K.faces)

    classes: list[list[int]] = []
    for v in masks.vertices(sum(brute_force_factors(K))):
        for c in classes:
            if swaps_onto_faces(c[0], v):
                c.append(v)
                break
        else:
            classes.append([v])
    return tuple(sorted(masks.mask_of(c, K.m) for c in classes if len(c) > 1))


def untransported(K: M.SimplicialComplex, char) -> CohomologyEngine:
    """An engine that builds every subset itself: its twin classes are patched to none."""
    eng = CohomologyEngine(K, char)
    eng.twins = ()
    return eng


class TestTwinOrbits:
    """Twin classes against a brute force, and the transported engine against
    one that eliminates every subset itself."""

    @settings(max_examples=80, deadline=None)
    @given(complexes(max_m=7) | with_isolated_vertices() | relabelled_k2r())
    def test_twin_classes_match_brute_force(self, K):
        eng = CohomologyEngine(K)
        classes = tuple(c for c, _ in eng.twins)
        assert classes == brute_force_twin_classes(K), K
        for c, members in eng.twins:
            assert sum(1 for V in eng.factors if V & c) == 1, (K, masks.mask_str(c))
            assert members == tuple(masks.bit(v) for v in masks.vertices(c))
        for I in range(1 << K.m):
            R = eng.canon(I)
            assert R <= I and R.bit_count() == I.bit_count(), (K, masks.mask_str(I))
            assert eng.canon(R) == R
            if not eng.is_cone(I):
                assert not eng.is_cone(R), (K, masks.mask_str(I))

    def test_k2r_vertices_fall_in_twin_pairs(self):
        # the square's two diagonals, then the two points of each join
        for r in [1, 2, 9, 16, 33]:
            K = M.k2r_family(r).complex
            classes = [c for c, _ in CohomologyEngine(K).twins]
            assert [c.bit_count() for c in classes] == [2] * (K.m // 2), r
            assert sum(classes) == masks.full_mask(K.m), r

    @settings(max_examples=60, deadline=None)
    @given(
        relabelled_k2r() | with_isolated_vertices() | joins_with_two_points() | complexes(max_m=7),
        FIELDS,
    )
    def test_transported_engine_equals_untransported(self, K, char):
        eng, ref = CohomologyEngine(K, char), untransported(K, char)
        assert whole_table(eng) == whole_table(ref), K
        for V in eng.factors:
            assert eng.betti_table(V) == ref.betti_table(V), K
        assert h_ranks(eng).entries == h_ranks(ref).entries, K
        assert hh_ranks(eng).entries == hh_ranks(ref).entries, K
        assert all(eng.canon(I) == I for I in eng._cache), K  # no other subset is built
        for p in range(-1, K.dim() + 1):
            blocks = full_blocks(row_of(eng, p))
            for l, mat in blocks.items():
                nxt = blocks.get(l + 1)
                if mat and nxt:
                    product = dense_mul(mat, nxt, 0)
                    assert all(not (x % char if char else x) for r in product for x in r), (K, p, l)
        for I, bettis in whole_table(eng).items():
            for i in masks.vertices(I):
                J = I & ~masks.bit(i)
                if eng.canon(J) == J and eng.canon(I) == I:
                    for p in bettis:
                        where = (K, masks.mask_str(I), i, p)
                        assert psi_block(eng, I, i, p) == psi_block(ref, I, i, p), where

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs() | joins_with_two_points().flatmap(
        lambda K: st.tuples(st.just(K), st.sampled_from(_minimal_non_faces(K)))
    ), FIELDS)
    def test_theorem1_and_glued_complexes_equal_untransported(self, pair, char):
        K, sigma = pair
        glued = M.glue_simplex(K, sigma)
        assert hh_ranks(CohomologyEngine(glued, char)).entries == hh_ranks(untransported(glued, char)).entries

        def outcome():
            try:
                return verify_theorem1(K, sigma, char)
            except NotApplicable as exc:
                return str(exc)

        transported = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("machh.cohomology._twin_classes", lambda non_faces: ())
            assert outcome() == transported, (K, masks.mask_str(sigma))


class TestPsiPerSource:
    """``psi`` makes all blocks of one source in one call; each equals the
    block that ``conftest.reference_psi`` makes with one call per (I, i), in
    an engine of its own, whatever subset of I's vertices is asked for and
    whether or not the row stage has filled the block cache."""

    @staticmethod
    def assert_blocks_match(eng: CohomologyEngine, ref: CohomologyEngine, rng) -> None:
        for I, bettis in whole_table(eng).items():
            for p in bettis:
                some = sum(masks.bit(v) for v in masks.vertices(I) if rng.random() < 0.5)
                for vertices in (some, I):
                    blocks = eng.psi(I, p, vertices)
                    where = (eng.K, masks.mask_str(I), p, masks.mask_str(vertices))
                    assert list(blocks) == [masks.bit(i) for i in masks.vertices(vertices)], where
                    for i in masks.vertices(vertices):
                        assert blocks[masks.bit(i)] == reference_psi(ref, I, i, p), (where, i)

    @settings(max_examples=60, deadline=None)
    @given(
        relabelled_k2r() | complexes(max_m=7) | joins_with_two_points() | with_isolated_vertices(),
        FIELDS,
        st.randoms(use_true_random=False),
    )
    def test_blocks_equal_per_pair_reference(self, K, char, rng):
        eng = CohomologyEngine(K, char)
        hh_ranks(eng)
        self.assert_blocks_match(eng, CohomologyEngine(K, char), rng)

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs(), FIELDS, st.randoms(use_true_random=False))
    def test_glued_blocks_after_inherit_equal_per_pair_reference(self, pair, char, rng):
        K, sigma = pair
        before = CohomologyEngine(K, char)
        hh_ranks(before)
        L = M.glue_simplex(K, sigma)
        glued = CohomologyEngine(L, char)
        glued.inherit(before, sigma)
        hh_ranks(glued)
        self.assert_blocks_match(glued, CohomologyEngine(L, char), rng)


class TestRowBlocks:
    """``RowComplex._block`` with nothing cleared equals ``conftest.full_blocks``,
    which builds each block from ``reference_psi`` and the sign alone, on
    every level of every row over the whole vertex set and over each factor."""

    @staticmethod
    def assert_blocks_match(eng: CohomologyEngine) -> None:
        for V in (masks.full_mask(eng.K.m), *eng.factors):
            for p in range(-1, eng.K.dim() + 1):
                row = row_of(eng, p, V)
                blocks = full_blocks(row)
                for l in blocks:
                    where = (eng.K, masks.mask_str(V), p, l)
                    assert row._block(l, frozenset()) == blocks[l], where

    @settings(max_examples=60, deadline=None)
    @given(complexes(max_m=7) | relabelled_joins(max_m=7) | relabelled_k2r(), FIELDS)
    def test_blocks_equal_reference(self, K, char):
        self.assert_blocks_match(CohomologyEngine(K, char))

    @settings(max_examples=30, deadline=None)
    @given(glued_pairs(), FIELDS)
    def test_glued_blocks_after_inherit_equal_reference(self, pair, char):
        K, sigma = pair
        before = CohomologyEngine(K, char)
        hh_ranks(before)
        glued = CohomologyEngine(M.glue_simplex(K, sigma), char)
        glued.inherit(before, sigma)
        self.assert_blocks_match(glued)


def filtered_faces(K: M.SimplicialComplex, I: int) -> dict[int, list[int]]:
    """K_I's faces grouped by dimension, by filtering and sorting every face of K."""
    groups: dict[int, list[int]] = {}
    for f in sorted(K.faces):
        if not f & ~I:
            groups.setdefault(f.bit_count() - 1, []).append(f)
    return groups


class TestFaceGrouping:
    """Every subset's ``simplices``, built as a root or on a chain parent,
    against a filter of all of K that shares no code with either branch."""

    @settings(max_examples=60, deadline=None)
    @given(relabelled_k2r() | with_isolated_vertices() | joins_with_two_points() | complexes(max_m=7))
    def test_root_and_chained_subsets_group_the_faces_inside_them(self, K):
        eng = CohomologyEngine(K)
        build_every_subset(eng, None)  # increasing, so every nonempty I has a parent
        for I in range(1 << K.m):
            ref = filtered_faces(K, I)
            assert CohomologyEngine(K).subset(I).simplices == ref, (K, masks.mask_str(I))
            assert eng.subset(I).simplices == ref, (K, masks.mask_str(I))

    @settings(max_examples=40, deadline=None)
    @given(glued_pairs() | joins_with_two_points().flatmap(
        lambda K: st.tuples(st.just(K), st.sampled_from(_minimal_non_faces(K)))
    ), st.none() | st.randoms(use_true_random=False))
    def test_glued_engine_groups_the_faces_after_inherit(self, pair, rng):
        K, sigma = pair
        before = CohomologyEngine(K)
        hh_ranks(before)
        glued = CohomologyEngine(M.glue_simplex(K, sigma))
        glued.inherit(before, sigma)
        build_every_subset(glued, rng)
        for I in range(1 << K.m):
            assert glued.subset(I).simplices == filtered_faces(glued.K, I), (K, masks.mask_str(I))
