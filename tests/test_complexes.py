import dataclasses
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import machh as M
from machh import masks
from machh.errors import (
    BoundaryMissing,
    FaceAlreadyPresent,
    GhostVertex,
    NotAVertex,
    VertexOutOfRange,
)
from machh.oracle import oracle_reduced_betti

from conftest import (
    complexes,
    full_subcomplex,
    is_valid_complex,
    permute_complex,
    random_complex,
    subprocess_env,
)


def mask(verts, m):
    return masks.mask_of(verts, m)


def submasks(mask: int):
    """All subsets of mask, including mask itself and 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


class TestFromFacets:
    def test_square(self, square):
        assert square.m == 4
        assert len(square.faces) == 9  # empty face, 4 vertices, 4 edges
        assert mask([1, 2], 4) in square.faces
        assert mask([1, 3], 4) not in square.faces

    def test_point(self):
        pt = M.SimplicialComplex.from_facets(1, [[1]])
        assert pt.faces == frozenset({0, 1})

    def test_ghost_vertex(self):
        with pytest.raises(GhostVertex) as exc:
            M.SimplicialComplex.from_facets(3, [[1, 2]])
        assert exc.value.vertex == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            M.SimplicialComplex.from_facets(2, [[0, 1], [2]])

    @pytest.mark.parametrize("m", [3.0, True, "3", None])
    def test_rejects_a_ground_set_size_that_is_no_int(self, m):
        with pytest.raises(ValueError):
            M.SimplicialComplex.from_facets(m, [[1]])

    def test_facets_roundtrip(self, square):
        rebuilt = M.SimplicialComplex.from_facets(
            4, [list(masks.vertices(f)) for f in square.facets]
        )
        assert rebuilt == square


@st.composite
def facet_lists(draw):
    """Every singleton plus random, possibly repeated or nested, facets."""
    m = draw(st.integers(1, 10))
    vertex_sets = st.sets(st.integers(1, m), min_size=1, max_size=m)
    extra = draw(st.lists(vertex_sets, max_size=12))
    return m, [[v] for v in range(1, m + 1)] + [sorted(f) for f in extra]


class TestValue:
    @pytest.mark.parametrize("field", ["m", "faces"])
    def test_fields_are_frozen(self, square, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(square, field, getattr(square, field))

    def test_facet_order_builds_one_value(self, square):
        shuffled = M.SimplicialComplex.from_facets(4, [[1, 4], [3, 4], [1, 2], [2, 3]])
        assert shuffled == square and hash(shuffled) == hash(square)
        assert len({square: 0, shuffled: 1}) == 1

    def test_relabelled_complex_is_another_value(self):
        path = M.SimplicialComplex.from_facets(3, [[1, 2], [2, 3]])
        assert permute_complex(path, {1: 2, 2: 1, 3: 3}) != path


class TestClosure:
    @settings(max_examples=200, deadline=None)
    @given(facet_lists())
    def test_closure_equals_every_facets_submasks(self, drawn):
        m, facets = drawn
        expected = {0}
        for facet in facets:
            expected.update(submasks(mask(facet, m)))
        assert M.SimplicialComplex.from_facets(m, facets).faces == frozenset(expected)


class TestFullSubcomplex:
    def test_path(self, square):
        path = full_subcomplex(square, mask([1, 2, 3], 4))
        assert path.m == 3
        assert mask([1, 2], 3) in path.faces and mask([2, 3], 3) in path.faces
        assert mask([1, 3], 3) not in path.faces

    def test_empty_subset(self, square):
        empty = full_subcomplex(square, 0)
        assert empty.m == 0 and empty.faces == frozenset({0})

    def test_non_edge(self, square):
        pts = full_subcomplex(square, mask([1, 3], 4))
        assert pts == M.two_points()


class TestJoin:
    def test_two_spheres_give_square(self):
        j = M.join(M.two_points(), M.two_points())
        # the 4-cycle 1-3-2-4: edges pair each old vertex with each shifted one
        edges = {f for f in j.faces if f.bit_count() == 2}
        assert edges == {mask(e, 4) for e in ([1, 3], [1, 4], [2, 3], [2, 4])}
        assert not any(f.bit_count() > 2 for f in j.faces)

    def test_cone_is_contractible(self, square):
        pt = M.SimplicialComplex.from_facets(1, [[1]])
        cone = M.join(pt, square)
        for p in range(-1, cone.m):
            assert oracle_reduced_betti(cone, p) == 0

    def test_join_with_two_points_size(self, square):
        j = M.join(square, M.two_points())
        assert j.m == 6
        assert mask([5, 6], 6) not in j.faces

    @given(complexes(max_m=4), complexes(max_m=3), complexes(max_m=3))
    @settings(max_examples=40, deadline=None)
    def test_associative(self, a, b, c):
        assert M.join(M.join(a, b), c) == M.join(a, M.join(b, c))


class TestWedge:
    def test_two_edges_make_path(self):
        edge = M.SimplicialComplex.from_facets(2, [[1, 2]])
        path = M.wedge(edge, 2, edge, 1)
        assert path.m == 3
        assert {f for f in path.faces if f.bit_count() == 2} == {
            mask([1, 2], 3),
            mask([2, 3], 3),
        }

    def test_wedge_with_point_is_identity(self, square):
        pt = M.SimplicialComplex.from_facets(1, [[1]])
        assert M.wedge(square, 3, pt, 1) == square

    def test_not_a_vertex(self, square):
        with pytest.raises(NotAVertex):
            M.wedge(square, 5, square, 1)

    def test_two_squares(self, square):
        w = M.wedge(square, 1, square, 1)
        assert w.m == 7


class TestGlueSimplex:
    def test_diagonal(self, square, square_diag):
        assert square_diag.faces == square.faces | {mask([1, 3], 4)}

    def test_already_present(self, square):
        with pytest.raises(FaceAlreadyPresent):
            M.glue_simplex(square, mask([1, 2], 4))

    def test_boundary_missing(self, square):
        with pytest.raises(BoundaryMissing):
            M.glue_simplex(square, mask([1, 2, 3], 4))

    def test_negative_sigma_is_refused_at_once(self):
        # in a child with capped address space and time, so a vertex loop
        # that never ends fails fast instead of taking the machine's memory
        code = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
            import machh as M
            from machh.errors import VertexOutOfRange
            print(M.masks.mask_str(-2))
            try:
                M.glue_simplex(M.square(), -1)
            except VertexOutOfRange as exc:
                print(exc)
            """
        )
        run = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=30,
            env=subprocess_env(),
        )
        assert (run.returncode, run.stdout) == (0, "{2}\nsigma -1 is not a vertex mask\n"), run.stderr

    def test_fill_edge_between_points(self):
        filled = M.glue_simplex(M.two_points(), mask([1, 2], 2))
        assert filled.faces == frozenset({0, 1, 2, 3})
        assert M.hh_ranks(M.CohomologyEngine(filled)).total() == 1  # now a simplex


class TestK2rFamily:
    def test_base_cases(self, square, square_diag):
        assert M.k2r_family(2) == M.K2rComplex(square, (1, 3))
        got = M.k2r_family(1)
        assert got.complex == square_diag and got.non_edge == (2, 4)

    def test_r3_shape(self, square):
        got = M.k2r_family(3)
        expected = M.glue_simplex(M.join(square, M.two_points()), mask([5, 6], 6))
        assert got.complex == expected

    @pytest.mark.parametrize("r", range(1, 17))
    def test_non_edge_tracked(self, r):
        got = M.k2r_family(r)
        x, y = got.non_edge
        edge = masks.bit(x) | masks.bit(y)
        assert edge not in got.complex.faces

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            M.k2r_family(0)

    @pytest.mark.parametrize("r", [2.5, 3.0, True, "3", None])
    def test_rejects_an_index_that_is_no_int(self, r):
        # 2.5 once built a 6-vertex member of total rank 2, and True member 1
        from machh.complexes import k2r_vertex_count

        with pytest.raises(ValueError):
            M.k2r_family(r)
        with pytest.raises(ValueError):
            k2r_vertex_count(r)

    def test_vertex_count_builds_nothing(self):
        from machh.complexes import k2r_vertex_count

        counts = [k2r_vertex_count(r) for r in range(1, 34)]
        assert counts == [M.k2r_family(r).complex.m for r in range(1, 34)]
        assert counts == sorted(counts)  # non-decreasing, so r_max bounds a ladder
        assert k2r_vertex_count(2**5000) == 4 + 2 * 4999  # no recursion on a huge r


class TestClosureInvariants:
    @given(complexes())
    @settings(max_examples=60, deadline=None)
    def test_random_complexes_valid(self, K):
        assert is_valid_complex(K)

    @given(complexes(max_m=4), complexes(max_m=4))
    @settings(max_examples=40, deadline=None)
    def test_join_and_wedge_valid(self, a, b):
        assert is_valid_complex(M.join(a, b))
        assert is_valid_complex(M.wedge(a, 1, b, 1))

    def test_restriction_after_glue(self):
        # (λK)_J = K_J when sigma ⊄ J and K_J plus the glued face when sigma ⊆ J
        rng = random.Random(42)
        hits = 0
        while hits < 50:
            K = random_complex(rng, rng.randint(3, 6))
            candidates = [
                s
                for s in range(1 << K.m)
                if s.bit_count() >= 2
                and s not in K.faces
                and all(s & ~masks.bit(v) in K.faces for v in masks.vertices(s))
            ]
            if not candidates:
                continue
            sigma = rng.choice(candidates)
            glued = M.glue_simplex(K, sigma)
            for J in range(1 << K.m):
                left = full_subcomplex(glued, J)
                base = full_subcomplex(K, J)
                if sigma & ~J == 0:
                    verts = masks.vertices(J)
                    relabel = {v: i + 1 for i, v in enumerate(verts)}
                    moved = masks.mask_of(
                        (relabel[v] for v in masks.vertices(sigma)), len(verts)
                    )
                    assert left.faces == base.faces | {moved}
                else:
                    assert left == base
            hits += 1
