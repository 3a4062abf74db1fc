import json
import random
import re

import pytest

import machh as M
from machh import masks, theorem
from machh.cli import main
from machh.cohomology import CohomologyEngine
from machh.double import BigradedRankTable, RowComplex
from machh.errors import BadSigma, InternalInconsistency, NotApplicable, NotAVertex, VertexOutOfRange
from machh.serialization import complex_to_dict
from machh.theorem import check_theorem1, verify_theorem1

from conftest import full_glued_rows, glue_sites, permute_complex, random_complex, random_permutation
from test_census import CENSUS


def mask(verts, m):
    return masks.mask_of(verts, m)


def admissible_pair(rng, inner_m=4):
    """A complex with a fillable simplex meeting the gluing hypotheses.

    Joining any complex with two extra points and filling the edge between
    the two apexes always satisfies the hypotheses for n = 1.
    """
    inner = random_complex(rng, rng.randint(3, inner_m))
    K = M.join(inner, M.two_points())
    sigma = mask([inner.m + 1, inner.m + 2], K.m)
    perm = random_permutation(rng, K.m)
    P = permute_complex(K, perm)
    sigma_p = masks.mask_of((perm[v] for v in masks.vertices(sigma)), K.m)
    return P, sigma_p


def k2r16_triangle():
    """k2r r=16 joined with a triangle's boundary, and sigma the triangle: n = 2."""
    triangle = M.SimplicialComplex.from_facets(3, [[1, 2], [2, 3], [1, 3]])
    return M.join(M.k2r_family(16).complex, triangle), mask([11, 12, 13], 13)


def inject_tables(monkeypatch, sigma: int, before: dict, after: dict) -> list:
    """Make ``verify_theorem1`` read the table ``before`` where it ranks K and
    ``after`` where it ranks K with sigma glued. The returned list names the
    tables not read yet."""
    unread = ["before", "after"]
    tables = {"before": before, "after": after}

    def read(name, engine):
        assert (sigma in engine.K.faces) == (name == "after"), name
        unread.remove(name)  # a second read of a table fails here
        return BigradedRankTable(tables[name])

    monkeypatch.setattr(theorem, "hh_ranks", lambda engine: read("before", engine))
    monkeypatch.setattr(theorem, "_by_rows", lambda engine, ranks_of: read("after", engine))
    return unread


class TestCheckTheorem1:
    def test_square_diagonal(self, square):
        rep = check_theorem1(CohomologyEngine(square), mask([1, 3], 4))
        assert rep.applicable
        assert rep.conditions == (True, True, True, True)
        assert rep.n == 1
        assert rep.witnessing_J == mask([1, 2, 3, 4], 4)
        assert rep.predicted_delta == -2

    def test_case_two_no_witness(self, case2_complex):
        rep = check_theorem1(CohomologyEngine(case2_complex), mask([1, 2], 4))
        assert rep.applicable
        assert rep.witnessing_J is None
        assert rep.predicted_delta == 0

    def test_face_already_present(self, square):
        rep = check_theorem1(CohomologyEngine(square), mask([1, 2], 4))
        assert not rep.conditions[0]
        assert not rep.applicable

    def test_boundary_missing(self, square):
        rep = check_theorem1(CohomologyEngine(square), mask([1, 2, 3], 4))
        assert not rep.conditions[1]
        assert not rep.applicable

    def test_bad_sigma(self, square):
        with pytest.raises(BadSigma):
            check_theorem1(CohomologyEngine(square), mask([2], 4))
        with pytest.raises(BadSigma):
            check_theorem1(CohomologyEngine(square), 0)

    def test_too_few_outside_vertices(self):
        # need at least two vertices outside sigma
        pts = M.two_points()
        rep = check_theorem1(CohomologyEngine(pts), mask([1, 2], 2))
        assert not rep.applicable

    def test_prediction_is_label_invariant(self):
        rng = random.Random(7)
        for _ in range(20):
            K = random_complex(rng, rng.randint(4, 6))
            candidates = glue_sites(K)
            if not candidates:
                continue
            sigma = rng.choice(candidates)
            base = check_theorem1(CohomologyEngine(K), sigma)
            perm = random_permutation(rng, K.m)
            P = permute_complex(K, perm)
            sp = masks.mask_of((perm[v] for v in masks.vertices(sigma)), K.m)
            moved = check_theorem1(CohomologyEngine(P), sp)
            assert moved.applicable == base.applicable
            assert moved.predicted_delta == base.predicted_delta


class TestVerifyTheorem1:
    def test_square_diagonal(self, square):
        v = verify_theorem1(square, mask([1, 3], 4))
        assert v.verdict
        assert v.rank_before == 4 and v.rank_after == 2
        assert v.rows_before == {-1: 1, 0: 2, 1: 1}
        assert v.rows_after == {-1: 1, 0: 1}

    def test_case_two_rows(self, case2_complex):
        v = verify_theorem1(case2_complex, mask([1, 2], 4))
        assert v.verdict
        assert v.rank_before == v.rank_after == 2
        assert v.rows_before == {-1: 1, 0: 1}
        assert v.rows_after == {-1: 1, 1: 1}

    def test_not_applicable_raises(self, square):
        with pytest.raises(NotApplicable):
            verify_theorem1(square, mask([1, 2], 4))

    def test_random_admissible_pairs(self):
        rng = random.Random(11)
        for _ in range(10):
            K, sigma = admissible_pair(rng)
            v = verify_theorem1(K, sigma)
            assert v.verdict
            n = v.report.n
            assert v.rows_after.get(n - 1, 0) == v.rows_before.get(n - 1, 0) - 1
            if v.report.predicted_delta == -2:
                assert v.rows_after.get(n, 0) == v.rows_before.get(n, 0) - 1
            else:
                assert v.rows_after.get(n, 0) == v.rows_before.get(n, 0) + 1

    @pytest.mark.parametrize("after", [{(0, 0): 1}, {(0, 0): 1, (0, 4): 1}])
    def test_rows_the_theorem_moves_are_checked_when_neither_side_has_them(
        self, case2_complex, monkeypatch, after
    ):
        # the side before has only row -1, so its row 0 cannot lose one, whatever row 1 does
        unread = inject_tables(monkeypatch, mask([1, 2], 4), {(0, 0): 1}, after)
        v = verify_theorem1(case2_complex, mask([1, 2], 4))
        assert not unread
        assert v.report.applicable and v.report.witnessing_J is None
        assert v.rows_before == {-1: 1}
        assert v.rows_after.get(0, 0) == 0
        assert not v.verdict

    def test_unchanged_rows_fail_the_witness_case(self, square, monkeypatch):
        unread = inject_tables(monkeypatch, mask([1, 3], 4), {(0, 0): 1}, {(0, 0): 1})
        v = verify_theorem1(square, mask([1, 3], 4))
        assert not unread
        assert v.report.witnessing_J is not None
        assert not v.verdict

    def test_check_thm1_exits_5_on_rows_neither_side_has(
        self, case2_complex, monkeypatch, tmp_path, capsys
    ):
        path = tmp_path / "case2.json"
        path.write_text(json.dumps(complex_to_dict(case2_complex)))
        unread = inject_tables(monkeypatch, mask([1, 2], 4), {(0, 0): 1}, {(0, 0): 1})
        assert main(["check-thm1", str(path), "1,2"]) == 5
        assert not unread
        out, err = capsys.readouterr()
        assert json.loads(out)["verdict"] == "fail"
        assert err.startswith("VerdictMismatch:")

    def test_inherited_subsets_match_a_fresh_engine(self, square, monkeypatch):
        rng = random.Random(17)
        # member 3's own non-edge fails hypothesis 3; member 3 is member 4 glued along its one
        fam = M.k2r_family(4)
        grow = mask(fam.non_edge, fam.complex.m)
        assert M.glue_simplex(fam.complex, grow) == M.k2r_family(3).complex
        cases = [(square, mask([1, 3], 4)), (fam.complex, grow)]
        for _ in range(4):
            inner = random_complex(rng, 5)
            cases.append((M.join(inner, M.two_points()), mask([6, 7], 7)))
        inherit = CohomologyEngine.inherit
        moved = []

        def spy(self, before, sigma):
            inherit(self, before, sigma)
            moved.append(list(self._cache))

        for K, sigma in cases:
            for char in (0, 32003):
                monkeypatch.setattr(CohomologyEngine, "inherit", spy)
                inherited = verify_theorem1(K, sigma, char)
                monkeypatch.setattr(CohomologyEngine, "inherit", lambda self, before, sigma: None)
                fresh = verify_theorem1(K, sigma, char)
                assert inherited == fresh, (K, sigma, char)
                subsets = moved.pop()
                assert subsets and all(sigma & ~I for I in subsets), (K, sigma)

    @pytest.mark.parametrize("char", [0, 32003], ids=["Q", "gf:32003"])
    def test_rows_after_equal_a_full_glued_engine(self, char):
        """The rows above n carried from K, and the rows up to n ranked on the
        inherited engine, against a fresh glued engine that ranks every row."""
        rng = random.Random(29)
        cases = [(K, s) for K in CENSUS for s in glue_sites(K) if check_theorem1(CohomologyEngine(K), s).applicable]
        for r in (2, 4, 6, 8):
            built = M.k2r_family(r)
            m = built.complex.m
            perm = random_permutation(rng, m)
            cases.append((permute_complex(built.complex, perm), mask((perm[v] for v in built.non_edge), m)))
        cases += [admissible_pair(rng, 5) for _ in range(6)]
        cases.append(k2r16_triangle())
        for K, sigma in cases:
            v = verify_theorem1(K, sigma, char)
            assert v.rows_after == full_glued_rows(K, sigma, char), (K, sigma)

    def test_glued_side_ranks_no_row_above_n(self, monkeypatch):
        K, sigma = k2r16_triangle()
        ranks = RowComplex.cohomology_ranks
        ranked = []

        def spy(row):
            ranked.append((sigma in row.engine.K.faces, row.p))
            return ranks(row)

        monkeypatch.setattr(RowComplex, "cohomology_ranks", spy)
        v = verify_theorem1(K, sigma)
        assert v.verdict and v.report.n == 2
        # the glued complex is one join factor, whose rows run from -1 to 6
        assert sorted(p for glued, p in ranked if glued) == [-1, 0, 1, 2]

    def test_inherit_refuses_an_unrelated_engine(self, square, square_diag):
        with pytest.raises(InternalInconsistency):
            CohomologyEngine(square).inherit(CohomologyEngine(square_diag), mask([1, 3], 4))


@pytest.mark.parametrize("char", [0, 32003], ids=["Q", "gf:32003"])
def test_gluing_moves_only_rows_n_minus_1_and_n(char):
    """Gluing sigma with |sigma| = n + 1 onto K (sigma not in K, its boundary
    in K) leaves every row of HH* but n - 1 and n as it is, with no
    hypothesis of the theorem assumed: the one-cell argument that lets
    ``verify_theorem1`` carry the rows above n over from K."""
    rng = random.Random(31)
    complexes = CENSUS + [random_complex(rng, m) for m in (5, 6) for _ in range(24)]
    sites = 0
    for K in complexes:
        before = M.hh_ranks(CohomologyEngine(K, char)).rows()
        for sigma in glue_sites(K):
            after = full_glued_rows(K, sigma, char)
            n = sigma.bit_count() - 1
            for p in (before.keys() | after.keys()) - {n - 1, n}:
                assert before.get(p, 0) == after.get(p, 0), (K, sigma, p)
            sites += 1
    assert sites > 500


@pytest.mark.parametrize("r", [2, 4, 6, 8])
def test_k2r_recorded_non_edge_glues_to_the_previous_member(r):
    built = M.k2r_family(r)
    res = verify_theorem1(built.complex, mask(built.non_edge, built.complex.m))
    assert res.verdict
    assert (res.rank_before, res.rank_after) == (2 * r, 2 * r - 2)


def test_k2r_recorded_pair_of_an_odd_member_is_not_a_gluing_site():
    built = M.k2r_family(3)
    with pytest.raises(NotApplicable, match=r"hypotheses \[3\]"):
        verify_theorem1(built.complex, mask(built.non_edge, built.complex.m))


def test_verify_theorem1_refuses_a_cap_that_is_no_int():
    # a float cap would otherwise pass the m = 4 <= 22.5 test and run both engines
    built = M.k2r_family(2)
    with pytest.raises(ValueError, match=r"got 22\.5"):
        verify_theorem1(built.complex, mask(built.non_edge, built.complex.m), 0, 22.5)


@pytest.mark.parametrize("x", [5.0, 1.0, 2.0, True, "3", None])
def test_entry_points_refuse_a_vertex_or_sigma_that_is_no_int(square, x):
    """Each library entry point that takes a vertex or a sigma mask refuses a
    value that is no int, or is a bool, where it is named, with the error it
    uses for a bad value, before any mask arithmetic."""
    with pytest.raises(VertexOutOfRange):
        M.glue_simplex(square, x)
    with pytest.raises(BadSigma):
        check_theorem1(CohomologyEngine(square), x)
    with pytest.raises(BadSigma):
        verify_theorem1(square, x)
    named = f"^{re.escape(repr(x))} is not a vertex of the"
    with pytest.raises(NotAVertex, match=named + " first complex"):
        M.wedge(square, x, square, 1)
    with pytest.raises(NotAVertex, match=named + " second complex"):
        M.wedge(square, 1, square, x)
