"""Differential tests of the int elimination kernel against independent references.

Entries in -3..3 make pivots other than ±1 common, which is the only way to
reach the ``Fraction`` division over Q: no test complex produces one.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from machh.linalg import SparseReducer, dense_rank, kernel_basis
from machh.oracle import _matrix_rank, _null_space

from conftest import rref_kernel_basis, textbook_rref

int_matrices = st.integers(1, 8).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=8,
    )
)


def sparse(row) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def reducer_of(mat, p: int = 0, track: bool = False) -> SparseReducer:
    red = SparseReducer(p, track=track)
    for i, row in enumerate(mat):
        red.add(sparse(row), gen=i if track else None)
    return red


def rank_mod_p(mat, p: int) -> int:
    """Dense rank mod p by textbook elimination, independent of machh."""
    rows = [[x % p for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] * inv
            rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=300, deadline=None)
@given(int_matrices)
@example([[2, 1], [1, 1]])
def test_rank_over_q_matches_oracle(mat):
    assert reducer_of(mat).rank == _matrix_rank([[Fraction(x) for x in row] for row in mat])
    assert dense_rank(mat, 0) == reducer_of(mat).rank


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.lists(st.integers(-3, 3), min_size=8, max_size=8))
@example([[2, 1], [1, 1]], [1, 0, 0, 0, 0, 0, 0, 0])
def test_express_rebuilds_vector(mat, weights):
    ncols = len(mat[0])
    target = [sum(w * row[j] for w, row in zip(weights, mat)) for j in range(ncols)]
    red = reducer_of(mat, track=True)
    coeffs = red.express(sparse(target))
    assert coeffs is not None
    rebuilt = [sum(c * mat[i][j] for i, c in coeffs.items()) for j in range(ncols)]
    assert rebuilt == target


@settings(max_examples=300, deadline=None)
@given(int_matrices)
@example([[2, 1, 3], [1, 1, 1]])
def test_kernel_basis_matches_null_space(mat):
    ncols = len(mat[0])
    kernel = kernel_basis(reducer_of(mat), range(ncols))
    oracle = _null_space([[Fraction(x) for x in row] for row in mat], ncols)
    assert len(kernel) == len(oracle)
    for v in kernel:
        assert all(sum(row[j] * c for j, c in v.items()) == 0 for row in mat)


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.sampled_from([3, 32003]))
def test_rank_over_gf_matches_dense(mat, p):
    reduced = [[x % p for x in row] for row in mat]
    red = reducer_of(reduced, p)
    assert red.rank == rank_mod_p(mat, p)
    assert dense_rank(reduced, p) == red.rank
    for vec in red.rows.values():
        assert all(type(x) is int and 0 < x < p for x in vec.values())


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.sampled_from([0, 3, 32003]))
@example([[2, 1], [1, 1]], 0)
def test_add_matches_textbook_rref(mat, p):
    rows = [sparse([x % p if p else x for x in row]) for row in mat]
    columns = list(range(len(mat[0])))
    red = SparseReducer(p)
    for row in rows:
        red.add(row)
    rref = textbook_rref(rows, columns, p)
    assert red.rank == len(rref)
    assert set(red.rows) == {q for q, _ in rref}
    assert red.rref_rows() == rref
    assert kernel_basis(red, columns) == rref_kernel_basis(red, columns)
    assert kernel_basis(red, columns[::-2]) == rref_kernel_basis(red, columns[::-2])
