"""Differential tests of the int elimination kernel against independent references.

Entries in -3..3 make pivots other than ±1 common, which is the only way to
reach the ``Fraction`` division over Q: no test complex produces one.
"""

import subprocess
import sys
import textwrap
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from machh.linalg import SparseReducer, dense_rank, kernel_basis
from machh.oracle import _matrix_rank, _null_space

from conftest import greedy_rows, reference_rank, rref_kernel_basis, subprocess_env, textbook_rref

int_matrices = st.integers(1, 8).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
        min_size=1,
        max_size=8,
    )
)


def sparse(row) -> dict:
    return {j: x for j, x in enumerate(row) if x}


def reducer_of(mat, p: int = 0) -> SparseReducer:
    red = SparseReducer(p)
    for row in mat:
        red.add(sparse(row))
    return red


@settings(max_examples=300, deadline=None)
@given(int_matrices)
@example([[2, 1], [1, 1]])
def test_rank_over_q_matches_oracle(mat):
    assert reducer_of(mat).rank == _matrix_rank([[Fraction(x) for x in row] for row in mat])
    red = SparseReducer(0)
    chosen = dense_rank(mat, red)
    assert chosen == greedy_rows(mat, 0)
    assert len(chosen) == red.rank == reducer_of(mat).rank


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.lists(st.integers(-3, 3), min_size=8, max_size=8))
@example([[2, 1], [1, 1]], [1, 0, 0, 0, 0, 0, 0, 0])
def test_express_rebuilds_vector(mat, weights):
    ncols = len(mat[0])
    target = [sum(w * row[j] for w, row in zip(weights, mat)) for j in range(ncols)]
    red = reducer_of(mat)
    coeffs = red.express(sparse(target))
    assert coeffs is not None and coeffs.keys() <= red.rows.keys()
    rebuilt = [sum(c * red.rows[q].get(j, 0) for q, c in coeffs.items()) for j in range(ncols)]
    assert rebuilt == target


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.lists(st.integers(-3, 3), min_size=8, max_size=8), st.sampled_from([0, 3, 32003]))
@example([[2, 1], [1, 1]], [1, 0, 0, 0, 0, 0, 0, 0], 0)
@example([[1, 1, 0]], [0, 1, 0, 0, 0, 0, 0, 0], 3)
def test_residual_and_express_agree(mat, entries, p):
    def reduce(x):
        return x % p if p else x

    red = reducer_of([[reduce(x) for x in row] for row in mat], p)
    v = sparse([reduce(x) for x in entries[: len(mat[0])]])
    res = red.residual(v)
    assert not res.keys() & red.rows.keys()
    in_span = {k: x for k in v.keys() | res.keys() if (x := reduce(v.get(k, 0) - res.get(k, 0)))}
    assert red.express(in_span) is not None
    assert (red.express(v) is None) == bool(res)


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
    assert red.rank == reference_rank(reduced, p)
    dense = SparseReducer(p)
    chosen = dense_rank(reduced, dense)
    assert chosen == greedy_rows(reduced, p)
    assert len(chosen) == dense.rank == red.rank
    for vec in red.rows.values():
        assert all(type(x) is int and 0 < x < p for x in vec.values())


@settings(max_examples=300, deadline=None)
@given(int_matrices, st.sampled_from([0, 3, 32003]))
@example([[2, 1], [1, 1]], 0)
@example([[1, 1], [1, 2]], 3)
def test_add_matches_textbook_rref(mat, p):
    rows = [sparse([x % p if p else x for x in row]) for row in mat]
    snapshots = [dict(row) for row in rows]
    callers = {id(row) for row in rows}
    columns = list(range(len(mat[0])))
    red = SparseReducer(p)
    for row in rows:
        pivots = set(red.rows)
        red.add(row)
        lead = min(row, default=None)
        if lead is not None and lead not in pivots:
            if row[lead] == 1:  # stored as it is: no copy
                assert red.rows[lead] is row
        else:  # reduced: the stored row is the reducer's own
            assert not any(id(red.rows[q]) in callers for q in red.rows.keys() - pivots)
    assert rows == snapshots  # add never mutates its argument
    rref = textbook_rref(rows, columns, p)
    assert red.rank == len(rref)
    assert set(red.rows) == {q for q, _ in rref}
    assert red.rref_rows() == rref
    assert kernel_basis(red, columns) == rref_kernel_basis(red, columns)
    assert kernel_basis(red, columns[::-2]) == rref_kernel_basis(red, columns[::-2])


def test_fraction_branch_imports_fractions_itself():
    # the tests above import fractions first, so only a fresh interpreter (-S:
    # no site .pth to preload it) sees _normalize make the import
    code = textwrap.dedent("""
        import sys
        from machh.linalg import SparseReducer
        assert "fractions" not in sys.modules
        red = SparseReducer(0)
        for row in [[2, 1], [1, 1]]:
            red.add(dict(enumerate(row)))
        from fractions import Fraction
        exact = all(type(x) is Fraction for row in red.rows.values() for x in row.values())
        print(red.rank, exact, red.rows == {0: {0: 1, 1: Fraction(1, 2)}, 1: {1: 1}})
    """)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=subprocess_env())
    assert (proc.returncode, proc.stdout) == (0, b"2 True True\n"), (proc.stdout, proc.stderr)
