"""Exact sparse Gaussian elimination on plain ints, over Q (p = 0) or GF(p).

Vectors are dicts from column keys to nonzero scalars. Over GF(p) every
scalar is an int in ``[0, p)``. Over Q scalars are ints until a pivot other
than ±1 is divided out (``_normalize``), which is the only place a
``Fraction`` is made. For a nonzero scalar ``c`` of either field, ``p - c``
is ``-c``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def addmul(dst: dict, src: dict, c, p: int) -> None:
    """dst += c * src in place (mod p over GF(p)), dropping exact zeros; c != 0."""
    get = dst.get
    for k, v in src.items():
        new = get(k, 0) + c * v
        if p:
            new %= p
        if new:
            dst[k] = new
        else:
            del dst[k]


def _normalize(vec: dict, d, p: int) -> dict:
    """vec scaled so that its entry d becomes 1.

    Over Q a pivot other than ±1 divides through ``Fraction``. Coboundary
    eliminations have not been seen to meet one; ``tests/test_linalg.py`` does.
    """
    if d == 1:
        return vec
    if d == p - 1:  # d is -1 in either field
        return {k: p - v for k, v in vec.items()}
    if p:
        inv = pow(d, -1, p)
        return {k: v * inv % p for k, v in vec.items()}
    return {k: Fraction(v) / d for k, v in vec.items()}


class SparseReducer:
    """Incremental row echelon form over sparse vectors with a fixed column order.

    ``order`` maps each column key to its position; ``p`` is the field's
    characteristic. Rows are normalized to a unit pivot. With ``track=True``
    every stored row also carries its expression in terms of the generators
    passed to ``add``, which lets ``express`` write any vector of the span in
    generator coordinates.
    """

    def __init__(self, order, p: int, track: bool = False):
        self.order = order
        self.p = p
        self.track = track
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, expr: dict | None):
        """Eliminate every pivot-column entry of vec, in increasing column order.

        A stored row has no support before its pivot, so eliminating a pivot
        never brings back an earlier one: a single left-to-right sweep leaves
        vec with no support on pivot columns, and the residual is then the
        canonical representative modulo the span.
        """
        order = self.order
        rows = self.rows
        p = self.p
        while True:
            best = None
            for k in vec:
                if k in rows:
                    pk = order[k]
                    if best is None or pk < best:
                        piv, best = k, pk
            if best is None:
                return vec, expr
            row = rows[piv]
            c = -vec[piv]
            addmul(vec, row[0], c, p)
            if expr is not None and row[1] is not None:
                addmul(expr, row[1], c, p)

    def add(self, v: dict, gen=None) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        expr = None
        if self.track:
            expr = {} if gen is None else {gen: 1}
        vec, expr = self._reduce(dict(v), expr)
        if not vec:
            return False
        piv = min(vec, key=self.order.__getitem__)
        d = vec[piv]
        vec = _normalize(vec, d, self.p)
        if expr is not None:
            expr = _normalize(expr, d, self.p)
        self.rows[piv] = (vec, expr)
        return True

    def residual(self, v: dict) -> dict:
        """v reduced modulo the current span (canonical)."""
        vec, _ = self._reduce(dict(v), None)
        return vec

    def express(self, v: dict) -> dict | None:
        """Coordinates of v in the tracked generators, or None if v is outside."""
        vec, expr = self._reduce(dict(v), {})
        if vec:
            return None
        p = self.p
        return {k: p - c for k, c in expr.items()}

    def rref_rows(self) -> list:
        """Fully reduced rows as (pivot, vector), sorted by pivot position."""
        items = sorted(self.rows.items(), key=lambda kv: self.order[kv[0]])
        vecs = [dict(v) for _, (v, _) in items]
        for idx in range(len(items) - 1, 0, -1):
            piv = items[idx][0]
            for j in range(idx):
                c = vecs[j].get(piv)
                if c:
                    addmul(vecs[j], vecs[idx], -c, self.p)
        return [(items[i][0], vecs[i]) for i in range(len(items))]


def kernel_basis(reducer: SparseReducer, columns: Sequence) -> list[dict]:
    """Kernel of the matrix accumulated in ``reducer``; columns in their fixed order.

    One basis vector per free column, emitted in column order (deterministic).
    """
    rref = reducer.rref_rows()
    pivots = {piv for piv, _ in rref}
    p = reducer.p
    basis = []
    for f in columns:
        if f in pivots:
            continue
        v = {f: 1}
        for piv, row in rref:
            c = row.get(f)
            if c:
                v[piv] = p - c
        basis.append(v)
    return basis


def dense_rank(mat: Sequence[Sequence], p: int) -> int:
    """Rank of a dense matrix: its rows' nonzero entries go through a SparseReducer."""
    red = SparseReducer(range(len(mat[0]) if mat else 0), p)
    for row in mat:
        red.add({j: x for j, x in enumerate(row) if x})
    return red.rank
