"""Exact sparse/dense Gaussian elimination used by the cohomology engine."""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field


def addmul(dst: dict, src: dict, c) -> None:
    """dst += c * src in place, dropping exact zeros."""
    for k, v in src.items():
        cur = dst.get(k)
        new = c * v if cur is None else cur + c * v
        if new:
            dst[k] = new
        else:
            dst.pop(k, None)


class SparseReducer:
    """Incremental row echelon form over sparse vectors with a fixed column order.

    Rows are normalized to a unit pivot. With ``track=True`` every stored row
    also carries its expression in terms of the generators passed to ``add``,
    which lets ``express`` write any vector of the span in generator coordinates.
    """

    def __init__(self, order: dict, field: Field, track: bool = False):
        self.order = order
        self.field = field
        self.track = track
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict, expr: dict | None):
        """Eliminate every pivot-column entry of vec, in increasing column order.

        Elimination with a pivot only touches columns at or past it, so a single
        left-to-right sweep leaves vec with no support on pivot columns; the
        residual is then the canonical representative modulo the span.
        """
        order = self.order
        rows = self.rows
        processed = -1
        while True:
            piv = None
            best = -1
            for k in vec:
                pk = order[k]
                if pk > processed and k in rows and (piv is None or pk < best):
                    piv = k
                    best = pk
            if piv is None:
                return vec, expr
            row = rows[piv]
            c = -vec[piv]
            addmul(vec, row[0], c)
            if expr is not None and row[1] is not None:
                addmul(expr, row[1], c)
            processed = best

    def add(self, v: dict, gen=None) -> bool:
        """Insert a vector; returns True iff it enlarged the span."""
        expr = None
        if self.track:
            expr = {} if gen is None else {gen: self.field.one}
        vec, expr = self._reduce(dict(v), expr)
        if not vec:
            return False
        piv = min(vec, key=self.order.__getitem__)
        d = vec[piv]
        vec = {k: val / d for k, val in vec.items()}
        if expr is not None:
            expr = {k: val / d for k, val in expr.items()}
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
        return {k: -c for k, c in expr.items()}

    def rref_rows(self) -> list:
        """Fully reduced rows as (pivot, vector), sorted by pivot position."""
        items = sorted(self.rows.items(), key=lambda kv: self.order[kv[0]])
        vecs = [dict(v) for _, (v, _) in items]
        for idx in range(len(items) - 1, 0, -1):
            piv = items[idx][0]
            for j in range(idx):
                c = vecs[j].get(piv)
                if c:
                    addmul(vecs[j], vecs[idx], -c)
        return [(items[i][0], vecs[i]) for i in range(len(items))]


def kernel_basis(reducer: SparseReducer, columns: Sequence) -> list[dict]:
    """Kernel of the matrix accumulated in ``reducer``; columns in their fixed order.

    One basis vector per free column, emitted in column order (deterministic).
    """
    rref = reducer.rref_rows()
    pivots = {piv for piv, _ in rref}
    basis = []
    for f in columns:
        if f in pivots:
            continue
        v = {f: reducer.field.one}
        for piv, row in rref:
            c = row.get(f)
            if c:
                v[piv] = -c
        basis.append(v)
    return basis


def dense_rank(mat: Iterable[Sequence]) -> int:
    """Rank of a dense matrix by plain Gaussian elimination."""
    rows = [list(r) for r in mat]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        inv = prow[col]
        # the row matrices are mostly zero: update only where the pivot row is not
        support = [j for j in range(col, ncols) if prow[j]]
        for r in range(rank + 1, len(rows)):
            c = rows[r][col]
            if c:
                factor = c / inv
                row = rows[r]
                for j in support:
                    row[j] = row[j] - factor * prow[j]
        rank += 1
        col += 1
    return rank
