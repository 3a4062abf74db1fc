"""Exact sparse Gaussian elimination on plain ints, over Q (p = 0) or GF(p).

Vectors are dicts from column keys to nonzero scalars; an echelon row is
stored as its vector. Over GF(p) every scalar is an int in ``[0, p)``. Over
Q scalars are ints until a pivot other than ±1 is divided out
(``_normalize``), which is the only place a ``Fraction`` is made and the only
place ``fractions`` is imported, so a process that never meets such a pivot
does not load it. For a nonzero scalar ``c`` of either field, ``p - c`` is
``-c``.
"""

from __future__ import annotations

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

    Over Q a pivot other than ±1 divides through ``Fraction``, which this
    branch alone imports. Coboundary eliminations have not been seen to meet
    such a pivot; ``tests/test_linalg.py`` does.
    """
    if d == 1:
        return vec
    if d == p - 1:  # d is -1 in either field
        return {k: p - v for k, v in vec.items()}
    if p:
        inv = pow(d, -1, p)
        return {k: v * inv % p for k, v in vec.items()}
    from fractions import Fraction

    return {k: Fraction(v) / d for k, v in vec.items()}


class SparseReducer:
    """Incremental row echelon form over sparse vectors, in the keys' own ``<`` order.

    ``p`` is the field's characteristic. ``rows`` maps each pivot to its
    stored row, a vector dict normalized to a unit pivot, its smallest key.

    A stored row is never mutated: no caller mutates a vector it has added
    (``add``), and every reader either only reads rows or copies them first
    (``rref_rows``). So a reducer may start from a copy of another's ``rows``
    dict and share the rows themselves, as a subset's coboundary reducers
    share their parent's.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int):
        self.p = p
        self.rows: dict = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict) -> dict:
        """Eliminate vec's pivot-column entries in place, in increasing column
        order, and return the multiple of each stored row taken out, by pivot.

        A stored row has no support before its pivot, so eliminating a pivot
        never brings back an earlier one: a single left-to-right sweep leaves
        vec with no support on pivot columns, and the residual is then the
        canonical representative modulo the span.
        """
        rows = self.rows
        p = self.p
        taken = {}
        while True:
            piv = min((k for k in vec if k in rows), default=None)
            if piv is None:
                return taken
            c = taken[piv] = vec[piv]
            addmul(vec, rows[piv], -c, p)

    def add(self, v: dict) -> bool:
        """Insert a vector; returns True iff it enlarged the span.

        Only the leading entry is eliminated, while it lies on a pivot column:
        the new row needs no more than a pivot outside the current ones. The
        pivot set, the span and everything derived from them (``rref_rows``,
        ``residual``, ``express``) do not depend on how far a stored row is
        reduced.

        ``v`` itself is never mutated, and it is stored as it is when its lead
        is a free column with entry 1, so a caller must not mutate a vector
        after adding it.
        """
        rows = self.rows
        p = self.p
        vec = v
        while vec:
            piv = min(vec)
            row = rows.get(piv)
            if row is None:
                rows[piv] = _normalize(vec, vec[piv], p)
                return True
            if vec is v:
                vec = dict(v)
            addmul(vec, row, -vec[piv], p)
        return False

    # no request calls residual; it stays while bench/tracing.py hooks it by name
    def residual(self, v: dict) -> dict:
        """v reduced modulo the current span (canonical)."""
        vec = dict(v)
        self._reduce(vec)
        return vec

    # no request calls express; it stays while bench/tracing.py hooks it by name
    def express(self, v: dict) -> dict | None:
        """Coordinates of v over the stored rows, by pivot, or None if v is outside their span."""
        vec = dict(v)
        taken = self._reduce(vec)
        return None if vec else taken

    def rref_rows(self) -> list:
        """Fully reduced rows as (pivot, vector), sorted by pivot.

        Rows are reduced from the last pivot down: each subtracts the rows
        already reduced at the pivot columns it holds. Those rows are zero at
        one another's pivots, so one pass per row suffices.
        """
        p = self.p
        done: dict = {}
        for piv in sorted(self.rows, reverse=True):
            vec = dict(self.rows[piv])
            for q in [q for q in vec if q in done]:
                addmul(vec, done[q], -vec[q], p)
            done[piv] = vec
        return sorted(done.items())


def kernel_basis(reducer: SparseReducer, columns: Sequence) -> list[dict]:
    """Kernel vectors of the matrix accumulated in ``reducer``, one per free column.

    For each free (non-pivot) column f among ``columns``, in their order, the
    unique kernel vector that is 1 at f and 0 at every other free column. It
    is found by back-substitution on the echelon rows: the entry at a pivot q
    is fixed by the row of q and the entries at later columns, in the keys'
    own ``<`` order, and every pivot after f gets 0.
    """
    rows = reducer.rows
    p = reducer.p
    pivots = sorted(rows, reverse=True)
    basis = []
    for f in columns:
        if f in rows:
            continue
        v = {f: 1}
        for q in pivots:
            if q > f:
                continue
            x = 0
            for s, c in rows[q].items():
                y = v.get(s)
                if y is not None:
                    x += c * y
            x = -x % p if p else -x
            if x:
                v[q] = x
        basis.append(v)
    return basis


def dense_rank(mat: Sequence[Sequence], p: int, pivots: set | None = None) -> int:
    """Rank of a dense matrix: its rows' nonzero entries go through a SparseReducer.

    The column indices of the echelon pivots are added to ``pivots`` if given.
    """
    red = SparseReducer(p)
    for row in mat:
        red.add({j: x for j, x in enumerate(row) if x})
    if pivots is not None:
        pivots.update(red.rows)
    return red.rank
