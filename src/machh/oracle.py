"""Deliberately naive ground-truth computations for small inputs.

Everything here is dense, uncached, and re-derived from scratch: simplices are
vertex tuples, matrices are lists of lists of Fractions, and each linear solve
runs a fresh textbook elimination; the restricted cocycles bound for one
target subset are solved together, in one elimination of
[coboundaries | representatives | vectors]. The cohomology representatives of one
(I, p) are the kernel vectors that are pivot columns of one echelon form of
[coboundaries | kernel vectors]. None of the engine's sparse machinery, sign
helpers, or basis bookkeeping is reused; agreement between the two paths is
what the equivalence test suite certifies.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .complexes import SimplicialComplex
from .errors import ResourceLimit
from .masks import vertices as _mask_vertices

ORACLE_BETTI_VERTEX_CAP = 12
ORACLE_HH_M_CAP = 8


def _face_tuples(K: SimplicialComplex) -> list[tuple]:
    return sorted(_mask_vertices(f) for f in K.faces)


def _cells_by_degree(faces: list[tuple]) -> dict:
    table: dict[int, list[tuple]] = {}
    for f in faces:
        table.setdefault(len(f) - 1, []).append(f)
    for cells in table.values():
        cells.sort()
    return table


def _coboundary_matrix(table: dict, p: int) -> list[list[Fraction]]:
    """Matrix of delta_p, rows over (p+1)-cells, columns over p-cells."""
    lo = table.get(p, [])
    hi = table.get(p + 1, [])
    col = {cell: idx for idx, cell in enumerate(lo)}
    mat = [[Fraction(0)] * len(lo) for _ in hi]
    for r, cell in enumerate(hi):
        for pos in range(len(cell)):
            face = cell[:pos] + cell[pos + 1 :]
            c = col.get(face)
            if c is not None:
                mat[r][c] = Fraction((-1) ** pos)
    return mat


def _echelon(mat: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Row-reduce a copy; returns (reduced rows, pivot column list)."""
    rows = [row[:] for row in mat]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _matrix_rank(mat: list[list[Fraction]]) -> int:
    if not mat:
        return 0
    return len(_echelon(mat)[1])


def _null_space(mat: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    if not mat:
        return [[Fraction(i == j) for j in range(ncols)] for i in range(ncols)]
    rows, pivots = _echelon(mat)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[free]
        basis.append(v)
    return basis


def _solve_in_span(
    span: list[list[Fraction]], targets: list[list[Fraction]]
) -> list[list[Fraction] | None]:
    """Per target, coefficients x with sum(x_i * span_i) = target, or None.

    One fresh elimination of [span | targets]. The span's columns come first,
    so its pivots and the rows that carry them do not depend on the targets;
    a target is outside the span exactly when it has an entry in a row whose
    pivot is not a span column.
    """
    if not targets:
        return []
    n = len(span)
    cells = range(len(targets[0]))
    aug = [[col[r] for col in span] + [t[r] for t in targets] for r in cells]
    rows, pivots = _echelon(aug)
    out = []
    for k in range(n, n + len(targets)):
        if any(row[k] for row, pc in zip(rows, pivots) if pc >= n):
            out.append(None)
            continue
        coeffs = [Fraction(0)] * n
        for row, pc in zip(rows, pivots):
            if pc < n:
                coeffs[pc] = row[k]
        out.append(coeffs)
    return out


def oracle_reduced_betti(L: SimplicialComplex, p: int) -> int:
    """Rank of H̃^p(L) by dense augmented coboundary matrices."""
    if L.m > ORACLE_BETTI_VERTEX_CAP:
        raise ResourceLimit(f"oracle Betti cap is {ORACLE_BETTI_VERTEX_CAP} vertices")
    table = _cells_by_degree(_face_tuples(L))
    if p not in table:
        return 0
    up = _matrix_rank(_coboundary_matrix(table, p))
    down = _matrix_rank(_coboundary_matrix(table, p - 1))
    return len(table[p]) - up - down


class _SubsetQuotient:
    """Chosen cocycle representatives modulo coboundaries for one (I, p)."""

    def __init__(self, faces: list[tuple], subset: tuple, p: int):
        local = [f for f in faces if all(v in subset for v in f)]
        table = _cells_by_degree(local)
        self.cells = table.get(p, [])
        n = len(self.cells)
        cobs_src = table.get(p - 1, [])
        delta_down = _coboundary_matrix(table, p - 1)
        self.boundaries = [
            [delta_down[r][c] for r in range(n)] for c in range(len(cobs_src))
        ]
        # a column is a pivot exactly when it is outside the span of the ones before it
        columns = self.boundaries + _null_space(_coboundary_matrix(table, p), n)
        _, pivots = _echelon([[col[r] for col in columns] for r in range(n)])
        self.reps = [columns[c] for c in pivots if c >= len(self.boundaries)]

    @property
    def rank(self) -> int:
        return len(self.reps)

    def coordinates(self, vectors: list[list[Fraction]]) -> list[list[Fraction]]:
        """Coordinates over ``reps`` of each cocycle, modulo the boundaries."""
        out = []
        for coeffs in _solve_in_span(self.boundaries + self.reps, vectors):
            assert coeffs is not None, "restricted cocycle escaped the cocycle space"
            out.append(coeffs[len(self.boundaries) :])
        return out


def oracle_hh_rows(K: SimplicialComplex) -> dict:
    """Per-row double cohomology totals by dense enumeration of all subsets."""
    if K.m > ORACLE_HH_M_CAP:
        raise ResourceLimit(f"oracle double cohomology cap is m <= {ORACLE_HH_M_CAP}")
    faces = _face_tuples(K)
    ground = tuple(range(1, K.m + 1))
    max_p = max(len(f) for f in faces) - 1
    rows: dict[int, int] = {}
    for p in range(-1, max_p + 1):
        quotients: dict[tuple, _SubsetQuotient] = {}
        for size in range(K.m + 1):
            for subset in combinations(ground, size):
                q = _SubsetQuotient(faces, subset, p)
                if q.rank:
                    quotients[subset] = q
        by_size: dict[int, list[tuple]] = {}
        for subset in quotients:
            by_size.setdefault(len(subset), []).append(subset)
        for subsets in by_size.values():
            subsets.sort()
        diffs: dict[int, list[list[Fraction]]] = {}
        for size, subsets in by_size.items():
            targets = by_size.get(size - 1, [])
            if not targets:
                continue
            row_at = {}
            nrows = 0
            for t in targets:
                row_at[t] = nrows
                nrows += quotients[t].rank
            ncols = sum(quotients[s].rank for s in subsets)
            # every restricted representative bound for one target, solved in one elimination
            incoming: dict[tuple, list] = {}
            col = 0
            for s in subsets:
                q = quotients[s]
                for pos, i in enumerate(s):
                    t = s[:pos] + s[pos + 1 :]
                    qt = quotients.get(t)
                    if qt is None:
                        continue
                    sign = Fraction((-1) ** (p + 1) * (-1) ** pos)
                    keep = [idx for idx, cell in enumerate(q.cells) if i not in cell]
                    assert [q.cells[idx] for idx in keep] == qt.cells
                    for ci, rep in enumerate(q.reps):
                        restricted = [rep[idx] for idx in keep]
                        incoming.setdefault(t, []).append((col + ci, sign, restricted))
                col += q.rank
            mat = [[Fraction(0)] * ncols for _ in range(nrows)]
            for t, entries in incoming.items():
                solved = quotients[t].coordinates([vec for _, _, vec in entries])
                for (c, sign, _), coords in zip(entries, solved):
                    for ri, x in enumerate(coords):
                        if x:
                            mat[row_at[t] + ri][c] = sign * x
            diffs[size] = mat
        total = 0
        for size, subsets in by_size.items():
            dim = sum(quotients[s].rank for s in subsets)
            out_rank = _matrix_rank(diffs.get(size, []))
            in_rank = _matrix_rank(diffs.get(size + 1, []))
            total += dim - out_rank - in_rank
        if total:
            rows[p] = total
    return rows
