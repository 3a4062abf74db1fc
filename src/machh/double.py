"""The Hochster bigraded decomposition and double cohomology ranks.

Bidegree bookkeeping: the summand H̃^p(K_I) with |I| = l sits in bidegree
(-k, 2l) with k = l - p - 1, so the "row" of cohomological degree p collects
all subsets graded by cardinality.

Join factorisation. If every minimal non-face of K lies in V or in W, then
K = K_V * K_W and Z_K = Z_{K_V} x Z_{K_W}. Over a field, H*(Z_K) is then the
tensor product of the factors' groups (Künneth), and so is HH*(Z_K)
(Limonchenko-Panov-Song-Stanley 2023), with bidegrees adding. So ``h_ranks``
and ``hh_ranks`` convolve one table per factor V of ``engine.factors``; the
cone points form a simplex, whose table is the unit {(0, 0): 1}. A factor's
table is built from K's own subsets I ⊆ V with their ambient labels: K_I is
the factor's full subcomplex on I, and epsilon(i, I) counts the elements of I
below i, the same count as after relabelling V onto [|V|] in order. So the
row complex on the subsets of V is exactly the factor's, and no subset that
meets two factors is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import masks
from .cohomology import CohomologyEngine
from .fields import Field
from .linalg import dense_rank

__all__ = [
    "BigradedRankTable",
    "RowComplex",
    "h_ranks",
    "assemble_row",
    "hh_ranks",
]


@dataclass(frozen=True)
class BigradedRankTable:
    """Map from bidegree (-k, 2l) to a positive rank; absent entries are zero."""

    entries: dict

    def total(self) -> int:
        return sum(self.entries.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** (-neg_k) * r for (neg_k, _), r in self.entries.items())

    def rows(self) -> dict:
        """Per-row totals: row p = l - k - 1."""
        out: dict[int, int] = {}
        for (neg_k, two_l), r in self.entries.items():
            p = two_l // 2 + neg_k - 1
            out[p] = out.get(p, 0) + r
        return dict(sorted(out.items()))

    def convolve(self, other: "BigradedRankTable") -> "BigradedRankTable":
        """Bidegree-additive convolution (the join/tensor rule)."""
        entries: dict = {}
        for a, ra in self.entries.items():
            for b, rb in other.entries.items():
                key = (a[0] + b[0], a[1] + b[1])
                entries[key] = entries.get(key, 0) + ra * rb
        return BigradedRankTable(entries)


@dataclass
class RowComplex:
    """One row (fixed degree p) of the cochain complex on H*(Z_K).

    ``groups[l]`` lists (subset mask, rank) with |I| = l and positive rank;
    ``matrices[l]`` is the block differential from cardinality l to l - 1,
    with entries in ``field``.
    """

    p: int
    groups: dict
    dims: dict
    matrices: dict
    field: Field

    def differential_rank(self, l: int) -> int:
        mat = self.matrices.get(l)
        return dense_rank(mat, self.field.p) if mat else 0

    def cohomology_ranks(self) -> dict:
        ranks = {l: self.differential_rank(l) for l in self.matrices}
        out = {}
        for l, dim in self.dims.items():
            r = dim - ranks.get(l, 0) - ranks.get(l + 1, 0)
            if r:
                out[l] = r
        return out


def h_ranks(engine: CohomologyEngine) -> BigradedRankTable:
    """Bigraded ranks of H*(Z_K) by summing H̃^{l-k-1}(K_I) over |I| = l,
    for the engine's complex K over its field, one join factor at a time.

    The engine keeps its subsets for later calls, such as ``hh_ranks``.
    """
    table = BigradedRankTable({(0, 0): 1})
    for V in engine.factors:
        entries: dict = {}
        for I, bettis in engine.betti_table(V).items():
            l = masks.card(I)
            for p, b in bettis.items():
                key = (-(l - p - 1), 2 * l)
                entries[key] = entries.get(key, 0) + b
        table = table.convolve(BigradedRankTable(entries))
    return table


def assemble_row(engine: CohomologyEngine, p: int, V: int | None = None) -> RowComplex:
    """Groups and block differentials of the degree-p row of the engine's
    complex on the subsets of V (every vertex by default), with the sign
    (-1)**(p+1) * epsilon(i, I) on the block (I, I\\{i})."""
    groups: dict[int, list] = {}
    for I, bettis in engine.betti_table(V).items():
        b = bettis.get(p)
        if b:
            groups.setdefault(masks.card(I), []).append((I, b))
    for l in groups:
        groups[l].sort(key=lambda ib: masks.sort_key(ib[0]))
    dims = {l: sum(b for _, b in g) for l, g in groups.items()}
    char = engine.field.p
    matrices: dict[int, list] = {}
    for l, sources in groups.items():
        targets = groups.get(l - 1)
        if not targets:
            continue
        row_offset = {}
        pos = 0
        for J, b in targets:
            row_offset[J] = pos
            pos += b
        nrows, ncols = pos, dims[l]
        mat = [[0] * ncols for _ in range(nrows)]
        col = 0
        for I, b in sources:
            for i in masks.vertices(I):
                J = I & ~masks.bit(i)
                if J not in row_offset:
                    continue
                positive = masks.sign_epsilon(i, I) * (-1) ** (p + 1) == 1
                block = engine.psi(I, i, p)
                r0 = row_offset[J]
                for r, row in enumerate(block):
                    for c, v in enumerate(row):
                        if v:
                            # char - v is -v over Q (char 0) and over GF(char)
                            mat[r0 + r][col + c] = v if positive else char - v
            col += b
        matrices[l] = mat
    return RowComplex(p=p, groups=groups, dims=dims, matrices=matrices, field=engine.field)


def hh_ranks(engine: CohomologyEngine) -> BigradedRankTable:
    """Bigraded double cohomology ranks: cohomology of every row of (H*(Z_K), d'),
    for the engine's complex K over its field, one join factor at a time."""
    table = BigradedRankTable({(0, 0): 1})
    top = engine.K.dim()  # a scan of every face, so once, not per factor
    for V in engine.factors:
        entries: dict = {}
        for p in range(-1, top + 1):
            row = assemble_row(engine, p, V)
            for l, r in row.cohomology_ranks().items():
                entries[(-(l - p - 1), 2 * l)] = r
        table = table.convolve(BigradedRankTable(entries))
    return table
