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

Clearing (the "twist" of Chen-Kerber, EuroCG 2011, as in ``cohomology.py``).
Let M_l be the differential from level l to level l - 1 of a row, so
M_{l-1} M_l = 0, and the rows of M_l are indexed by the level-(l-1) basis,
the columns of M_{l-1}. An echelon row r of M_{l-1} with leading column q
satisfies r M_l = 0, so row q of M_l lies in the span of the rows after it.
By downward induction over the pivots, the rows of M_l whose index is not a
pivot of M_{l-1} span its whole row space. ``RowComplex.cohomology_ranks``
therefore ranks the levels upwards, leaves those pivot rows out, and calls no
``psi`` for a target whose rows are all left out. A cleared M_{l-1} has the
row space, hence the pivots, of the full one, so the ranks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import CohomologyEngine
from .linalg import dense_rank

__all__ = ["BigradedRankTable", "h_ranks", "hh_ranks"]


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

    ``groups[l]`` lists (subset mask, rank) with |I| = l and positive rank,
    and ``dims[l]`` is their total. The block differential from cardinality l
    to l - 1 has its rows indexed by the level-(l-1) basis and its columns by
    the level-l basis, with entries in the engine's field. ``cohomology_ranks``
    builds only the rows that clearing keeps (module docstring).
    """

    p: int
    groups: dict
    dims: dict
    engine: CohomologyEngine

    def _block(self, l: int, cleared) -> list[list]:
        """The rows of the differential from l to l - 1 whose index is not in
        ``cleared``, with the sign (-1)**(p+1) * epsilon(i, I) on the block
        (I, I\\{i}). A target J whose rows are all cleared costs no ``psi``."""
        ncols = self.dims[l]
        mat = []
        rows_of = {}
        pos = 0
        for J, b in self.groups[l - 1]:
            rows = [None if r in cleared else [0] * ncols for r in range(pos, pos + b)]
            kept = [row for row in rows if row is not None]
            if kept:
                rows_of[J] = rows
                mat.extend(kept)
            pos += b
        engine, p = self.engine, self.p
        char = engine.char
        col = 0
        for I, b in self.groups[l]:
            wanted = 0
            rest = I
            while rest:
                low = rest & -rest
                rest ^= low
                if I ^ low in rows_of:
                    wanted |= low
            if wanted:
                # psi's blocks come column by column, one per representative of I
                for i, block in engine.psi(I, p, wanted).items():
                    rows = rows_of[I ^ i]
                    # ε(i, I)·(-1)**(p+1), with ε(i, I) = (-1)**(# elements of I below i)
                    positive = (p + (I & (i - 1)).bit_count()) % 2 == 1
                    for c, values in enumerate(block, col):
                        for row, v in zip(rows, values):
                            if v and row is not None:
                                # char - v is -v over Q (char 0) and over GF(char)
                                row[c] = v if positive else char - v
            col += b
        return mat

    def cohomology_ranks(self) -> dict:
        """``{l: rank}`` of the row's cohomology, from the levels l upwards,
        each ranked on the rows that the level below leaves uncleared."""
        ranks = {}
        cleared: set = set()
        for l in sorted(self.groups):
            pivots: set = set()
            if l - 1 in self.groups:
                mat = self._block(l, cleared)
                ranks[l] = dense_rank(mat, self.engine.char, pivots) if mat else 0
            cleared = pivots
        out = {}
        for l, dim in self.dims.items():
            r = dim - ranks.get(l, 0) - ranks.get(l + 1, 0)
            if r:
                out[l] = r
        return out


def _by_rows(engine: CohomologyEngine, ranks_of) -> BigradedRankTable:
    """Convolve over the join factors V the tables ``ranks_of(row)``, ``{l: rank}``
    at (-(l - p - 1), 2l), of V's rows p with a nonzero group."""
    table = BigradedRankTable({(0, 0): 1})
    for V in engine.factors:
        entries: dict = {}
        for p in sorted({p for bettis in engine.betti_table(V).values() for p in bettis}):
            for l, r in ranks_of(assemble_row(engine, p, V)).items():
                entries[(-(l - p - 1), 2 * l)] = r
        table = table.convolve(BigradedRankTable(entries))
    return table


def assemble_row(engine: CohomologyEngine, p: int, V: int) -> RowComplex:
    """The degree-p row of the engine's complex on the subsets of V: its
    groups and dimensions. No block is built here."""
    groups: dict[int, list] = {}
    for I, bettis in engine.betti_table(V).items():
        b = bettis.get(p)
        if b:
            groups.setdefault(I.bit_count(), []).append((I, b))
    dims = {l: sum(b for _, b in g) for l, g in groups.items()}
    return RowComplex(p=p, groups=groups, dims=dims, engine=engine)


def h_ranks(engine: CohomologyEngine) -> BigradedRankTable:
    """Bigraded ranks of H*(Z_K) for the engine's complex K over its field: the
    dimensions of the rows whose cohomology ``hh_ranks`` ranks."""
    return _by_rows(engine, lambda row: row.dims)


def hh_ranks(engine: CohomologyEngine) -> BigradedRankTable:
    """Bigraded double cohomology ranks: cohomology of every row of (H*(Z_K), d'),
    for the engine's complex K over its field, one join factor at a time."""
    return _by_rows(engine, lambda row: row.cohomology_ranks())
