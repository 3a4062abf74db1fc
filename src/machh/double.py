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
M_l M_{l+1} = 0, and the rows of M_{l+1} are indexed by the level-l basis,
the columns of M_l. Let Q be a column basis of M_l, found in any order, and
W its row space. Projection onto the coordinates Q maps W onto k^Q, as
M_l[:, Q] has rank |Q|, and dim W = |Q|, so it is an isomorphism. For q in Q
some w in W is 1 at q and 0 on Q∖{q}, and w M_{l+1} = 0, so row q of
M_{l+1} lies in the span of the rows outside Q. A linear relation among
M_{l+1}'s columns on the rows outside Q therefore holds on every row: those
rows give M_{l+1}'s rank, and a column basis over them is one of M_{l+1}.
``RowComplex.cohomology_ranks`` ranks the levels upwards. It adds each
level's columns, source by source in decreasing mask order, to one
``SparseReducer`` over the rows left in. Source I's columns that enlarge its
span, as ``dense_rank`` numbers them, are I's part of Q: the rows of target
I that the next level leaves out. No ``psi`` runs for a target whose rows are
all left out. Once the rank equals the number of rows left in, no later
column can enlarge the span, so the walk stops there with the rank and Q
both exact, and no later source costs a ``psi``.
"""

from __future__ import annotations

from typing import NamedTuple

from .cohomology import CohomologyEngine
from .linalg import SparseReducer, dense_rank

__all__ = ["BigradedRankTable", "h_ranks", "hh_ranks"]


class BigradedRankTable(NamedTuple):
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


class RowComplex(NamedTuple):
    """One row (fixed degree p) of the cochain complex on H*(Z_K).

    ``groups[l]`` lists (subset mask, rank) with |I| = l and positive rank,
    and ``dims[l]`` is their total. The block differential from cardinality l
    to l - 1 has its rows indexed by the level-(l-1) basis and its columns by
    the level-l basis, with entries in the engine's field.

    ``cohomology_ranks`` ranks a level by its columns over the rows that the
    level below leaves in, and holds no more than one source's columns at a
    time. The columns that enlarge the span form a column basis Q, in
    whatever order they came, kept per source I as ``picked[I]``. The next
    level leaves out the rows of Q, which lie in the span of the others
    (module docstring). A level stops once its kept rows are spanned.
    """

    p: int
    groups: dict
    dims: dict
    engine: CohomologyEngine

    def _kept(self, l: int, picked: dict) -> tuple[dict, int]:
        """The rows of the differential from l to l - 1 left in once each
        target J leaves out its rows in ``picked[J]`` (``cohomology_ranks``):
        ``{J: [each row's index among the kept rows, or None]}`` over the
        targets J with a row kept, and the number of kept rows."""
        kept = {}
        n = 0
        for J, b in self.groups[l - 1]:
            out = picked.get(J, ())
            if len(out) == b:
                continue
            rows = []
            for k in range(b):
                if k in out:
                    rows.append(None)
                else:
                    rows.append(n)
                    n += 1
            kept[J] = rows
        return kept, n

    def _columns(self, I: int, b: int, kept: dict, n: int) -> list[list] | None:
        """The b columns of source I in the differential from |I| to |I| - 1,
        each a dense list over the ``n`` rows of ``kept`` (``_kept``), with
        the sign (-1)**(p+1) * epsilon(i, I) on the block (I\\{i}, I). A
        target with no row kept costs no ``psi``; None if no target has one."""
        wanted = 0
        rest = I
        while rest:
            low = rest & -rest
            rest ^= low
            if I ^ low in kept:
                wanted |= low
        if not wanted:
            return None
        p, char = self.p, self.engine.char
        cols = [[0] * n for _ in range(b)]
        # psi's blocks come column by column, one per representative of I
        for i, block in self.engine.psi(I, p, wanted).items():
            rows = kept[I ^ i]
            # ε(i, I)·(-1)**(p+1), with ε(i, I) = (-1)**(# elements of I below i)
            positive = (p + (I & (i - 1)).bit_count()) % 2 == 1
            for col, values in zip(cols, block):
                for k, v in zip(rows, values):
                    if v and k is not None:
                        # char - v is -v over Q (char 0) and over GF(char)
                        col[k] = v if positive else char - v
        return cols

    def cohomology_ranks(self) -> dict:
        """``{l: rank}`` of the row's cohomology, from the levels l upwards.
        Each level is ranked column by column, sources in decreasing mask
        order, on the rows that the level below leaves uncleared, and stops
        once its rank reaches their number (module docstring)."""
        ranks = {}
        picked: dict = {}  # {source I of any level: its columns that enlarged the span}
        for l in sorted(self.groups):
            if l - 1 in self.groups:
                kept, n = self._kept(l, picked)
                red = SparseReducer(self.engine.char)
                for I, b in reversed(self.groups[l]):
                    if red.rank == n:
                        break
                    cols = self._columns(I, b, kept, n)
                    if cols:
                        picked[I] = set(dense_rank(cols, red))
                ranks[l] = red.rank
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
