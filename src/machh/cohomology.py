"""Reduced (augmented) simplicial cohomology over an exact field.

Cochain bases for a full subcomplex K_I keep the ambient vertex labels, so the
map induced by K_{I\\{i}} -> K_I on cohomology is literally a coordinate
projection followed by reduction into the target basis.
"""

from __future__ import annotations

from . import masks
from .complexes import SimplicialComplex
from .errors import InternalInconsistency
from .fields import RATIONALS, Field
from .linalg import SparseReducer, kernel_basis


class CohomologyBasis:
    """Basis data for one reduced cohomology group H̃^p.

    ``representatives`` are cocycle vectors (sparse, keyed by simplex mask),
    linearly independent modulo coboundaries; ``express`` writes any cocycle in
    these coordinates using the stored elimination.
    """

    __slots__ = ("p", "simplices", "rank", "representatives", "_reducer")

    def __init__(self, p, simplices, representatives, reducer):
        self.p = p
        self.simplices = simplices
        self.rank = len(representatives)
        self.representatives = representatives
        self._reducer = reducer

    def express(self, vec: dict) -> list:
        """Coordinates of a cocycle modulo coboundaries, dense over representatives."""
        coeffs = self._reducer.express(vec)
        if coeffs is None:
            raise InternalInconsistency("vector is not a cocycle of this group")
        out = [0] * self.rank
        for gen, c in coeffs.items():
            out[gen] = c
        return out


class SubsetCohomology:
    """All cochain degrees of one full subcomplex K_I, computed lazily."""

    __slots__ = (
        "I",
        "field",
        "simplices",
        "simplex_sets",
        "orders",
        "max_p",
        "_delta",
        "_basis",
        "_betti",
    )

    def __init__(self, K: SimplicialComplex, I: int, field: Field = RATIONALS):
        self.I = I
        self.field = field
        groups: dict[int, list[int]] = {}
        for f in K.faces:
            if f & ~I == 0:
                groups.setdefault(masks.card(f) - 1, []).append(f)
        self.simplices = {p: masks.lex_sorted(g) for p, g in groups.items()}
        self.simplex_sets = {p: frozenset(g) for p, g in groups.items()}
        self.orders = {
            p: {s: i for i, s in enumerate(g)} for p, g in self.simplices.items()
        }
        self.max_p = max(groups)
        self._delta: dict[int, SparseReducer] = {}
        self._basis: dict[int, CohomologyBasis] = {}
        self._betti: dict[int, int] = {}

    def coboundary_vector(self, p: int, s: int) -> dict:
        """delta(s*) as a sparse vector over the p-simplices, s of degree p-1.

        The entry at s ∪ {j} is (-1)**(# elements of s below j).
        """
        targets = self.simplex_sets.get(p, frozenset())
        sign, other = 1, self.field.p - 1
        vec = {}
        rest = self.I
        while rest:
            low = rest & -rest
            rest ^= low
            if low & s:
                sign, other = other, sign
            elif s | low in targets:
                vec[s | low] = sign
        return vec

    def delta_reducer(self, p: int) -> SparseReducer:
        """Echelon form of delta_p, rows indexed by the (p+1)-simplices.

        The row of t has (-1)**i at t minus its i-th smallest vertex.
        """
        red = self._delta.get(p)
        if red is None:
            red = SparseReducer(self.orders.get(p, {}), self.field.p)
            minus_one = self.field.p - 1
            for t in self.simplices.get(p + 1, ()):
                row = {}
                sign, other = 1, minus_one
                rest = t
                while rest:
                    low = rest & -rest
                    rest ^= low
                    row[t ^ low] = sign
                    sign, other = other, sign
                red.add(row)
            self._delta[p] = red
        return red

    def betti(self, p: int) -> int:
        if p not in self.simplices:
            return 0
        b = self._betti.get(p)
        if b is None:
            b = (
                len(self.simplices[p])
                - self.delta_reducer(p).rank
                - self.delta_reducer(p - 1).rank
            )
            self._betti[p] = b
        return b

    def basis(self, p: int) -> CohomologyBasis:
        cached = self._basis.get(p)
        if cached is not None:
            return cached
        order = self.orders.get(p, {})
        combined = SparseReducer(order, self.field.p, track=True)
        reps: list[dict] = []
        if p in self.simplices:
            for s in self.simplices.get(p - 1, ()):
                combined.add(self.coboundary_vector(p, s))
            for kv in kernel_basis(self.delta_reducer(p), self.simplices[p]):
                r = combined.residual(kv)
                if r:
                    combined.add(r, gen=len(reps))
                    reps.append(r)
            if len(reps) != self.betti(p):
                raise InternalInconsistency(
                    f"representative count {len(reps)} != betti {self.betti(p)}"
                )
        basis = CohomologyBasis(p, tuple(self.simplices.get(p, ())), reps, combined)
        self._basis[p] = basis
        return basis


class CohomologyEngine:
    """Per-subset cohomology cache for a fixed ambient complex K and field.

    One engine serves every computation of a request on that (K, field) pair,
    so each full subcomplex is grouped and eliminated at most once.
    """

    def __init__(self, K: SimplicialComplex, field: Field = RATIONALS):
        self.K = K
        self.field = field
        self._cache: dict[int, SubsetCohomology] = {}

    def subset(self, I: int) -> SubsetCohomology:
        sc = self._cache.get(I)
        if sc is None:
            sc = SubsetCohomology(self.K, I, self.field)
            self._cache[I] = sc
        return sc

    def rank(self, I: int, p: int) -> int:
        return self.subset(I).betti(p)

    def basis(self, I: int, p: int) -> CohomologyBasis:
        return self.subset(I).basis(p)

    def psi(self, I: int, i: int, p: int) -> list[list]:
        """Matrix of the restriction H̃^p(K_I) -> H̃^p(K_{I\\{i}}) in the stored bases."""
        src = self.basis(I, p)
        dst = self.basis(I & ~masks.bit(i), p)
        ibit = masks.bit(i)
        cols = []
        for rep in src.representatives:
            restricted = {s: c for s, c in rep.items() if not s & ibit}
            cols.append(dst.express(restricted))
        return [[cols[c][r] for c in range(src.rank)] for r in range(dst.rank)]
