"""Reduced (augmented) simplicial cohomology over an exact field.

Cochain bases for a full subcomplex K_I keep the ambient vertex labels, so the
map induced by K_{I\\{i}} -> K_I on cohomology is literally a coordinate
projection followed by reduction into the target basis.

No elimination runs whose result is already fixed:

- A cone K_I has H̃* = 0, so ``CohomologyEngine.rank`` answers 0 for it
  without building a ``SubsetCohomology``. K_I is a cone on v ∈ I exactly
  when no minimal non-face N of K with v ∈ N lies inside I, so the non-cones
  are the unions of minimal non-faces. ``is_cone(I)`` asks whether those
  inside I cover I, and ``betti_table(V)`` enumerates the unions of those
  inside V, one join factor at a time.
- Clearing (the "twist" of Chen–Kerber, EuroCG 2011). ``delta_reducer(p)``
  leaves out the boundary row of every (p+1)-simplex t that is a pivot of
  ``delta_reducer(p+1)``. That reducer's row with pivot t is a boundary,
  hence a cycle, and t comes first in its support, so the boundary of t lies
  in the span of the boundaries of later (p+1)-simplices; by downward
  induction over the pivots, the rows kept span the same row space. The
  rank, ``rref_rows`` and ``kernel_basis`` are therefore unchanged. So the
  first ``delta_reducer`` call of a subset, made by the first Betti number
  or basis that needs one, eliminates every degree in one pass from the top
  degree down; b_{-1} reads the 0-faces alone.
- One coboundary row per face per engine. The row of a face t depends only
  on t and the field, so the engine keeps one table of them, made on first
  need and never mutated, and every subset reads it. The row leads with +1,
  so ``SparseReducer.add`` stores it as it is when its lead is free.
- ``basis(p)`` needs one elimination more. Let F be the p-simplices that
  are not pivots of ``delta_reducer(p)``. A cocycle is orthogonal to every
  echelon row, and the row of a pivot q fixes the entry at q from entries at
  later columns, so a cocycle is fixed by its values on F: Z ≅ k^F, and
  H̃^p ≅ k^F / B|_F with B the image of delta_{p-1}. B is the column space
  of the matrix that ``delta_reducer(p-1)`` eliminates. Clearing keeps its
  row space, and the pivot columns of an echelon form of the row space index
  a basis of the column space, so the coboundaries of those pivot columns
  span B. Cut down to F, they are eliminated once in a quotient reducer.
  Their entries are read off the rows of the faces in F, in one scan: the
  row of a p-face f holds (-1)**(i+p) at f minus its i-th smallest vertex
  s, where the coboundary of s holds (-1)**i at f. So each column is the
  coboundary times (-1)**p, the same unit for every column of a degree, and
  the quotient's pivots and ``rref_rows`` are unchanged. The essential
  columns E (F minus the quotient's pivots) index a basis of H̃^p: the
  representative of e ∈ E is the cocycle that is 1 at e and 0 on the rest
  of F (``kernel_basis``). A cocycle's coordinates are its values on E
  minus those its values on the quotient's pivots carry through the fully
  reduced quotient rows, so ``express`` sums a per-column table.
  A basis builds that table on its first ``express`` and its
  representatives on their first read: a source of ``psi`` never needs the
  table, and a target never needs the representatives.
- Echelon forms along a vertex chain. ``CohomologyEngine.subset(I)`` builds
  K_I on a cached K_J, J = I∖v, if it finds one. Columns are in the masks'
  own integer order, and the order of K_I's p-faces restricts to that of
  K_J's, so a stored row of K_J's ``delta_reducer(p)`` is an echelon row of
  K_I's with the same pivot. Only the faces through v are new: they are the
  g ∪ v with g a face of K_J and g ∪ v a face of K. ``simplices`` merges them
  in, and each reducer starts from K_J's rows and adds only the rows of the
  (p+1)-faces through v. Clearing stays sound: K_J's ``delta_reducer(p+1)``
  pivots are pivots of K_I's, so every row that K_J cleared K_I clears too,
  and a row that K_J kept and K_I would clear is redundant, not wrong. The
  pivot set, ``rref_rows``, ``kernel_basis`` and ``basis`` depend only on the
  row space, so they equal those of K_I built from scratch. Parent and child
  share the stored rows, which are never mutated (``SparseReducer``). A root
  K_I, one with no cached parent, groups its faces inside I alone: each
  p-face is a (p-1)-face g plus a vertex b of I above g's top vertex, so
  it is made once, and with b in the outer loop the p-faces come out in
  order, those with top vertex b after all with a lower top.
- One subset per twin orbit. Vertices a and b are twins when swapping them
  maps the minimal non-faces onto themselves; as K is the set of masks that
  contain no minimal non-face, the swap is then an automorphism of K. Twins
  form classes, each inside one join factor, and every permutation within
  the classes is an automorphism. ``canon(I)`` keeps the lowest |I ∩ c|
  members of each class c, and g maps R = canon(I) onto I monotonically
  within each class. Then g maps K_R onto K_I, so b_p(K_I) = b_p(K_R), and
  K_I's basis is g_* of K_R's: (g_*φ)(g s) = sign(g, s)·φ(s), with
  sign(g, s) the parity of g on s's sorted vertices. g_* commutes with δ
  and with restriction, so the ``psi`` block of I and i is that of R and
  i′ = g⁻¹(i) into canon(R∖i′) = canon(I∖i), after the within-class shift
  h: R∖i′ → canon(R∖i′), since g restricted to R∖i′ is the monotone map
  g′ ∘ h. Only canonical subsets are built; a block is cached when another
  member of R's orbit can ask for it. ``psi(I, p, vertices)`` makes the
  blocks of every asked target I∖i of one source at once, so canon(I), I's
  classes and R's representatives are worked out once per source.
"""

from __future__ import annotations

from math import isqrt

from . import masks
from .complexes import SimplicialComplex
from .errors import InternalInconsistency, ResourceLimit
from .linalg import SparseReducer, kernel_basis

DEFAULT_MAX_M = 22
PRIME_LIMIT = 1 << 31  # keeps the trial-division primality test instant


def prime_field(p: int) -> int:
    """The characteristic of GF(p), once p is checked to be an odd prime int below 2**31."""
    if not masks.is_int(p):
        raise ValueError(f"a field's characteristic must be an int, got {p!r}")
    if p >= PRIME_LIMIT:
        raise ValueError(f"GF(p) requires p < 2**31, got {p}")
    if p < 3 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ValueError(f"GF(p) requires an odd prime, got {p}")
    return p


def _delta_row(t: int, char: int) -> dict:
    """The row of the face t in its coboundary: (-1)**i at t minus its i-th
    smallest vertex, times (-1)**(|t|-1) so that the leading entry, at t minus
    its top vertex (the smallest mask), is +1. The empty face's row is empty."""
    row = {}
    sign, other = (1, char - 1) if t.bit_count() % 2 else (char - 1, 1)
    rest = t
    while rest:
        low = rest & -rest
        rest ^= low
        row[t ^ low] = sign
        sign, other = other, sign
    return row


class _DeltaRows(dict):
    """Face -> its ``_delta_row`` over the field of characteristic ``char``,
    each row made on its first lookup and never mutated afterwards."""

    __slots__ = ("char",)

    def __init__(self, char: int):
        super().__init__()
        self.char = char

    def __missing__(self, t: int) -> dict:
        row = self[t] = _delta_row(t, self.char)
        return row


class CohomologyBasis:
    """Basis data for one reduced cohomology group H̃^p.

    A basis keeps its essential columns, the kernel (the echelon form of
    delta_p) and the quotient reducer, and builds each other part when its
    role first needs it. ``representatives`` are cocycle vectors (sparse,
    keyed by simplex mask), one per essential column, linearly independent
    modulo coboundaries; the first read runs ``kernel_basis``, so only a
    source of ``psi`` pays for it. ``express`` reads a cocycle's coordinates
    off its values on the free columns through a table, with no elimination;
    the first call builds the table from the quotient's ``rref_rows`` and
    drops the quotient, so only a target pays for it (module docstring).
    """

    __slots__ = ("rank", "_essential", "_kernel", "_quotient", "_table", "_representatives")

    def __init__(self, essential, kernel, quotient):
        self.rank = len(essential)
        self._essential = essential
        self._kernel = kernel
        self._quotient = quotient
        self._table = None
        self._representatives = None

    @property
    def representatives(self) -> list[dict]:
        reps = self._representatives
        if reps is None:
            reps = self._representatives = kernel_basis(self._kernel, self._essential)
        return reps

    def express(self, vec: dict) -> list:
        """Coordinates of a cocycle modulo coboundaries, dense over representatives.

        ``_table`` maps each free column to its coordinates over the essential
        ones; pivot columns of ``_kernel`` (the echelon form of delta_p) are
        fixed by the free ones and read nowhere. The free columns and the
        pivots are the p-simplices, so a vector with a key in neither, or
        with a nonzero coboundary, raises ``InternalInconsistency``.
        """
        kernel = self._kernel
        char = kernel.p
        table = self._table
        if table is None:
            index = {e: k for k, e in enumerate(self._essential)}
            table = {e: ((k, 1),) for e, k in index.items()}
            for q, row in self._quotient.rref_rows():
                table[q] = tuple(
                    (index[e], char - a) for e, a in row.items() if e != q
                )
            self._table, self._quotient = table, None
        pivots = kernel.rows
        out = [0] * self.rank
        for s, c in vec.items():
            coords = table.get(s)
            if coords is not None:
                for k, a in coords:
                    out[k] += c * a
            elif s not in pivots:
                raise InternalInconsistency("vector is not a cochain of this group")
        get = vec.get
        for row in pivots.values():
            x = 0
            for s, c in row.items():
                y = get(s)
                if y is not None:
                    x += c * y
            if x % char if char else x:
                raise InternalInconsistency("vector is not a cocycle of this group")
        if char:
            for k, x in enumerate(out):
                out[k] = x % char
        return out


class SubsetCohomology:
    """All cochain degrees of one full subcomplex K_I, computed lazily.

    ``rows`` is the engine's table of coboundary rows, which every subset of
    the engine shares; the subset's field is the table's ``char`` (0 for Q).
    ``CohomologyEngine.subset`` is the one maker.
    """

    __slots__ = ("I", "char", "simplices", "max_p", "_parent", "_rows", "_delta", "_basis")

    def __init__(
        self,
        K: SimplicialComplex,
        I: int,
        rows: _DeltaRows,
        parent: SubsetCohomology | None = None,
    ):
        self.I = I
        self.char = rows.char
        self._rows = rows
        faces = K.faces
        self._parent = parent
        self.simplices: dict[int, list[int]] = {}
        if parent is None:
            # each face is a smaller one g plus a vertex b of I above g's top
            bits = [masks.bit(v) for v in masks.vertices(I)]
            group, p = [0], -1
            while group:
                self.simplices[p] = group
                group = [f for b in bits for g in group if g < b and (f := g | b) in faces]
                p += 1
        else:
            # the faces through v are the parent's faces plus v that are faces of K
            v = I ^ parent.I
            below = ()
            for p, group in parent.simplices.items():
                through = [f for g in below if (f := g | v) in faces]
                self.simplices[p] = sorted(group + through) if through else group
                below = group
            through = [f for g in below if (f := g | v) in faces]
            if through:
                self.simplices[parent.max_p + 1] = through
        self.max_p = max(self.simplices)
        self._delta: dict[int, SparseReducer] = {}
        self._basis: dict[int, CohomologyBasis] = {}

    def delta_reducer(self, p: int) -> SparseReducer:
        """Echelon form of delta_p, rows indexed by the (p+1)-simplices, columns
        by the p-simplices in the keys' own ``<`` order.

        The row of t is the table's ``_delta_row``, which leads with +1 at t
        minus its largest vertex. The first call eliminates every degree in
        one pass from ``max_p`` down to -1, each clearing the rows of the
        pivots of the degree above it; with a parent K_{I∖v} each reducer
        starts from the parent's rows and takes only the faces through v.
        Later calls look the reducer up. Any other delta_p is zero, as its
        only row is the empty face's (p = -2) or it has none, and gets a
        fresh empty reducer.
        """
        delta = self._delta
        if not delta:
            parent = self._parent
            if parent is None:
                new, inherited = self.I, {}  # every face but the empty one, whose row is zero
            else:
                parent.delta_reducer(-1)  # runs the parent's pass if it has not run
                new, inherited = self.I ^ parent.I, parent._delta
            table = self._rows
            cleared: dict = {}
            for d in range(self.max_p, -2, -1):
                red = SparseReducer(self.char)
                if d in inherited:
                    red.rows.update(inherited[d].rows)
                for t in self.simplices.get(d + 1, ()):
                    if t & new and t not in cleared:
                        red.add(table[t])
                delta[d] = red
                cleared = red.rows
        red = delta.get(p)
        return red if red is not None else SparseReducer(self.char)

    def betti(self, p: int) -> int:
        """dim H̃^p(K_I). In degree -1 it is 1 exactly when K_I has no vertex:
        delta_{-1} has one nonzero row per vertex, and delta_{-2} is zero."""
        if p not in self.simplices:
            return 0
        if p == -1:
            return 0 if self.simplices.get(0) else 1
        delta = self._delta
        if not delta:
            self.delta_reducer(-1)  # runs the pass, which fills every degree from max_p to -1
        return len(self.simplices[p]) - delta[p].rank - delta[p - 1].rank

    def basis(self, p: int) -> CohomologyBasis:
        """H̃^p's essential columns from one quotient elimination on the free
        columns, whose columns come from one scan over the free faces' rows;
        the representatives and the ``express`` table are built on first use
        (module docstring)."""
        cached = self._basis.get(p)
        if cached is not None:
            return cached
        kernel = self.delta_reducer(p)
        pivots = kernel.rows
        free = [f for f in self.simplices.get(p, ()) if f not in pivots]
        below = self._delta.get(p - 1)
        # one column per pivot s of delta_{p-1}: the entries at s of the free faces' rows
        columns: dict = {s: {} for s in below.rows} if below else {}
        if columns:
            table = self._rows
            for f in free:
                for s, c in table[f].items():
                    column = columns.get(s)
                    if column is not None:
                        column[f] = c
        quotient = SparseReducer(self.char)
        for column in columns.values():
            quotient.add(column)
        essential = [f for f in free if f not in quotient.rows]
        if len(essential) != self.betti(p):
            raise InternalInconsistency(
                f"representative count {len(essential)} != betti {self.betti(p)}"
            )
        basis = CohomologyBasis(essential, kernel, quotient)
        self._basis[p] = basis
        return basis


def _minimal_non_faces(K: SimplicialComplex) -> tuple[int, ...]:
    """The masks N ∉ K whose every N minus one vertex is a face, increasing.

    Each is the face N minus its top vertex plus that vertex, so only a face
    f plus a vertex above f's top vertex is tried, and each candidate once.
    """
    faces = K.faces
    found = []
    for f in faces:
        for i in range(f.bit_length(), K.m):
            N = f | 1 << i
            if N in faces:
                continue
            rest = f
            while rest:
                low = rest & -rest
                rest ^= low
                if N ^ low not in faces:
                    break
            else:
                found.append(N)
    return tuple(sorted(found))


def _twin_classes(non_faces: tuple[int, ...]) -> tuple[int, ...]:
    """The twin classes with two or more members, as masks, increasing.

    a and b are twins when N -> N ^ {a, b} maps every minimal non-face N that
    holds one of them to a minimal non-face; the map is an involution, so it
    then maps them onto themselves. Twinship is an equivalence, so each
    vertex is compared with the least member of each class found so far.
    Cone points lie in no minimal non-face and in no class.
    """
    listed = set(non_faces)
    holding: dict[int, list[int]] = {}
    for N in non_faces:
        rest = N
        while rest:
            low = rest & -rest
            rest ^= low
            holding.setdefault(low, []).append(N)
    found: list[int] = []
    for v in sorted(holding):
        for k, c in enumerate(found):
            ab = (c & -c) | v
            if all(N ^ ab in listed for N in holding[c & -c] + holding[v] if N & ab != ab):
                found[k] = c | v
                break
        else:
            found.append(v)
    return tuple(sorted(c for c in found if c & (c - 1)))


class CohomologyEngine:
    """Per-subset cohomology cache for a fixed ambient complex K and field.

    One engine serves every computation of a request on that (K, field) pair,
    so each full subcomplex is grouped and eliminated at most once, only one
    per twin orbit is, and a cone K_I is never built for a rank. The engine
    is the only place a request names its complex, field and vertex cap: a K
    with more than ``max_m`` vertices raises ``ResourceLimit`` before any
    work. The field is its characteristic ``char``, an int: 0 for Q, or an
    odd prime below 2**31 for GF(p). Anything else (4, 3.5, 32003.0, a
    bool) raises ``prime_field``'s ``ValueError``. The cap follows the same
    int rule: a ``max_m`` that is a float, a bool, a str or None raises
    ``ValueError`` too.
    Besides K, the engine keeps K's minimal non-faces; ``is_cone``,
    ``betti_table``, ``factors`` and ``twins`` are all worked out from them.

    ``factors`` are the vertex sets V of K's join factors, as masks,
    increasing: the minimal non-faces merged wherever they share a vertex.
    Every minimal non-face lies in one V, so K is the join of its K_V and of
    the simplex on the cone points, the vertices in no minimal non-face. A
    simplex has no factors.

    ``twins`` pairs each twin class c, as a mask, with its members' bits in
    increasing order. Subsets and Betti numbers are computed for canonical
    subsets only, and ``psi`` transports them to the rest of each orbit
    (module docstring). A twin-free K has no classes.
    """

    def __init__(self, K: SimplicialComplex, char: int = 0, max_m: int = DEFAULT_MAX_M):
        if not masks.is_int(max_m):
            raise ValueError(f"a vertex cap must be an int, got {max_m!r}")
        if K.m > max_m:
            raise ResourceLimit(f"m = {K.m} exceeds the configured cap {max_m}")
        if char or not masks.is_int(char):  # an int 0 is Q
            prime_field(char)
        self.K = K
        self.char = char
        self._cache: dict[int, SubsetCohomology] = {}
        self._rows = _DeltaRows(char)
        self._non_faces = non_faces = _minimal_non_faces(K)
        factors = []
        for N in non_faces:
            for V in [V for V in factors if V & N]:
                factors.remove(V)
                N |= V
            factors.append(N)
        self.factors = tuple(sorted(factors))
        self.twins = tuple(
            (c, tuple(masks.bit(v) for v in masks.vertices(c))) for c in _twin_classes(non_faces)
        )
        self._betti_tables: dict[int, dict[int, dict[int, int]]] = {}
        self._blocks: dict[tuple[int, int, int], list[list]] = {}

    def subset(self, I: int) -> SubsetCohomology:
        """K_I's cohomology, built on the first cached K_{I∖v} found for v ∈ I
        in increasing order, or from scratch if none is cached."""
        cache = self._cache
        sc = cache.get(I)
        if sc is None:
            parent = None
            rest = I
            while rest and parent is None:
                low = rest & -rest
                rest ^= low
                parent = cache.get(I ^ low)
            sc = SubsetCohomology(self.K, I, self._rows, parent)
            cache[I] = sc
        return sc

    def canon(self, I: int) -> int:
        """The least mask of I's twin orbit: the lowest |I ∩ c| members of
        each twin class c in place of I ∩ c."""
        for c, members in self.twins:
            inside = I & c
            if inside:
                I ^= inside ^ sum(members[: inside.bit_count()])
        return I

    def is_cone(self, I: int) -> bool:
        """K_I is a cone on some vertex of I, so H̃*(K_I) = 0: the minimal
        non-faces of K inside I do not cover I (module docstring)."""
        cover = 0
        for N in self._non_faces:
            if not N & ~I:
                cover |= N
        return cover != I

    def rank(self, I: int, p: int) -> int:
        """dim H̃^p(K_I), with no build for a cone K_I. An I that meets several
        factors has K_I = K_A * K_B for A = I ∩ V of its first factor V, and
        Künneth gives b_p(K_A * K_B) = Σ_{i+j=p-1} b_i(K_A) b_j(K_B)."""
        if self.is_cone(I):
            return 0
        A = next((I & V for V in self.factors if I & V), I)
        if A == I:
            return self.subset(self.canon(I)).betti(p)
        B = I ^ A  # A and B are not empty, so b_{-1} of either is 0
        return sum(self.rank(A, i) * self.rank(B, p - 1 - i) for i in range(p))

    def betti_table(self, V: int) -> dict[int, dict[int, int]]:
        """The nonzero reduced Betti numbers ``{I: {p: b}}`` over the subsets
        I of V, I increasing.

        Computed once per engine and V over the unions of the minimal
        non-faces inside V, the only subsets of V that are not cones; a cone
        or an acyclic K_I has no entry. Only canonical subsets are built;
        each other I shares the entry of canon(I), which is smaller and a
        non-cone of V too, so the increasing walk has already met it (module
        docstring).
        """
        table = self._betti_tables.get(V)
        if table is None:
            table = {}
            non_cones = {0}
            for N in self._non_faces:
                if not N & ~V:
                    non_cones |= {I | N for I in non_cones}
            for I in sorted(non_cones):
                R = self.canon(I)
                if R != I:
                    bettis = table.get(R)
                else:
                    sc = self.subset(R)
                    bettis = {p: b for p in range(-1, sc.max_p + 1) if (b := sc.betti(p))}
                if bettis:
                    table[I] = bettis
            self._betti_tables[V] = table
        return table

    def inherit(self, before: "CohomologyEngine", sigma: int) -> None:
        """Move ``before``'s subsets I with sigma ⊄ I into this engine, and
        share its table of coboundary rows.

        This engine's K must be ``before.K`` with the simplex sigma glued in:
        K_I is then the same complex for every I that misses a vertex of
        sigma, and a face's row depends only on the face and the field, so
        the glued engine makes sigma's row on demand like any other. Call it
        before this engine builds a subset, so the subsets of the two engines
        are not held twice. Any other pair of engines is a caller bug and
        raises ``InternalInconsistency``.
        """
        if self.char != before.char or self.K.faces != before.K.faces | {sigma}:
            raise InternalInconsistency("this engine's complex is not the other's with sigma glued")
        self._rows = before._rows
        for I in [I for I in before._cache if sigma & ~I]:
            self._cache[I] = before._cache.pop(I)

    def psi(self, I: int, p: int, vertices: int) -> dict[int, list[list]]:
        """Matrices of the restrictions H̃^p(K_I) -> H̃^p(K_{I\\{i}}) in the
        stored bases, one per vertex bit i of the mask ``vertices`` ⊆ I, keyed
        by i in increasing order.

        The block of i is that of R = canon(I) and i′, the member of R's class
        at i's place in I's class: R's representatives restricted to R∖i′,
        pushed by the shift h that moves each member of that class above i′
        down to the member below it, with the sign of h on each face, and
        expressed in the basis of canon(R∖i′) (module docstring). A block
        comes column by column: one coordinate list per representative of R,
        in their order. It is cached when R's orbit has another member. R, its
        representatives and I's classes are worked out once for all i.
        """
        R = self.canon(I)
        classes = []
        shared = False  # R's orbit has another member
        for c, members in self.twins:
            inside = I & c
            if inside:
                classes.append((c, members, inside))
                if inside != c:
                    shared = True
        reps = None
        blocks = {}
        rest = vertices
        while rest:
            i = rest & -rest
            rest ^= i
            ibit = top = i
            moves: list[tuple[int, int]] = []  # (from, to), each ``to`` vacant when it moves
            for c, members, inside in classes:
                if i & c:
                    k = inside.bit_count()
                    j = (inside & (i - 1)).bit_count()
                    ibit, top = members[j], members[k - 1]
                    moves = list(zip(members[j + 1 : k], members[j:k]))
                    break
            key = (R, ibit, p)
            block = self._blocks.get(key) if shared else None
            if block is None:
                if reps is None:
                    reps = self.subset(R).basis(p).representatives
                express = self.subset(R ^ top).basis(p).express
                block = []
                for rep in reps:
                    restricted = {s: c for s, c in rep.items() if not s & ibit}
                    if moves:
                        restricted = _shifted(restricted, moves, self.char)
                    block.append(express(restricted))
                if shared:
                    self._blocks[key] = block
            blocks[i] = block
        return blocks


def _shifted(vec: dict, moves: list[tuple[int, int]], char: int) -> dict:
    """h_* of a cochain, h moving each vertex v of ``moves`` down to its w in
    turn: s goes to h(s), and its value changes sign when h is odd on s's
    sorted vertices. Each move passes the vertices of s strictly between w
    and v; no other member of the class lies there."""
    out = {}
    for s, c in vec.items():
        for v, w in moves:
            if s & v:
                if (s & (v - 1) & -(w << 1)).bit_count() % 2:
                    c = char - c
                s ^= v | w
        out[s] = c
    return out
