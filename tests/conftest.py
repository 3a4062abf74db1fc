import os
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

import machh as M
from machh.cohomology import _shifted
from machh.double import RowComplex, assemble_row
from machh.oracle import _matrix_rank


def subprocess_env(**extra) -> dict:
    """Environment in which ``python -m machh.cli`` imports this checkout's machh."""
    env = dict(os.environ, **extra)
    src = str(Path(M.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_complex(rng: random.Random, m: int, max_facet: int = 4) -> M.SimplicialComplex:
    """Random complex on [m] with all singletons present."""
    facets = [[i] for i in range(1, m + 1)]
    for _ in range(rng.randint(1, 2 * m)):
        size = rng.randint(2, min(m, max_facet))
        facets.append(rng.sample(range(1, m + 1), size))
    return M.SimplicialComplex.from_facets(m, facets)


def permute_complex(K: M.SimplicialComplex, perm: dict) -> M.SimplicialComplex:
    """Relabel vertices through a permutation of [m]."""
    faces = frozenset(
        M.masks.mask_of((perm[v] for v in M.masks.vertices(f)), K.m) for f in K.faces
    )
    return M.SimplicialComplex(K.m, faces)


def random_permutation(rng: random.Random, m: int) -> dict:
    target = list(range(1, m + 1))
    rng.shuffle(target)
    return {i + 1: target[i] for i in range(m)}


def is_valid_complex(K: M.SimplicialComplex) -> bool:
    if 0 not in K.faces:
        return False
    for v in range(1, K.m + 1):
        if M.masks.bit(v) not in K.faces:
            return False
    for f in K.faces:
        for v in M.masks.vertices(f):
            if f & ~M.masks.bit(v) not in K.faces:
                return False
    return True


@st.composite
def complexes(draw, min_m: int = 2, max_m: int = 6):
    m = draw(st.integers(min_m, max_m))
    extra = draw(
        st.lists(
            st.sets(st.integers(1, m), min_size=2, max_size=min(m, 4)),
            max_size=2 * m,
        )
    )
    facets = [[i] for i in range(1, m + 1)] + [sorted(f) for f in extra]
    return M.SimplicialComplex.from_facets(m, facets)


@st.composite
def relabelled_joins(draw, max_m: int = 8):
    """The join of 2-3 drawn complexes, none a simplex, and of 0-2 cone
    points, relabelled."""
    cones = draw(st.integers(0, 2))
    K = simplex(cones - 1) if cones else None
    count = draw(st.integers(2, min(3, (max_m - cones) // 2)))
    budget = max_m - cones
    for left in range(count - 1, -1, -1):
        drawn = complexes(2, min(6, budget - 2 * left))
        L = draw(drawn.filter(lambda L: M.masks.full_mask(L.m) not in L.faces))
        budget -= L.m
        K = L if K is None else M.join(K, L)
    perm = draw(st.permutations(range(1, K.m + 1)))
    return permute_complex(K, {v: perm[v - 1] for v in range(1, K.m + 1)})


def brute_force_factors(K: M.SimplicialComplex) -> tuple[int, ...]:
    """K's join factors from a scan of every vertex mask.

    V splits K when every face is a face on V joined with a face off V; as
    f -> (f ∩ V, f \\ V) is one-to-one, that is |K_V| * |K_{[m] minus V}| = |K|.
    A factor is the least splitting mask around a vertex, unless it is a
    face (a cone point).
    """
    full = M.masks.full_mask(K.m)

    def size(V):
        return sum(1 for f in K.faces if not f & ~V)

    splits = [V for V in range(1, full + 1) if size(V) * size(full ^ V) == len(K.faces)]
    least = set()
    for v in range(K.m):
        atom = full
        for V in splits:
            if V >> v & 1:
                atom &= V
        least.add(atom)
    return tuple(sorted(V for V in least if V not in K.faces))


def glue_sites(K: M.SimplicialComplex) -> list[int]:
    """Every sigma with |sigma| >= 2 that K lacks but whose boundary K holds."""
    return [
        s
        for s in range(1 << K.m)
        if s.bit_count() >= 2
        and s not in K.faces
        and all(s & ~M.masks.bit(v) in K.faces for v in M.masks.vertices(s))
    ]


def full_glued_rows(K: M.SimplicialComplex, sigma: int, char: int = 0) -> dict:
    """Rows of HH* of K with sigma glued, from a fresh engine that takes no
    subset from K's and ranks every row."""
    return M.hh_ranks(M.CohomologyEngine(M.glue_simplex(K, sigma), char)).rows()


def whole_table(engine: M.CohomologyEngine) -> dict:
    """The engine's Betti table over every vertex, not one join factor."""
    return engine.betti_table(M.masks.full_mask(engine.K.m))


def row_of(engine: M.CohomologyEngine, p: int, V: int | None = None) -> RowComplex:
    """The engine's degree-p row on the subsets of V (every vertex by default)."""
    return assemble_row(engine, p, M.masks.full_mask(engine.K.m) if V is None else V)


def unfactored_h_ranks(engine: M.CohomologyEngine) -> M.BigradedRankTable:
    """H*(Z_K) summed over every non-cone subset, with no join factorisation."""
    entries: dict = {}
    for I, bettis in whole_table(engine).items():
        l = I.bit_count()
        for p, b in bettis.items():
            key = (-(l - p - 1), 2 * l)
            entries[key] = entries.get(key, 0) + b
    return M.BigradedRankTable(entries)


def full_subcomplex(K: M.SimplicialComplex, I: int) -> M.SimplicialComplex:
    """Restriction of K to the subset I, relabeled to [|I|] preserving order."""
    place = {v: 1 << i for i, v in enumerate(M.masks.vertices(I))}
    faces = {sum(place[v] for v in M.masks.vertices(f)) for f in K.faces if not f & ~I}
    return M.SimplicialComplex(len(place), frozenset(faces))


def coboundary_vector(sc, s: int, faces: frozenset) -> dict:
    """delta(s*) for a face s of the subset ``sc``, walked over the vertices
    of ``sc.I``: the entry at s ∪ {j} is (-1)**(# elements of s below j),
    written ``char - 1`` for -1. As s ∪ {j} ⊆ I, it is a simplex of K_I
    exactly when it is in ``faces``, K's faces. This is how a basis built its
    quotient before it read the coboundary rows of the free faces."""
    sign, other = 1, sc.char - 1
    vec = {}
    rest = sc.I
    while rest:
        low = rest & -rest
        rest ^= low
        if low & s:
            sign, other = other, sign
        elif (f := s | low) in faces:
            vec[f] = sign
    return vec


def psi_block(eng: M.CohomologyEngine, I: int, i: int, p: int) -> list[list]:
    """``eng.psi``'s block of the one restriction from K_I to K_{I∖i}."""
    bit = M.masks.bit(i)
    return eng.psi(I, p, bit)[bit]


def reference_psi(eng: M.CohomologyEngine, I: int, i: int, p: int) -> list[list]:
    """The block of the restriction from K_I to K_{I∖i} by one call per
    (I, i), with no block cache, as the engine made it before ``psi`` took
    all targets of a source at once: canon(I) and I's twin classes are worked
    out again for every i."""
    masks = M.masks
    R = eng.canon(I)
    ibit = top = masks.bit(i)
    moves = []
    for c, members in eng.twins:
        inside = I & c
        if inside and ibit & c:
            k = inside.bit_count()
            j = (inside & (ibit - 1)).bit_count()
            ibit, top = members[j], members[k - 1]
            moves = list(zip(members[j + 1 : k], members[j:k]))
    src = eng.subset(R).basis(p)
    express = eng.subset(R ^ top).basis(p).express
    block = []
    for rep in src.representatives:
        restricted = {s: c for s, c in rep.items() if not s & ibit}
        if moves:
            restricted = _shifted(restricted, moves, eng.char)
        block.append(express(restricted))
    return block


def full_blocks(row: RowComplex) -> dict:
    """``{l: block differential from l to l - 1}`` of a row, every block in
    full as a dense list of lists: nothing cleared, and no ``_block`` call.

    Rows follow the order of ``groups[l - 1]`` and columns that of
    ``groups[l]``. The block (I∖i, I) is ``reference_psi(I, i)`` times
    (-1)**(p+1) * epsilon(i, I), with epsilon(i, I) = (-1)**(# elements of I
    below i), and a negative entry is written ``char - v``.
    """
    eng, p, char = row.engine, row.p, row.engine.char
    out = {}
    for l, sources in row.groups.items():
        if l - 1 not in row.groups:
            continue
        first_row, pos = {}, 0
        for J, b in row.groups[l - 1]:
            first_row[J], pos = pos, pos + b
        mat = [[0] * row.dims[l] for _ in range(pos)]
        col = 0
        for I, b in sources:
            for i in M.masks.vertices(I):
                J = I & ~M.masks.bit(i)
                if J not in first_row:
                    continue
                below = (I & (M.masks.bit(i) - 1)).bit_count()
                negative = (p + 1 + below) % 2 == 1
                for c, column in enumerate(reference_psi(eng, I, i, p), col):
                    for r, v in enumerate(column, first_row[J]):
                        if v:
                            mat[r][c] = char - v if negative else v
            col += b
        out[l] = mat
    return out


def reference_rank(mat: list[list], char: int) -> int:
    """Rank of a dense matrix over Q (char 0) by the oracle's elimination, or
    over GF(char) by a textbook one; no ``SparseReducer`` is involved."""
    if not char:
        return _matrix_rank([[Fraction(x) for x in row] for row in mat])
    columns = list(range(len(mat[0]) if mat else 0))
    return len(textbook_rref([dict(enumerate(row)) for row in mat], columns, char))


def uncleared_row_ranks(row: RowComplex) -> dict:
    """A row's cohomology ranks ``{l: rank}`` from its full blocks
    ``full_blocks(row)``, every one ranked by ``reference_rank``."""
    ranks = {l: reference_rank(mat, row.engine.char) for l, mat in full_blocks(row).items()}
    out = {}
    for l, dim in row.dims.items():
        r = dim - ranks.get(l, 0) - ranks.get(l + 1, 0)
        if r:
            out[l] = r
    return out


def unfactored_hh_ranks(engine: M.CohomologyEngine) -> M.BigradedRankTable:
    """HH*(Z_K) from full rows assembled over the whole vertex set, with no
    join factorisation and no clearing."""
    entries: dict = {}
    for p in range(-1, engine.K.dim() + 1):
        for l, r in uncleared_row_ranks(row_of(engine, p)).items():
            entries[(-(l - p - 1), 2 * l)] = r
    return M.BigradedRankTable(entries)


@pytest.fixture(scope="session")
def square() -> M.SimplicialComplex:
    return M.square()


@pytest.fixture(scope="session")
def square_diag(square) -> M.SimplicialComplex:
    return M.glue_simplex(square, M.masks.mask_of([1, 3], 4))


@pytest.fixture(scope="session")
def case2_complex() -> M.SimplicialComplex:
    # complete graph on 4 vertices minus the edge {1,2}, plus both triangles on {3,4}
    return M.SimplicialComplex.from_facets(4, [[1, 3, 4], [2, 3, 4]])


def simplex(n: int) -> M.SimplicialComplex:
    return M.SimplicialComplex.from_facets(n + 1, [list(range(1, n + 2))])


def dense_mul(A, B, zero) -> list[list]:
    """A @ B for dense lists-of-lists."""
    if not A or not B:
        return []
    n, k, p = len(A), len(B), len(B[0])
    out = [[zero] * p for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(p):
                    if Bt[j]:
                        Oi[j] = Oi[j] + a * Bt[j]
    return out


def dense_is_zero(A) -> bool:
    return all(not x for row in A for x in row)


def textbook_rref(rows: list[dict], columns: list, char: int) -> list[tuple]:
    """(pivot, row) of the reduced row echelon form of ``rows`` by dense
    Gauss-Jordan elimination: ``Fraction`` over Q, ints mod char over GF(char)."""

    def scale(x, d):
        return x * pow(d, -1, char) % char if char else Fraction(x) / d

    mat = [[row.get(c, 0) for c in columns] for row in rows]
    out = []
    for j in range(len(columns)):
        piv = next((r for r in mat if r[j]), None)
        if piv is None:
            continue
        mat.remove(piv)
        piv = [scale(x, piv[j]) for x in piv]
        for r in mat + out:
            if r[j]:
                f = r[j]
                r[:] = [(a - f * b) % char if char else a - f * b for a, b in zip(r, piv)]
        out.append(piv)
    out.sort(key=lambda r: next(j for j, x in enumerate(r) if x))
    return [
        (columns[next(j for j, x in enumerate(r) if x)], {c: x for c, x in zip(columns, r) if x})
        for r in out
    ]


def rref_kernel_basis(red, columns) -> list[dict]:
    """Kernel vectors of the free columns read off ``rref_rows``: 1 at the free
    column and minus the column's entry in each fully reduced row."""
    rref = red.rref_rows()
    out = []
    for f in columns:
        if f in red.rows:
            continue
        v = {f: 1}
        for piv, row in rref:
            if row.get(f):
                v[piv] = red.p - row[f]
        out.append(v)
    return out

