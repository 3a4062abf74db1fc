"""Finite simplicial complexes on [m] and the combinatorial constructors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from . import masks
from .errors import (
    BoundaryMissing,
    FaceAlreadyPresent,
    GhostVertex,
    NotAVertex,
    ResourceLimit,
    VertexOutOfRange,
)


def _check_ground_set(m: int) -> None:
    """Refuse a complex on more vertices than a mask may hold, before building it."""
    if m > masks.MAX_GROUND_SET:
        raise ResourceLimit(f"m = {m} exceeds the {masks.MAX_GROUND_SET}-vertex cap")


@dataclass(frozen=True, slots=True, repr=False)
class SimplicialComplex:
    """Downward-closed face family on [m] containing the empty face.

    Instances are frozen values, equal and hash-equal when m and the faces
    are; all constructors return new values. For m >= 1 every singleton must
    be a face (checked by ``from_facets``); m = 0 is the empty complex
    ``{∅}`` arising from restriction to the empty subset.
    """

    m: int
    faces: frozenset[int]

    @classmethod
    def from_facets(cls, m: int, facets: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the listed facets; rejects ghost vertices.

        A face is expanded only when it is first seen: its subfaces are then
        either new, and expanded in turn, or already closed below.
        """
        if not masks.is_int(m) or m < 1:
            raise ValueError(f"ground set size must be an int >= 1, got {m!r}")
        _check_ground_set(m)
        faces: set[int] = {0}
        for facet in facets:
            top = masks.mask_of(facet, m)
            if top in faces:
                continue
            faces.add(top)
            todo = [top]
            while todo:
                f = todo.pop()
                rest = f
                while rest:
                    low = rest & -rest
                    rest ^= low
                    g = f ^ low
                    if g not in faces:
                        faces.add(g)
                        todo.append(g)
        for v in range(1, m + 1):
            if masks.bit(v) not in faces:
                raise GhostVertex(v)
        return cls(m, frozenset(faces))

    @property
    def facets(self) -> tuple[int, ...]:
        """Inclusion-maximal faces, lexicographically ordered."""
        out = []
        for f in self.faces:
            if not any(
                f | masks.bit(v) in self.faces
                for v in range(1, self.m + 1)
                if not f & masks.bit(v)
            ):
                out.append(f)
        return tuple(sorted(out, key=masks.vertices))

    def dim(self) -> int:
        return max(f.bit_count() for f in self.faces) - 1

    def __repr__(self) -> str:
        return f"SimplicialComplex(m={self.m}, facets=[{', '.join(masks.mask_str(f) for f in self.facets)}])"


def join(K: SimplicialComplex, L: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join: L's vertices are shifted past K's ground set."""
    _check_ground_set(K.m + L.m)
    shift = K.m
    faces = frozenset(s | (t << shift) for s in K.faces for t in L.faces)
    return SimplicialComplex(K.m + L.m, faces)


def wedge(K: SimplicialComplex, vK: int, L: SimplicialComplex, vL: int) -> SimplicialComplex:
    """One-point union identifying vertex vL of L with vertex vK of K."""
    if not (masks.is_int(vK) and 1 <= vK <= K.m):
        raise NotAVertex(f"{vK!r} is not a vertex of the first complex")
    if not (masks.is_int(vL) and 1 <= vL <= L.m):
        raise NotAVertex(f"{vL!r} is not a vertex of the second complex")
    _check_ground_set(K.m + L.m - 1)
    relabel = {vL: vK}
    nxt = K.m + 1
    for v in range(1, L.m + 1):
        if v != vL:
            relabel[v] = nxt
            nxt += 1
    m = K.m + L.m - 1
    faces = set(K.faces)
    for t in L.faces:
        faces.add(masks.mask_of((relabel[v] for v in masks.vertices(t)), m))
    return SimplicialComplex(m, frozenset(faces))


def glue_simplex(K: SimplicialComplex, sigma: int) -> SimplicialComplex:
    """K with the single top face sigma added; its boundary must be present."""
    if not masks.is_int(sigma) or sigma < 0:
        raise VertexOutOfRange(f"sigma {sigma!r} is not a vertex mask")
    if sigma == 0 or sigma & ~masks.full_mask(K.m):
        raise VertexOutOfRange(f"sigma {masks.mask_str(sigma)} not a nonempty subset of [{K.m}]")
    if sigma in K.faces:
        raise FaceAlreadyPresent(f"{masks.mask_str(sigma)} is already a face")
    for v in masks.vertices(sigma):
        facet = sigma & ~masks.bit(v)
        if facet not in K.faces:
            raise BoundaryMissing(f"boundary face {set(masks.vertices(facet))} missing")
    return SimplicialComplex(K.m, K.faces | {sigma})


class K2rComplex(NamedTuple):
    """A member of the even-rank family, with its recorded non-edge.

    For even r the non-edge is a gluing site of the member: gluing it gives
    member r - 1, and the total double-cohomology rank drops from 2r to
    2r - 2. For odd r it is a pair carried over from the recursion (the
    inner member's non-edge, or the other diagonal of the square for r = 1),
    which fails the gluing theorem's hypothesis 3.
    """

    complex: SimplicialComplex
    non_edge: tuple[int, int]


def square() -> SimplicialComplex:
    """The 4-cycle 1-2-3-4."""
    return SimplicialComplex.from_facets(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def two_points() -> SimplicialComplex:
    return SimplicialComplex.from_facets(2, [[1], [2]])


def k2r_vertex_count(r: int) -> int:
    """Ground-set size m of ``k2r_family(r)``, by its recursion, building nothing."""
    if not masks.is_int(r) or r < 1:
        raise ValueError(f"r must be an int >= 1, got {r!r}")
    m = 4
    while r > 2:
        r = (r + 1) // 2  # (r + 1) // 2 == r // 2 for even r
        m += 2
    return m


def k2r_family(r: int) -> K2rComplex:
    """Recursive family whose member of index r has total double-cohomology rank 2r.

    Base cases: index 2 is the square with non-edge (1,3); index 1 is the square
    with the diagonal {1,3} glued in, recorded pair (2,4). Even index r joins
    member r/2 with two points, whose pair is its non-edge. Odd index r is
    member r + 1 glued along that non-edge, and records member (r+1)/2's
    pair, which is not a gluing site of member r (see ``K2rComplex``).
    """
    _check_ground_set(k2r_vertex_count(r))
    if r == 1:
        return K2rComplex(glue_simplex(square(), masks.mask_of([1, 3], 4)), (2, 4))
    if r == 2:
        return K2rComplex(square(), (1, 3))
    if r % 2 == 0:
        inner = k2r_family(r // 2)
        a, b = inner.complex.m + 1, inner.complex.m + 2
        return K2rComplex(join(inner.complex, two_points()), (a, b))
    inner = k2r_family((r + 1) // 2)
    a, b = inner.complex.m + 1, inner.complex.m + 2
    glued = glue_simplex(join(inner.complex, two_points()), masks.bit(a) | masks.bit(b))
    return K2rComplex(glued, inner.non_edge)
