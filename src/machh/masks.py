"""Subsets of [m] encoded as bit masks (vertex i <-> bit i-1)."""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import NotInSubset, VertexOutOfRange

MAX_GROUND_SET = 30


def bit(v: int) -> int:
    return 1 << (v - 1)


def mask_of(verts: Iterable[int], m: int) -> int:
    """Build a mask from 1-based vertex labels, validating the range."""
    mask = 0
    for v in verts:
        if isinstance(v, bool) or not isinstance(v, int) or v < 1 or v > m:
            raise VertexOutOfRange(f"vertex {v!r} not in 1..{m}")
        mask |= bit(v)
    return mask


def vertices(mask: int) -> tuple[int, ...]:
    """1-based vertex labels of a mask, in increasing order."""
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def card(mask: int) -> int:
    return mask.bit_count()


def contains(mask: int, v: int) -> bool:
    return bool(mask & bit(v))


def full_mask(m: int) -> int:
    return (1 << m) - 1


def submasks(mask: int) -> Iterator[int]:
    """All subsets of mask, including mask itself and 0."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def below_count(mask: int, v: int) -> int:
    """Number of elements of mask strictly below v."""
    return (mask & (bit(v) - 1)).bit_count()


def sign_epsilon(j: int, mask: int) -> int:
    """(-1)**(number of elements of the subset strictly below j); j must belong."""
    if not contains(mask, j):
        raise NotInSubset(f"vertex {j} not in {set(vertices(mask))}")
    return -1 if below_count(mask, j) & 1 else 1


def mask_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices(mask)) + "}"
