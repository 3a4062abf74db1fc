"""Subsets of [m] encoded as bit masks (vertex i <-> bit i-1)."""

from __future__ import annotations

from typing import Iterable

from .errors import VertexOutOfRange

MAX_GROUND_SET = 30


def is_int(x) -> bool:
    """Whether x is an int and not a bool, which ``int`` also counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def bit(v: int) -> int:
    return 1 << (v - 1)


def mask_of(verts: Iterable[int], m: int) -> int:
    """Build a mask from 1-based vertex labels, validating the range."""
    mask = 0
    for v in verts:
        if not is_int(v) or v < 1 or v > m:
            raise VertexOutOfRange(f"vertex {v!r} not in 1..{m}")
        mask |= bit(v)
    return mask


def vertices(mask: int) -> tuple[int, ...]:
    """1-based vertex labels of a mask, in increasing order. A negative int
    reads as its low ``bit_length()`` bits, so every call ends."""
    return tuple(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)


def full_mask(m: int) -> int:
    return (1 << m) - 1


def mask_str(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices(mask)) + "}"
