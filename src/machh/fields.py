"""Exact coefficient arithmetic: rationals (default) and odd prime fields."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class GFElement:
    """Element of GF(p) for an odd prime p; arithmetic never leaves the field."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def __add__(self, other: "GFElement") -> "GFElement":
        return GFElement(self.value + other.value, self.p)

    def __sub__(self, other: "GFElement") -> "GFElement":
        return GFElement(self.value - other.value, self.p)

    def __neg__(self) -> "GFElement":
        return GFElement(-self.value, self.p)

    def __mul__(self, other: "GFElement") -> "GFElement":
        return GFElement(self.value * other.value, self.p)

    def __truediv__(self, other: "GFElement") -> "GFElement":
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.value * pow(other.value, self.p - 2, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, GFElement) and self.value == other.value and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.value, self.p))

    def __repr__(self) -> str:
        return f"{self.value}₍{self.p}₎"


@dataclass(frozen=True)
class Field:
    """Scalar constructors for one coefficient field; elements carry the ops."""

    name: str
    zero: object
    one: object
    from_int: Callable[[int], object]


RATIONALS = Field("Q", Fraction(0), Fraction(1), Fraction)

DEFAULT_PRIME = 32003
PRIME_LIMIT = 1 << 31  # keeps the trial-division primality test instant


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_field(p: int = DEFAULT_PRIME) -> Field:
    if p >= PRIME_LIMIT:
        raise ValueError(f"GF(p) requires p < 2**31, got {p}")
    if p == 2 or not _is_prime(p):
        raise ValueError(f"GF(p) requires an odd prime, got {p}")
    return Field(f"GF({p})", GFElement(0, p), GFElement(1, p), lambda n: GFElement(n, p))
