"""Exact coefficient fields: rationals (default) and odd prime fields.

A field is its characteristic ``char``: 0 for Q, an odd prime p for GF(p).
Scalars are plain ints (in ``[0, p)`` over GF(p)); over Q a value that is not
an integer is a ``Fraction``, made only where ``linalg`` divides by a pivot.
"""

from __future__ import annotations

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


def prime_field(p: int = DEFAULT_PRIME) -> int:
    """The characteristic of GF(p), once p is checked to be an odd prime below 2**31."""
    if p >= PRIME_LIMIT:
        raise ValueError(f"GF(p) requires p < 2**31, got {p}")
    if p == 2 or not _is_prime(p):
        raise ValueError(f"GF(p) requires an odd prime, got {p}")
    return p
