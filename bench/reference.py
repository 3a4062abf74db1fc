"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of the same machh request swung by up to 45% over
minutes. The worker times this kernel between requests, and the parent scales
the run's times by its mean time, which cancels most of that drift. It is
written here, not taken from machh, so that no change to machh can alter it.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The kernel's time at nominal host speed: scaled times are seconds at this speed.
REF_NOMINAL_S = 0.045


def reference_matrix() -> list:
    """A fixed sparse 40x40 matrix over Q; never change it."""
    rng = random.Random(1)
    return [
        {j: Fraction(rng.randint(1, 9) * rng.choice((-1, 1))) for j in range(40) if rng.random() < 0.15}
        for _ in range(40)
    ]


def reference_kernel(rows: list) -> int:
    """Rank by sparse elimination over Fraction dicts, the kind of work machh does."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                d = row[c]
                pivots[c] = {k: v / d for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)
