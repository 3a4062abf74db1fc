"""Hypothesis checking and end-to-end verification of the simplex-gluing rank theorem."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import masks
from .cohomology import DEFAULT_MAX_M, CohomologyEngine
from .complexes import SimplicialComplex, glue_simplex
from .double import _by_rows, hh_ranks
from .errors import BadSigma, NotApplicable


@dataclass(frozen=True)
class Thm1Report:
    """Outcome of the four gluing hypotheses for (K, sigma), |sigma| = n + 1.

    ``relabeling`` (old label -> new label) sends sigma's vertices in order onto
    1..n+1 and the others in order onto n+2..m, so it preserves order only if
    sigma = {1..n+1}: on the square with sigma = {1,3} it is (1, 3, 2, 4). The
    hypotheses are label-invariant, so they are evaluated directly on sigma.
    """

    n: int
    conditions: tuple
    witnessing_J: int | None
    predicted_delta: int
    applicable: bool
    relabeling: tuple

    def failed_conditions(self) -> list[int]:
        return [i + 1 for i, ok in enumerate(self.conditions) if not ok]


@dataclass(frozen=True)
class Thm1Verification:
    report: Thm1Report
    rank_before: int
    rank_after: int
    rows_before: dict
    rows_after: dict
    verdict: bool


def check_theorem1(engine: CohomologyEngine, sigma: int) -> Thm1Report:
    """Evaluate the four hypotheses on the engine's complex K and predict the
    total-rank change.

    predicted_delta is -2 when some J = sigma ∪ {j,k} has rank H̃^n(K_J) = 1
    (witnessing_J is the lexicographically least such J), else 0.
    """
    K = engine.K
    if not masks.is_int(sigma) or sigma.bit_count() < 2 or sigma & ~masks.full_mask(K.m):
        raise BadSigma(f"sigma must have >= 2 vertices inside [{K.m}]")
    n = sigma.bit_count() - 1
    outside = [v for v in range(1, K.m + 1) if not sigma & masks.bit(v)]
    sigma_verts = masks.vertices(sigma)

    cond1 = sigma not in K.faces
    cond2 = all(
        (sigma | masks.bit(j)) & ~masks.bit(i) in K.faces
        for j in outside
        for i in sigma_verts
    )
    cond3 = True
    cond4 = True
    witness = None
    for j, k in combinations(outside, 2):
        J = sigma | masks.bit(j) | masks.bit(k)
        r = engine.rank(J, n)
        if r > 1:
            cond3 = False
        elif r == 1 and witness is None:
            witness = J  # combinations of sorted labels -> lexicographically least first
        member = [J & ~masks.bit(i) in K.faces for i in sigma_verts]
        if any(member) != all(member):
            cond4 = False
    conditions = (cond1, cond2, cond3, cond4)
    applicable = all(conditions) and K.m >= n + 2
    predicted = -2 if applicable and witness is not None else 0
    relabeling = [0] * K.m
    for new, old in enumerate([*sigma_verts, *outside], start=1):
        relabeling[old - 1] = new
    return Thm1Report(
        n=n,
        conditions=conditions,
        witnessing_J=witness if applicable else None,
        predicted_delta=predicted,
        applicable=applicable,
        relabeling=tuple(relabeling),
    )


def verify_theorem1(
    K: SimplicialComplex,
    sigma: int,
    char: int = 0,
    max_m: int = DEFAULT_MAX_M,
) -> Thm1Verification:
    """Compare double cohomology before and after gluing sigma.

    The verdict is one comparison of the rows after gluing with the predicted
    table: the rows before, with row n-1 minus one, row n minus one when the
    report has a witness and plus one when it has none, every other row as it
    is, and zero rows dropped. The predicted rows sum to the rank before plus
    ``predicted_delta``, so the total needs no check of its own, and a row the
    theorem moves is checked even when neither side has it.

    The hypothesis check and the "before" ranks share one engine on K. The
    glued complex gets its own engine, which takes over the subsets I with
    sigma ⊄ I, because gluing sigma leaves those K_I as they are. Both engines
    are built here, not passed in, so that no caller still holds K's engine
    when it is dropped before the glued engine builds a subset.

    The glued side ranks no row above n (the one-cell argument). For I ⊇
    sigma, the cochain complex of (K ∪ sigma)_I is that of K_I with one
    n-cell sigma added, which has no coface. So H̃^p is the same in every
    degree p > n, with the same bases and restriction maps, and row p of the
    glued row complex is row p of K's. Every join factor's rows start at
    -1, and total row + 1 is the sum of the factor rows + 1, so the total
    rows up to n come from factor rows up to n alone. The glued table is
    therefore ranked on the rows p <= n, and each row above n is taken from
    the rows before; the verdict's comparison of those rows is an identity.
    """
    engine = CohomologyEngine(K, char, max_m)
    report = check_theorem1(engine, sigma)
    if not report.applicable:
        raise NotApplicable(
            f"hypotheses {report.failed_conditions() or ['m >= n+2']} fail for sigma {masks.mask_str(sigma)}"
        )
    n = report.n
    before = hh_ranks(engine)
    glued_engine = CohomologyEngine(glue_simplex(K, sigma), char, max_m)
    glued_engine.inherit(engine, sigma)
    del engine  # free K's subsets that contain sigma before the glued engine builds any
    glued = _by_rows(glued_engine, lambda row: row.cohomology_ranks() if row.p <= n else {})
    rows_before = before.rows()
    rows_after = {p: r for p, r in glued.rows().items() if p <= n}
    rows_after.update((p, r) for p, r in rows_before.items() if p > n)
    predicted = dict(rows_before)
    predicted[n - 1] = predicted.get(n - 1, 0) - 1
    predicted[n] = predicted.get(n, 0) + (1 if report.witnessing_J is None else -1)
    return Thm1Verification(
        report=report,
        rank_before=before.total(),
        rank_after=sum(rows_after.values()),
        rows_before=rows_before,
        rows_after=rows_after,
        verdict=rows_after == {p: r for p, r in predicted.items() if r},
    )
