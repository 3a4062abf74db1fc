"""Seeded inputs for the benchmark workloads, built without importing machh.

A complex is a set of faces encoded as bit masks (vertex v <-> bit v-1), the
same encoding machh uses, so the files written here are plain
``{"m": ..., "facets": [...]}`` documents that ``machh`` reads like any user
input. Each workload turns one ``random.Random(seed)`` into a request list.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

THM1_FIELD = "gf:32003"


@dataclass
class Request:
    """One CLI call: its arguments (without --out) and what its output must show."""

    argv: list
    m: int
    faces: frozenset
    expect: dict


def bit(v: int) -> int:
    return 1 << (v - 1)


def closure(facets) -> frozenset:
    faces = {0}
    for facet in facets:
        top = 0
        for v in facet:
            top |= bit(v)
        sub = top
        while True:
            faces.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & top
    return frozenset(faces)


def verts(mask: int) -> list:
    return [v + 1 for v in range(mask.bit_length()) if mask >> v & 1]


def facets_of(m: int, faces: frozenset) -> list:
    out = [
        f for f in faces
        if not any(f | bit(v) in faces for v in range(1, m + 1) if not f & bit(v))
    ]
    return sorted(verts(f) for f in out)


def join_two_points(m: int, faces: frozenset) -> tuple[int, frozenset]:
    """Join with two new vertices m+1, m+2 that span no edge."""
    return m + 2, frozenset(f | t for f in faces for t in (0, bit(m + 1), bit(m + 2)))


def k2r(r: int) -> tuple[int, frozenset]:
    """Member r of the even-rank family (total double cohomology rank 2r)."""
    if r <= 2:
        square = [[1, 2], [2, 3], [3, 4], [1, 4]]
        return 4, closure(square + ([[1, 3]] if r == 1 else []))
    m, faces = join_two_points(*k2r((r + 1) // 2))
    if r % 2:
        faces = faces | {bit(m - 1) | bit(m)}
    return m, faces


def random_faces(rng: random.Random, m: int, count: int, block: int) -> frozenset:
    """All singletons plus ``count`` random facets; facet j has 2 + (block + j) % 3 vertices."""
    facets = [[v] for v in range(1, m + 1)]
    for j in range(count):
        facets.append(rng.sample(range(1, m + 1), 2 + (block + j) % 3))
    return closure(facets)


def random_pool(rng: random.Random, m: int, count: int) -> list:
    """``count`` random complexes, relabelled and ordered by ``rng``.

    The complexes come in blocks of 16 with 1..16 extra facets, drawn from a
    generator fixed per m; the seed relabels them and orders each block, so
    the first 16 always hold one complex per facet count. Request costs
    span a factor of 20 and depend on each complex's structure, so a pool
    drawn afresh per seed spread the median request time by a quarter
    across seeds. With fixed structures the spread measures the program and
    the host, not the draw.
    """
    base = random.Random(f"random-pool:{m}")
    pool = []
    for block in range((count + 15) // 16):
        counts = list(range(1, 17))
        base.shuffle(counts)
        faces = [relabel(random_faces(base, m, k, block), permutation(rng, m)) for k in counts]
        rng.shuffle(faces)
        pool += faces
    return pool[:count]


def relabel(faces: frozenset, perm: dict) -> frozenset:
    out = set()
    for f in faces:
        g = 0
        for v in verts(f):
            g |= bit(perm[v])
        out.add(g)
    return frozenset(out)


def permutation(rng: random.Random, m: int) -> dict:
    target = list(range(1, m + 1))
    rng.shuffle(target)
    return {v: target[v - 1] for v in range(1, m + 1)}


def _write(path: Path, m: int, faces: frozenset) -> str:
    path.write_text(json.dumps({"m": m, "facets": facets_of(m, faces)}))
    return str(path)


def k2r_requests(rng: random.Random, tmp: Path) -> list:
    """``machh hh`` on k2r r = 9..16 (m = 10), relabelled, in a seeded order."""
    order = list(range(9, 17))
    rng.shuffle(order)
    out = []
    for r in order:
        m, faces = k2r(r)
        faces = relabel(faces, permutation(rng, m))
        path = _write(tmp / f"k2r-{r}.json", m, faces)
        out.append(Request(["hh", path], m, faces, {"hh_total": 2 * r}))
    return out


def random_requests(rng: random.Random, tmp: Path, count: int = 48) -> list:
    """``machh hh`` on ``count`` random complexes with m = 8 (see ``random_pool``)."""
    out = []
    for i, faces in enumerate(random_pool(rng, 8, count)):
        path = _write(tmp / f"rand-{i}.json", 8, faces)
        out.append(Request(["hh", path], 8, faces, {}))
    return out


def thm1_requests(rng: random.Random, tmp: Path, count: int = 32) -> list:
    """``machh check-thm1`` on a random m=7 complex joined with two points.

    sigma is the non-edge between the two apexes; the joined complex is then
    relabelled, so sigma lands on two seeded vertices. Every such pair meets
    the theorem's hypotheses.
    """
    out = []
    for i, faces in enumerate(random_pool(rng, 7, count)):
        m, faces = join_two_points(7, faces)
        perm = permutation(rng, m)
        faces = relabel(faces, perm)
        sigma = sorted((perm[m - 1], perm[m]))
        path = _write(tmp / f"thm1-{i}.json", m, faces)
        argv = ["check-thm1", path, f"{sigma[0]},{sigma[1]}", "--field", THM1_FIELD]
        out.append(Request(argv, m, faces, {}))
    return out


WORKLOADS = {
    "k2r-m10": k2r_requests,
    "random-m8": random_requests,
    "thm1-gf": thm1_requests,
}


def requests(workload: str, seed: int, tmp: Path) -> list:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tmp)


def work_w(m: int, faces: frozenset) -> int:
    """W = sum over faces f of 2^(m - |f|): the total size of all full subcomplexes."""
    return sum(1 << (m - f.bit_count()) for f in faces)


def is_cone(faces: frozenset, I: int) -> bool:
    """K_I is a cone: some v in I joins every face of K_I inside K."""
    local = [f for f in faces if f & ~I == 0]
    return any(
        all(f | bit(v) in faces for f in local) for v in verts(I)
    )


def cone_share(m: int, faces: frozenset) -> float:
    return sum(is_cone(faces, I) for I in range(1 << m)) / (1 << m)


PRIME = 2**31 - 1


def _rank_mod_p(rows) -> int:
    pivots = {}
    for row in rows:
        row = dict(row)
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], PRIME - 2, PRIME)
                pivots[c] = {k: v * inv % PRIME for k, v in row.items()}
                break
            f = row[c]
            for k, v in prow.items():
                nv = (row.get(k, 0) - f * v) % PRIME
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


def has_reduced_cohomology(faces: frozenset, I: int) -> bool:
    """Some reduced Betti number of K_I is nonzero (ranks taken mod 2^31-1)."""
    if I == 0:
        return True  # K_{} = {{}} has H^-1 of rank one
    if is_cone(faces, I):
        return False
    by_card: dict = {}
    for f in faces:
        if f & ~I == 0:
            by_card.setdefault(f.bit_count(), []).append(f)
    ranks = {}
    for c in by_card:
        rows = []
        for t in by_card.get(c + 1, ()):
            vs = verts(t)
            rows.append({t & ~bit(v): (1 if pos % 2 == 0 else PRIME - 1) for pos, v in enumerate(vs)})
        ranks[c] = _rank_mod_p(rows)
    return any(len(g) - ranks[c] - ranks.get(c - 1, 0) for c, g in by_card.items())


def nonzero_betti_share(m: int, faces: frozenset) -> float:
    return sum(has_reduced_cohomology(faces, I) for I in range(1 << m)) / (1 << m)
