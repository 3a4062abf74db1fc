"""Acceptance gate: every criterion prints one PASS/FAIL line with its runtime.

All checks use exact arithmetic (rational or integer equality); none are
approximate. Random inputs are seeded, so the gate is reproducible.
"""

import json
import os
import random
import subprocess
import sys
import time

import machh as M
from machh import masks
from machh.cli import main as cli_main
from machh.cohomology import CohomologyEngine
from machh.double import BigradedRankTable, hh_ranks
from machh.oracle import oracle_hh_rows, oracle_reduced_betti
from machh.serialization import complex_to_dict
from machh.theorem import check_theorem1, verify_theorem1

from conftest import (
    dense_is_zero,
    dense_mul,
    full_blocks,
    full_subcomplex,
    permute_complex,
    random_complex,
    random_permutation,
    row_of,
    simplex,
    subprocess_env,
)

CORPUS_SEED = 2026
CORPUS_SIZE = 200

_corpus_cache = None


def corpus():
    global _corpus_cache
    if _corpus_cache is None:
        rng = random.Random(CORPUS_SEED)
        _corpus_cache = [
            random_complex(rng, rng.randint(3, 8)) for _ in range(CORPUS_SIZE)
        ]
    return _corpus_cache


def report(capsys, name, ok, elapsed, detail=""):
    tail = f" {detail}" if detail else ""
    with capsys.disabled():
        print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s){tail}")
    assert ok, f"{name}{tail}"


def test_criterion_1_known_totals(capsys):
    cases = [
        (M.square(), 4, "square"),
        (M.two_points(), 2, "two points"),
        (M.glue_simplex(M.square(), masks.mask_of([1, 3], 4)), 2, "square+diagonal"),
    ] + [(simplex(n), 1, f"simplex n={n}") for n in range(1, 5)]
    ok = True
    start = time.perf_counter()
    for K, expected, label in cases:
        t0 = time.perf_counter()
        got = hh_ranks(CohomologyEngine(K)).total()
        each = time.perf_counter() - t0
        ok = ok and got == expected and each < 1.0
    report(capsys, "1 known-complex totals", ok, time.perf_counter() - start)


def test_criterion_2_family_ladder(capsys):
    start = time.perf_counter()
    ok = True
    for r in range(1, 9):
        built = M.k2r_family(r)
        ok = ok and hh_ranks(CohomologyEngine(built.complex)).total() == 2 * r
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(capsys, "2 family ladder r=1..8", ok, elapsed)


def _verify_case(K, sigma, want_delta):
    v = verify_theorem1(K, sigma)
    return v.verdict and v.rank_after - v.rank_before == want_delta


def test_criterion_3_gluing_theorem(capsys):
    start = time.perf_counter()
    ok = _verify_case(M.square(), masks.mask_of([1, 3], 4), -2)
    case2 = M.SimplicialComplex.from_facets(4, [[1, 3, 4], [2, 3, 4]])
    ok = ok and _verify_case(case2, masks.mask_of([1, 2], 4), 0)
    rng = random.Random(CORPUS_SEED + 1)
    checked = 0
    while checked < 50:
        inner = random_complex(rng, rng.randint(3, 5))
        K = M.join(inner, M.two_points())
        sigma = masks.mask_of([inner.m + 1, inner.m + 2], K.m)
        perm = random_permutation(rng, K.m)
        K = permute_complex(K, perm)
        sigma = masks.mask_of((perm[v] for v in masks.vertices(sigma)), K.m)
        if not check_theorem1(CohomologyEngine(K), sigma).applicable:
            continue
        ok = ok and verify_theorem1(K, sigma).verdict
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(capsys, "3 gluing theorem (2 named + 50 random)", ok, elapsed)


_row_cache = None


def _rows_and_tables():
    """Per corpus complex: the assembled rows and the resulting hh table."""
    global _row_cache
    if _row_cache is None:
        _row_cache = []
        for K in corpus():
            eng = CohomologyEngine(K)
            rows = [row_of(eng, p) for p in range(-1, K.dim() + 1)]
            entries = {}
            for row in rows:
                for l, r in row.cohomology_ranks().items():
                    entries[(-(l - row.p - 1), 2 * l)] = r
            _row_cache.append((K, rows, BigradedRankTable(entries)))
    return _row_cache


def test_criterion_4a_differential_squares_to_zero(capsys):
    start = time.perf_counter()
    ok = True
    for _, rows, _ in _rows_and_tables():
        for row in rows:
            blocks = full_blocks(row)
            for l, mat in blocks.items():
                nxt = blocks.get(l + 1)
                if mat and nxt:
                    ok = ok and dense_is_zero(dense_mul(mat, nxt, 0))
    report(capsys, "4a d'∘d' = 0 on 200 complexes", ok, time.perf_counter() - start)


def test_criterion_4b_euler_zero_and_even_total(capsys):
    start = time.perf_counter()
    ok = True
    for K, _, table in _rows_and_tables():
        if masks.full_mask(K.m) in K.faces:
            ok = ok and table.total() == 1
            continue
        ok = ok and table.euler_characteristic() == 0
        ok = ok and table.total() % 2 == 0
    report(capsys, "4b Euler = 0 and even total on 200 complexes", ok, time.perf_counter() - start)


def test_criterion_4c_join_convolution(capsys):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 2)
    ok = True
    for _ in range(200):
        ma = rng.randint(2, 6)
        mb = rng.randint(2, min(7, 9 - ma))
        A = random_complex(rng, ma)
        B = random_complex(rng, mb)
        ok = ok and hh_ranks(CohomologyEngine(M.join(A, B))).entries == hh_ranks(
            CohomologyEngine(A)
        ).convolve(hh_ranks(CohomologyEngine(B))).entries
    report(capsys, "4c join = bidegree convolution, 200 pairs", ok, time.perf_counter() - start)


def test_criterion_4d_wedge_table(capsys):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 3)
    ok = True
    for _ in range(200):
        A = random_complex(rng, rng.randint(2, 4))
        B = random_complex(rng, rng.randint(2, 4))
        w = M.wedge(A, rng.randint(1, A.m), B, rng.randint(1, B.m))
        ok = ok and hh_ranks(CohomologyEngine(w)).entries == {(0, 0): 1, (-1, 4): 1}
    report(capsys, "4d wedge table {(0,0):1,(-1,4):1}, 200 pairs", ok, time.perf_counter() - start)


def test_criterion_4e_glue_restriction_identity(capsys):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 4)
    ok = True
    checked = 0
    while checked < 200:
        K = random_complex(rng, rng.randint(3, 8))
        candidates = [
            s
            for s in range(1 << K.m)
            if s.bit_count() >= 2
            and s not in K.faces
            and all(s & ~masks.bit(v) in K.faces for v in masks.vertices(s))
        ]
        if not candidates:
            continue
        sigma = rng.choice(candidates)
        glued = M.glue_simplex(K, sigma)
        for J in range(1 << K.m):
            left = full_subcomplex(glued, J)
            base = full_subcomplex(K, J)
            if sigma & ~J == 0:
                verts = masks.vertices(J)
                relabel = {v: i + 1 for i, v in enumerate(verts)}
                moved = masks.mask_of(
                    (relabel[v] for v in masks.vertices(sigma)), len(verts)
                )
                ok = ok and left.faces == base.faces | {moved}
            else:
                ok = ok and left == base
        checked += 1
    report(capsys, "4e glued restriction identity, 200 complexes", ok, time.perf_counter() - start)


def test_criterion_4f_relabeling_invariance(capsys):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 5)
    ok = True
    for _ in range(200):
        K = random_complex(rng, rng.randint(3, 6))
        base = hh_ranks(CohomologyEngine(K)).entries
        for _ in range(20):
            P = permute_complex(K, random_permutation(rng, K.m))
            ok = ok and hh_ranks(CohomologyEngine(P)).entries == base
    report(capsys, "4f relabeling invariance, 200 x 20 permutations", ok, time.perf_counter() - start)


def test_criterion_5_oracle_equivalence(capsys):
    start = time.perf_counter()
    ok = True
    for K, rows, table in _rows_and_tables():
        ok = ok and sum(table.entries.values()) == sum(oracle_hh_rows(K).values())
        eng = CohomologyEngine(K)
        for I in range(1 << K.m):
            sub = full_subcomplex(K, I)
            for p in range(-1, K.dim() + 1):
                ok = ok and eng.rank(I, p) == oracle_reduced_betti(sub, p)
    report(capsys, "5 engine = oracle on 200 complexes", ok, time.perf_counter() - start)


def test_criterion_6_determinism(capsys, tmp_path):
    start = time.perf_counter()
    rng = random.Random(CORPUS_SEED + 6)
    sample = [M.square(), M.k2r_family(4).complex] + rng.sample(corpus(), 10)
    # the subprocess hashes strings under a seed other than this process's
    env = subprocess_env(PYTHONHASHSEED="2" if os.environ.get("PYTHONHASHSEED") == "1" else "1")
    ok = True
    for idx, K in enumerate(sample):
        src = tmp_path / f"in{idx}.json"
        src.write_text(json.dumps(complex_to_dict(K)))
        outputs = set()
        for run in ("a", "b"):
            dst = tmp_path / f"out{idx}_{run}.json"
            ok = ok and cli_main(["hh", str(src), "--out", str(dst)]) == 0
            outputs.add(dst.read_bytes())
        dst = tmp_path / f"out{idx}_sub.json"
        proc = subprocess.run(
            [sys.executable, "-m", "machh.cli", "hh", str(src), "--out", str(dst)],
            env=env,
        )
        ok = ok and proc.returncode == 0
        outputs.add(dst.read_bytes())
        ok = ok and len(outputs) == 1
    report(
        capsys,
        "6 byte-identical output across runs and hash seeds",
        ok,
        time.perf_counter() - start,
    )
