"""One benchmark worker: a single closed-loop client calling ``machh.cli.main``.

Usage: python3 bench/worker.py PLAN.json

The worker imports machh, prints ``ready`` and waits for one line on stdin:
``quit`` ends it (a set-up sample), ``go`` runs the plan. Requests run one
after another in this process, each with its own ``--out`` file, and nothing
but the CLI call sits inside a request's timed interval; outputs are checked
afterwards by the parent. In ``measure`` mode the loop makes whole passes over
the requests until ``seconds`` have passed, and times the reference kernel
between requests (see ``reference.py``); in ``trace`` mode it runs each
request of the fixed list once untraced and once traced. Results go to the
plan's ``result`` path.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path
from time import perf_counter

import machh
import machh.cli
from reference import reference_kernel, reference_matrix
from tracing import Tracer

REF_SHARE = 0.15


def call(argv: list) -> int:
    try:
        return machh.cli.main(argv)
    except Exception:  # a crash is a failed request, not the end of the run
        traceback.print_exc()
        return -1


def measure(requests: list, out_dir: Path, seconds: float) -> dict:
    """Whole passes over the request list until ``seconds`` have passed, so
    every run weighs each request equally. Between requests the reference
    kernel runs until it has taken REF_SHARE of the loop's wall time."""
    ref_rows = reference_matrix()
    samples, ref_times = [], []
    ref_total = 0.0
    start = now = perf_counter()
    deadline = start + seconds
    while now < deadline:
        for k, argv in enumerate(requests):
            t = perf_counter()
            rc = call(argv + ["--out", str(out_dir / f"{len(samples)}.json")])
            now = perf_counter()
            samples.append([k, now - t, rc])
            while ref_total < REF_SHARE * (now - start):
                t = perf_counter()
                reference_kernel(ref_rows)
                now = perf_counter()
                ref_times.append(now - t)
                ref_total += now - t
    return {"samples": samples, "loop_s": now - start - ref_total, "ref_times": ref_times}


def trace(requests: list, out_dir: Path) -> dict:
    """Each request once untraced, then once traced: pairs cancel the host's drift."""
    n = len(requests)
    tracer = Tracer()
    samples = [None] * (2 * n)
    for k, argv in enumerate(requests):
        t = perf_counter()
        rc = call(argv + ["--out", str(out_dir / f"{k}.json")])
        samples[k] = [k, perf_counter() - t, rc]
        tracer.request = k
        tracer.install(machh)
        try:
            t = perf_counter()
            rc = call(argv + ["--out", str(out_dir / f"{n + k}.json")])
            samples[n + k] = [k, perf_counter() - t, rc]
        finally:
            tracer.uninstall()
    return {
        "samples": samples,
        "self_ns": tracer.self_ns,
        "counts": tracer.counts,
        "live": sorted(tracer.live_metrics()),
        "missing": tracer.missing,
        "spans": tracer.spans,
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    out_dir = Path(plan["out_dir"])
    if plan["mode"] == "trace":
        result = trace(plan["requests"], out_dir)
    else:
        result = measure(plan["requests"], out_dir, plan["seconds"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
