"""machh benchmark: closed-loop CLI requests in a fresh worker, timed from outside.

Usage (from the repository root):

    python3 bench/run.py --workload k2r-m10|random-m8|thm1-gf|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` reports the end-to-end metrics of one timed run (whole passes
over the workload's requests for at least ``--seconds``), with times scaled to
nominal host speed by the reference kernel (``reference.py``); ``--trace 1`` runs
each request of a fixed list once untraced and once traced, and reports the
per-layer metrics. Inputs come from ``--seed`` only. Every output is checked
after the timed loop. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``. A per-run record (and, for traced runs,
the span list) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gen
from reference import REF_NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SPAWNS = 5
TRACE_REQUESTS = {"k2r-m10": 3, "random-m8": 16, "thm1-gf": 16}
WORKER_LIMIT_S = 130  # plus --seconds: a worker still running then is stopped
READY_LIMIT_S = 20  # a worker not ready by then is stopped
TAIL_MIN_SAMPLES = 20
TIME_SHARES = {"trace.elimination_share", "trace.dense_rank_share"}


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("MACHH_THREADS", None)  # every workload runs on the CLI's default
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; the time from spawn to its ``ready`` line is set-up."""

    def __init__(self, plan_path: Path):
        start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(plan_path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=worker_env(),
            cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_LIMIT_S)
        line = self.proc.stdout.readline() if ready else b""
        self.setup_s = perf_counter() - start
        if line.strip() != b"ready":
            self.stop()
            raise BenchError("worker did not start (is machh importable from src/?)")

    def finish(self, command: str, limit_s: float):
        """Send the command, wait for exit; returns (exit code, peak RSS in MB)."""
        self.proc.stdin.write(command.encode() + b"\n")
        self.proc.stdin.close()
        timer = threading.Timer(limit_s, self.proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        return self.proc.returncode, usage.ru_maxrss / 1024

    def stop(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def run_worker(plan: dict, tmp: Path, limit_s: float) -> tuple:
    """Sample set-up SETUP_SPAWNS times, one worker at a time; the last one runs."""
    plan_path = tmp / "plan.json"
    plan_path.write_text(json.dumps(plan))
    setups = []
    for k in range(SETUP_SPAWNS):
        worker = Worker(plan_path)
        try:
            setups.append(worker.setup_s)
            command = "go" if k == SETUP_SPAWNS - 1 else "quit"
            code, rss_mb = worker.finish(command, limit_s)
        finally:
            worker.stop()
        if code != 0:
            raise BenchError(f"worker exited with {code}")
    return json.loads(Path(plan["result"]).read_text()), setups, rss_mb


def check(workload: str, req: gen.Request, doc: dict) -> bool:
    if workload == "k2r-m10":
        return doc["hh_total"] == req.expect["hh_total"] and doc["euler_hh"] == 0
    if workload == "random-m8":
        hh, h = doc["hh"], doc["h"]
        return (
            doc["euler_hh"] == 0
            and doc["hh_total"] % 2 == 0
            and all(r <= h.get(key, 0) for key, r in hh.items())
            and hh.get("(0,0)") == 1
        )
    return (
        doc["verdict"] == "pass"
        and doc["rank_after"] - doc["rank_before"] == doc["predicted_delta"]
    )


def oracle_agrees(req: gen.Request, doc: dict) -> bool:
    """Cross-check hh_rows against the dense oracle (kept out of every timed run)."""
    sys.path.insert(0, str(ROOT / "src"))
    from machh.oracle import oracle_hh_rows
    from machh.serialization import load_complex

    rows = oracle_hh_rows(load_complex(req.argv[1]))
    return {str(p): r for p, r in rows.items()} == doc["hh_rows"]


def check_outputs(workload: str, reqs: list, samples: list, out_dir: Path) -> list:
    """Indices of failed samples: nonzero exit, unreadable output or a failed check."""
    failed = []
    for i, (k, _, rc) in enumerate(samples):
        try:
            doc = json.loads((out_dir / f"{i}.json").read_text())
            ok = rc == 0 and check(workload, reqs[k], doc)
            if ok and i == 0 and workload == "random-m8":
                ok = oracle_agrees(reqs[k], doc)
        except (OSError, ValueError, KeyError, TypeError, AttributeError, ImportError):
            ok = False
        if not ok:
            failed.append(i)
    return failed


def tail(times: list) -> tuple:
    """Value at the highest percentile with ten samples beyond it, and that percentile.

    Below TAIL_MIN_SAMPLES samples that percentile would sit at or under the
    median, so the maximum is reported instead and marked as percentile 100.
    """
    xs = sorted(times)
    n = len(xs)
    if n < TAIL_MIN_SAMPLES:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def input_properties(reqs: list) -> dict:
    n = len(reqs)
    return {
        "input.m": sum(q.m for q in reqs) / n,
        "input.faces": sum(len(q.faces) for q in reqs) / n,
        "input.work_W": sum(gen.work_w(q.m, q.faces) for q in reqs) / n,
        "input.cone_share": sum(gen.cone_share(q.m, q.faces) for q in reqs) / n,
        "input.nonzero_betti_share": sum(gen.nonzero_betti_share(q.m, q.faces) for q in reqs) / n,
    }


def measure(workload: str, reqs: list, seconds: int, tmp: Path, out_dir: Path) -> tuple:
    plan = {
        "mode": "measure",
        "seconds": seconds,
        "requests": [q.argv for q in reqs],
        "out_dir": str(out_dir),
        "result": str(tmp / "result.json"),
    }
    result, setups, rss_mb = run_worker(plan, tmp, WORKER_LIMIT_S + seconds)
    samples = result["samples"]
    failed = check_outputs(workload, reqs, samples, out_dir)
    times = [t for _, t, _ in samples]
    tail_s, tail_pct = tail(times)
    wall = {
        "throughput_rps": len(samples) / result["loop_s"],
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail_s,
        "setup_s": statistics.median(setups),
    }
    # The mean, not the median: throughput integrates the host's speed over the loop.
    slowdown = statistics.mean(result["ref_times"]) / REF_NOMINAL_S
    metrics = {
        "throughput_rps": wall["throughput_rps"] * slowdown,
        "request_p50_s": wall["request_p50_s"] / slowdown,
        "request_tail_s": wall["request_tail_s"] / slowdown,
        "peak_rss_mb": rss_mb,
        "setup_s": wall["setup_s"] / slowdown,
    }
    notes = {
        "samples": len(samples),
        "tail_percentile": tail_pct,
        "failed_ratio": len(failed) / len(samples),
        "host_slowdown": slowdown,
        "wall_clock": wall,
        "ref_times_s": result["ref_times"],
        "setup_samples_s": setups,
        "request_times_s": times,
    }
    return metrics, len(samples), failed, notes


def traced(workload: str, reqs: list, seconds: int, tmp: Path, out_dir: Path) -> tuple:
    reqs = reqs[: TRACE_REQUESTS[workload]]
    plan = {
        "mode": "trace",
        "requests": [q.argv for q in reqs],
        "out_dir": str(out_dir),
        "result": str(tmp / "result.json"),
    }
    result, _, _ = run_worker(plan, tmp, WORKER_LIMIT_S + seconds)
    n = len(reqs)
    samples = result["samples"]
    # outputs 0..n-1 are the untraced calls, n..2n-1 the traced ones
    failed = check_outputs(workload, reqs, samples, out_dir)
    live = set(result["live"])
    metrics = {name: ns / 1e9 for name, ns in result["self_ns"].items() if name in live}
    metrics.update({name: c for name, c in result["counts"].items() if name in live})
    request_s = sum(t for _, t, _ in samples[n:])
    untraced_s = sum(t for _, t, _ in samples[:n])
    metrics.update({
        "trace.requests": n,
        "trace.request_s": request_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": request_s - untraced_s,
    })
    if "cohomology.engines" in metrics:
        metrics["cohomology.engines_per_request"] = metrics["cohomology.engines"] / n
    if metrics.get("linalg.dense_cells"):
        metrics["linalg.dense_nnz_ratio"] = metrics["linalg.dense_nnz"] / metrics["linalg.dense_cells"]
    elimination = ["linalg.reducer_s", "cohomology.betti_s", "cohomology.delta_s", "cohomology.group_s"]
    if all(name in metrics for name in elimination):
        metrics["trace.elimination_share"] = sum(metrics[x] for x in elimination) / request_s
    if "linalg.dense_rank_s" in metrics:
        metrics["trace.dense_rank_share"] = metrics["linalg.dense_rank_s"] / request_s
    metrics.update(input_properties(reqs))
    notes = {"missing_hooks": result["missing"], "spans": result["spans"]}
    return metrics, len(samples), failed, notes


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    tmp = ROOT / ".bench_tmp" / str(os.getpid())
    out_dir = tmp / "out"
    out_dir.mkdir(parents=True)
    try:
        reqs = gen.requests(workload, seed, tmp)
        run = traced if trace else measure
        metrics, attempted, failed, notes = run(workload, reqs, seconds, tmp, out_dir)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine(),
        "attempted": attempted,
        "failed_samples": failed,
        "metrics": metrics,
        **{k: v for k, v in notes.items() if k != "spans"},
    }
    save(record, notes.get("spans"))
    units = metric_units()
    print(f"== {workload} seed={seed} trace={trace} machine={json.dumps(record['machine'])}")
    for name, value in metrics.items():
        exact = units[name] != "s" and name not in TIME_SHARES
        note = "  (exact: repeats for a seed)" if trace and exact else ""
        print(f"{workload} {name} = {value:.6g} {units[name]}{note}")
    if trace:
        if notes["missing_hooks"]:
            print(f"{workload} hooks missing (metrics absent): {', '.join(notes['missing_hooks'])}")
    else:
        wall = ", ".join(f"{k} = {v:.6g}" for k, v in notes["wall_clock"].items())
        print(
            f"{workload} samples = {notes['samples']}, tail at p{notes['tail_percentile']:.1f},"
            f" failed_ratio = {notes['failed_ratio']:.6g}, host slowdown = {notes['host_slowdown']:.4g}"
        )
        print(f"{workload} unscaled wall clock: {wall}")
    return {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def save(record: dict, spans) -> None:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(out / f"{stem}-spans.jsonl", "w") as fh:
            fh.write('["id", "parent", "request", "name", "start_ns", "end_ns"]\n')
            for span in spans:
                fh.write(json.dumps(span) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through the finally blocks that stop the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "machh" / "cli.py").is_file():
        print(f"no machh sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
