"""Layer tracing by wrapping machh's callables where their callers look them up.

Every wrapped call adds its self time (duration minus the time covered by
wrapped calls inside it) to its layer metric. Calls of the cold hooks are also
kept as span records ``(id, parent, request, name, start_ns, end_ns)``; the
hot hooks (reducer steps, Betti lookups) only add to the totals, which keeps
the overhead of tracing small. A hook whose target no longer exists is listed
in ``missing`` and its metrics are left out; the run goes on.
"""

from __future__ import annotations

import functools
from time import perf_counter_ns

# (module, attribute path, time metric, count metric, keep span records)
HOOKS = [
    ("cli", "main", "cli.self_s", None, True),
    ("cli", "load_complex", "serialization.load_s", None, True),
    ("cli", "render_json", "serialization.render_s", None, True),
    ("theorem", "check_theorem1", "theorem.check_s", None, True),
    ("theorem", "glue_simplex", "complexes.glue_s", None, True),
    ("double", "assemble_row", "double.assemble_s", None, True),
    ("double", "RowComplex.cohomology_ranks", "double.row_rank_s", None, True),
    ("double", "dense_rank", "linalg.dense_rank_s", "linalg.dense_rank_calls", True),
    ("cohomology", "CohomologyEngine.__init__", None, "cohomology.engines", False),
    ("cohomology", "CohomologyEngine.psi", "cohomology.psi_s", "cohomology.psi_calls", True),
    ("cohomology", "SubsetCohomology.__init__", "cohomology.group_s", "cohomology.subsets_built", True),
    ("cohomology", "SubsetCohomology.betti", "cohomology.betti_s", None, False),
    ("cohomology", "SubsetCohomology.delta_reducer", "cohomology.delta_s", None, False),
    ("cohomology", "SubsetCohomology.basis", "cohomology.basis_s", None, True),
    ("cohomology", "CohomologyBasis.__init__", None, "cohomology.bases", False),
    ("cohomology", "kernel_basis", "linalg.reducer_s", None, False),
    ("linalg", "SparseReducer.add", "linalg.reducer_s", "linalg.reducer_adds", False),
    ("linalg", "SparseReducer.residual", "linalg.reducer_s", None, False),
    ("linalg", "SparseReducer.express", "linalg.reducer_s", None, False),
    ("linalg", "SparseReducer.rref_rows", "linalg.reducer_s", None, False),
]

TIME_METRICS = sorted({h[2] for h in HOOKS if h[2]})
COUNT_METRICS = sorted({h[3] for h in HOOKS if h[3]} | {"linalg.dense_cells", "linalg.dense_nnz"})


class Tracer:
    def __init__(self):
        self.request = None
        self.self_ns = {name: 0 for name in TIME_METRICS}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.spans = []
        self.missing = []
        self._stack = [[0, None]]  # per open call: [child ns, span id]
        self._undo = []

    def install(self, package) -> None:
        self.missing = []
        for module, path, time_metric, count_metric, keep in HOOKS:
            owner = getattr(package, module, None)
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name, None)
            target = getattr(owner, attr, None) if owner is not None else None
            if not callable(target):
                self.missing.append(f"{module}.{path}")
                continue
            if time_metric is None:
                wrapper = self._counter(target, count_metric)
            else:
                wrapper = self._timer(target, time_metric, count_metric, keep, path)
            if path == "dense_rank":
                wrapper = self._sized(wrapper)
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, target))

    def uninstall(self) -> None:
        for owner, attr, target in reversed(self._undo):
            setattr(owner, attr, target)
        self._undo.clear()

    def live_metrics(self) -> set:
        """Metrics fed by at least one installed hook."""
        live = set()
        for module, path, time_metric, count_metric, _ in HOOKS:
            if f"{module}.{path}" not in self.missing:
                live |= {time_metric, count_metric}
        if "linalg.dense_rank_calls" in live:
            live |= {"linalg.dense_cells", "linalg.dense_nnz"}
        return live - {None}

    def _counter(self, fn, count_metric):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[count_metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timer(self, fn, time_metric, count_metric, keep, name):
        stack, self_ns, counts, spans = self._stack, self.self_ns, self.counts, self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_metric:
                counts[count_metric] += 1
            parent = stack[-1]
            if keep:
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = parent[1]
            frame = [0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                self_ns[time_metric] += duration - frame[0]
                parent[0] += duration
                if keep:
                    spans[span_id] = (span_id, parent[1], tracer.request, name, start, end)

        return wrapper

    def _sized(self, timed):
        """Count cells and nonzeros of each dense matrix, outside every span."""
        stack, counts = self._stack, self.counts

        @functools.wraps(timed)
        def sized(mat, *args, **kwargs):
            start = perf_counter_ns()
            if isinstance(mat, list) and mat and isinstance(mat[0], list):
                counts["linalg.dense_cells"] += len(mat) * len(mat[0])
                counts["linalg.dense_nnz"] += sum(1 for row in mat for x in row if x)
            stack[-1][0] += perf_counter_ns() - start
            return timed(mat, *args, **kwargs)

        return sized
