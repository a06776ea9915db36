"""Per-layer tracing, installed from the benchmark's own files.

:class:`Tracer` replaces the names that each toolkit module imports from the
layer below (``solver.kernel_rows``, ``solver.build_macaulay``,
``MacaulayMatrix.dense_rows``, ``modeling.rank_rows``,
``verification.build_system``, ...) with wrappers.  Every call through a
wrapper becomes a span (name, start, end, parent, job) kept in memory; the
spans are written once, at the end of the run.  A span's layer is the part
of its name before the dot, and a layer's self time is its spans' time minus
the time of their child spans.  Nothing in the toolkit's sources changes.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import Counter

import rslminors.estimator as estimator
import rslminors.fields as fields
import rslminors.instance as instance
import rslminors.modeling as modeling
import rslminors.solver as solver
import rslminors.verification as verification


def _cells(args, out) -> dict:
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


def _macaulay(args, mac) -> dict:
    return {"rows": len(mac.rows), "cols": len(mac.col_labels), "nnz": sum(map(len, mac.rows))}


def _tables(args, t) -> dict:
    return {"bytes": t.exp.nbytes + t.log.nbytes + t.zech.nbytes}


# (owner, attribute, span name, counters of the call)
TARGETS = [
    (fields.ExtensionField, "_ensure_tables", "fields.tables", _tables),
    (instance, "gen_instance", "instance.gen_instance", None),
    (verification, "gen_instance", "instance.gen_instance", None),
    (verification, "check_assumption1", "instance.check_assumption1", None),
    (solver, "verify_support", "instance.verify_support", None),
    (solver, "build_system", "modeling.build_system", None),
    (verification, "build_system", "modeling.build_system", None),
    (solver, "unfold_system", "modeling.unfold_system", None),
    (solver, "build_macaulay", "modeling.build_macaulay", _macaulay),
    (verification, "build_macaulay", "modeling.build_macaulay", _macaulay),
    (modeling.MacaulayMatrix, "dense_rows", "modeling.dense_rows", None),
    (modeling.MacaulayMatrix, "rank", "modeling.macaulay_rank", None),
    (solver, "kernel_rows", "matrix.kernel_rows", _cells),
    (modeling, "rank_rows", "matrix.rank_rows", _cells),
    (instance, "rank_rows", "matrix.rank_rows", _cells),
    (solver, "solve_rows", "matrix.solve_rows", None),
    (solver, "column_space_basis", "matrix.column_space_basis", None),
    (solver, "attack", "solver.attack", None),
    (solver, "solve_linearized", "solver.solve_linearized", None),
    (solver, "rank1_extract", "solver.rank1_extract", None),
    (solver, "plucker_reconstruct", "solver.plucker_reconstruct", None),
    (solver, "recover_support", "solver.recover_support", None),
    (verification, "run_thm2", "verification.run_thm2", None),
    (estimator, "run_table2", "estimator.run_table2", None),
    (estimator, "optimize", "estimator.optimize", None),
]

LAYERS = ("fields", "instance", "modeling", "matrix", "solver", "estimator", "verification")

# Metric name -> span names whose time it sums.  A time metric is the
# time spent in these calls during one set-up plus the median over traced
# jobs of the time per job; no call below runs in both phases of a workload.
TIME_METRICS = {
    "fields.tables_s": ["fields.tables"],
    "instance.gen_instance_s": ["instance.gen_instance"],
    "instance.verify_support_s": ["instance.verify_support"],
    "modeling.build_system_s": ["modeling.build_system"],
    "modeling.unfold_system_s": ["modeling.unfold_system"],
    "modeling.build_macaulay_s": ["modeling.build_macaulay"],
    "modeling.dense_rows_s": ["modeling.dense_rows"],
    "matrix.kernel_s": ["matrix.kernel_rows"],
    "matrix.rank_s": ["matrix.rank_rows"],
    "solver.solve_linearized_s": ["solver.solve_linearized"],
    "solver.extract_s": ["solver.rank1_extract", "solver.plucker_reconstruct"],
    "solver.recover_support_s": ["solver.recover_support"],
    "estimator.run_table2_s": ["estimator.run_table2"],
    "estimator.optimize_s": ["estimator.optimize"],
}
# Metric name -> counter key, summed like the time metrics.
COUNT_METRICS = {
    "modeling.macaulay_rows": "modeling.build_macaulay:rows",
    "modeling.macaulay_cols": "modeling.build_macaulay:cols",
    "modeling.macaulay_nnz": "modeling.build_macaulay:nnz",
    "matrix.kernel_cells": "matrix.kernel_rows:cells",
    "matrix.rank_cells": "matrix.rank_rows:cells",
    "solver.macaulay_per_job": "solver.macaulay",
    "estimator.count_calls": "estimator.run_table2:misses",
    "verification.rank_checks": "verification.rank_checks",
}


def _memo_misses() -> int:
    return estimator.count_Nb.cache_info().misses + estimator.count_Mb.cache_info().misses


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[int, dict] = {}
        self.status: dict[object, str] = {}
        self.jobs: list[object] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._job: object = None

    # -- installing -------------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, counter in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "fields.tables" and args[0]._tables is not None:
                return fn(*args, **kwargs)  # a table lookup, not a build
            misses = _memo_misses() if name == "estimator.run_table2" else 0
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, out)
            if name == "estimator.run_table2":
                self.counts[idx] = {"misses": _memo_misses() - misses}
            return out

        return wrapper

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- jobs -------------------------------------------------------------------

    def begin(self, job) -> None:
        """Open the root span of a job ("setup" for the set-up phase)."""
        self._job = job
        self.jobs.append(job)
        self._open("bench.setup" if job == "setup" else "bench.job")

    def end(self) -> None:
        self._close(self._stack[-1])

    # -- results ----------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "job"],
                    "spans": self.spans,
                    "counts": {str(i): c for i, c in self.counts.items()},
                    "status": {str(j): s for j, s in self.status.items()},
                },
                fh,
            )

    def _per_job(self) -> dict:
        """Sums per job of span time, layer self time and counters.  The
        useful kernel time of a job is that of its last kernel, when the job
        recovered the support from it."""
        dur = [end - start for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                child[span[3]] += dur[i]
        per: dict[object, Counter] = {job: Counter() for job in self.jobs}
        last_kernel: dict[object, float] = {}
        for i, (name, _, _, parent, job) in enumerate(self.spans):
            c = per[job]
            parent_name = self.spans[parent][0] if parent is not None else None
            c[name] += dur[i]
            c["self:" + name.split(".")[0]] += dur[i] - child[i]
            for key, value in self.counts.get(i, {}).items():
                c[f"{name}:{key}"] += value
            if name == "modeling.build_macaulay" and parent_name == "solver.attack":
                c["solver.macaulay"] += 1
            if name == "modeling.macaulay_rank" and parent_name == "verification.run_thm2":
                c["verification.rank_checks"] += 1
            if name == "matrix.kernel_rows" and parent_name == "solver.solve_linearized":
                last_kernel[job] = dur[i]
        for job, c in per.items():
            if self.status.get(job) == "ok":
                c["useful_kernel"] += last_kernel.get(job, 0.0)
        return per

    def summarize(self, traced_s: list[float], untraced_s: list[float]) -> dict[str, float]:
        per = self._per_job()
        setup = per.pop("setup", Counter())
        jobs = list(per.values())

        def value(keys) -> float:
            return sum(setup[k] for k in keys) + statistics.median(
                sum(c[k] for k in keys) for c in jobs
            )

        out: dict[str, float] = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = value(names)
        for metric, key in COUNT_METRICS.items():
            out[metric] = value([key])
        out["fields.tables_mb"] = value(["fields.tables:bytes"]) / 1e6
        for layer in LAYERS:
            out[f"{layer}.self_s"] = value(["self:" + layer])
        totals = setup + sum(jobs, Counter())
        for kind, span in (("kernel", "matrix.kernel_rows"), ("rank", "matrix.rank_rows")):
            busy = totals[span]
            out[f"matrix.{kind}_cells_per_s"] = totals[f"{span}:cells"] / busy if busy else 0.0
        kernel = totals["matrix.kernel_rows"]
        out["solver.useful_kernel_share"] = totals["useful_kernel"] / kernel if kernel else 0.0
        out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
        return out


UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS},
    "fields.tables_mb": "MB",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "matrix.kernel_cells_per_s": "cells/s",
    "matrix.rank_cells_per_s": "cells/s",
    "solver.useful_kernel_share": "share",
    "trace.overhead_s": "s",
}
