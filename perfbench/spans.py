"""In-memory span recorder and the arithmetic that turns spans into
per-layer metrics.

The recorder wraps public omx functions from outside the package: every call
becomes a span (name, start, end, parent id) tagged with the run id of the
workload pass. Spans stay in memory and are written once, when the pass ends.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time


class SpanRecorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([sid, name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def traced(self, fn, name: str, observe=None):
        """fn wrapped so that each call records a span; observe(rec, result,
        args) may update counters from the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if observe is not None:
                observe(self, out, args)
            return out

        return wrapper

    def patch(self, bindings, name: str, observe=None) -> None:
        """Replace one function, bound under several (owner, attribute) names,
        by a single traced wrapper."""
        owner, attr = bindings[0]
        wrapper = self.traced(getattr(owner, attr), name, observe)
        for owner, attr in bindings:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "counters": self.counters,
                       "fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def instrument(rec: SpanRecorder) -> None:
    """Wrap the omx layers the benchmark reports on.

    omx.cli binds steady_state, reflection_spectrum, g2_zero and
    nonhermitian_eigs by name, and omx.analytics binds liouvillian by name;
    those bindings are replaced too, so every call path is seen once.
    """
    import scipy.sparse.linalg as spla

    from omx import analytics, cli, dynamics, hilbert, models, params, scan

    def liouvillian_size(r, out, args):
        r.maximum("liouvillian_dim_max", out.shape[0])
        r.maximum("liouvillian_nnz_max", out.nnz)

    def residual(r, out, args):
        r.maximum("residual_max", out.residual)

    def bytes_written(r, out, args):
        r.add("bytes_written", os.path.getsize(args[1]))

    rec.patch([(cli, "main")], "cli.main")
    rec.patch([(dynamics, "steady_state"), (cli, "steady_state")],
              "dynamics.steady_state", residual)
    rec.patch([(spla, "spsolve")], "dynamics.spsolve")
    rec.patch([(dynamics, "null_space_gap")], "dynamics.null_space_gap")
    rec.patch([(dynamics, "liouvillian"), (analytics, "liouvillian")],
              "dynamics.liouvillian", liouvillian_size)
    rec.patch([(dynamics, "reflection_spectrum"), (cli, "reflection_spectrum")],
              "dynamics.reflection_spectrum")
    rec.patch([(dynamics, "g2_zero"), (cli, "g2_zero")], "dynamics.g2_zero")
    rec.patch([(dynamics, "nonhermitian_eigs"), (cli, "nonhermitian_eigs")],
              "dynamics.nonhermitian_eigs")
    for builder in ("build_rwa", "build_transistor", "build_nonhermitian"):
        rec.patch([(models, builder)], "models.build")
    rec.patch([(hilbert.DensityMatrix, "__post_init__")], "hilbert.density_matrix")
    for fn in ("six_state_g2", "min_g2_scan", "phonon_nonlinearity", "phase_gate_error"):
        rec.patch([(analytics, fn)], f"analytics.{fn}")
    rec.patch([(params.SystemParams, "replace")], "params.replace")
    rec.patch([(scan.ScanResult, "write_csv")], "scan.write", bytes_written)
    rec.patch([(scan.ScanResult, "write_json")], "scan.write", bytes_written)


# ------------------------------------------------------------- analysis ---

def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]); 0.0 for no values."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds and durations.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap in a single thread.
    """
    child_time = [0.0] * len(spans)
    for sid, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for sid, name, start, end, parent in spans:
        s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[sid]
        s["durations"].append(end - start)
    return out


def top_level_s(spans, root: str = "cli.main") -> float:
    """Summed duration of the spans directly under the scenario roots."""
    roots = {sid for sid, name, *_ in spans if name == root}
    return sum(end - start for _, _, start, end, parent in spans if parent in roots)
