"""Span tracing for the traced benchmark mode.

The tracer records a span (name, start, end, parent, operation id) around
every call into a specvol layer.  It does so from the benchmark's side: it
replaces the public functions that the benchmark and `specvol.harness` call
with wrappers, for the length of a traced pass, and puts the originals back
afterwards.  The program's sources are not changed.

Spans stay in memory.  Worker processes of the rate workload inherit the
wrappers by fork; each appends its spans to a file per process after every
replication, and the parent merges those files when the run ends.  Times come
from `time.perf_counter`, which is the system-wide monotonic clock on Linux,
so spans of different processes share one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from specvol import equivalence, estimators, harness, simulate, spectral, volmodel

FIELDS = ("id", "parent", "name", "start", "end", "op", "pass", "detail")

# metric -> span names whose self time it sums, per operation
PER_OP = {
    "simulate.ms_per_op": ("simulate",),
    "volmodel.cumulative_variance.ms_per_op": ("volmodel.cumulative_variance",),
    "spectral.main.ms_per_op": ("spectral.main",),
    "spectral.spot.ms_per_op": ("spectral.spot",),
    "estimators.spot.ms_per_op": ("estimators.spot",),
    "estimators.iv.ms_per_op": ("estimators.iv",),
    "harness.design.ms_per_op": ("harness.design",),
    "harness.self_ms_per_op": ("harness.run_rate_regression", "harness.run_iv_mc", "harness.replication"),
    "equivalence.covariance.ms_per_op": ("equivalence.covariance",),
    "equivalence.hellinger.ms_per_op": ("equivalence.hellinger",),
    "equivalence.bound.ms_per_op": ("equivalence.bound",),
}
PER_PASS = {"harness.summarize.ms": ("harness.summarize",)}
COLD = {"spectral.cold_ms": "spectral.cold", "estimators.cold_ms": "estimators.cold"}
UNITS = {"harness.summarize.ms": "ms/pass", "spectral.cold_ms": "ms", "estimators.cold_ms": "ms",
         "trace.overhead_pct": "%"}


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.spans = []
        self.stack = []
        self.count = 0
        self.op = None
        self.pass_label = None
        self.child = False
        self.active = False
        self.seen = set()       # geometries this process has already computed
        self._saved = []
        self._patches = self._build_patches()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.spans = []
        self.child = True

    @contextmanager
    def span(self, name, op=None, detail=None):
        sid = f"{os.getpid()}.{self.count}"
        self.count += 1
        parent = self.stack[-1] if self.stack else None
        outer_op = self.op
        if op is not None:
            self.op = op
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((sid, parent, name, start, end, self.op, self.pass_label, detail))
            self.op = outer_op

    # -- wrappers ---------------------------------------------------------

    def _first_call(self, key):
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def _wrap(self, fn, name_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, detail = name_of(*args, **kwargs)
            with self.span(name, detail=detail):
                return fn(*args, **kwargs)
        return traced

    def _build_patches(self):
        def fixed(name):
            return lambda *a, **k: (name, None)

        def coefficients(obs, grid, *a, **k):
            if self._first_call(("spectral", obs.n, grid.K)):
                return "spectral.cold", f"n={obs.n},K={grid.K}"
            return ("spectral.spot" if grid.J == 1 else "spectral.main"), None

        def spot(coeffs, n, delta, *a, **k):
            if self._first_call(("estimators", n, coeffs.grid.K, float(delta))):
                return "estimators.cold", f"n={n},K={coeffs.grid.K}"
            return "estimators.spot", None

        run_replication = harness._run_replication

        def replication(cfg, index):
            with self.span("harness.replication", op=f"{self.pass_label}/{cfg.n}/{index}"):
                result = run_replication(cfg, index)
            if self.child:
                self._flush_child()
            return result

        table = [
            (harness, "run_rate_regression", fixed("harness.run_rate_regression")),
            (harness, "run_iv_mc", fixed("harness.run_iv_mc")),
            (harness, "resolve_design", fixed("harness.design")),
            (harness, "summarize", fixed("harness.summarize")),
            (harness, "simulate_observations", fixed("simulate")),
            (simulate, "simulate_observations", fixed("simulate")),
            (volmodel, "cumulative_variance", fixed("volmodel.cumulative_variance")),
            (harness, "block_coefficients", coefficients),
            (spectral, "block_coefficients", coefficients),
            (harness, "spot_estimate", spot),
            (estimators, "spot_estimate", spot),
            (harness, "integrated_volatility_estimate", fixed("estimators.iv")),
            (equivalence, "observation_covariance", fixed("equivalence.covariance")),
            (equivalence, "symmetrized_covariance", fixed("equivalence.covariance")),
            (equivalence, "hellinger_exact", fixed("equivalence.hellinger")),
            (equivalence, "hellinger_upper_bound", fixed("equivalence.bound")),
        ]
        patches = [(m, attr, self._wrap(getattr(m, attr), name_of)) for m, attr, name_of in table]
        patches.append((harness, "_run_replication", replication))
        return patches

    def install(self):
        for module, attr, wrapper in self._patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        self.active = True

    def uninstall(self):
        self.active = False
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output -----------------------------------------------------------

    def _flush_child(self):
        with open(self.out_dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
        self.spans = []

    def collect(self, path: Path):
        """Merge the workers' span files into this process's spans and write them all to `path`."""
        for part in sorted(self.out_dir.glob("spans-*.jsonl")):
            with open(part) as fh:
                self.spans.extend(tuple(json.loads(line)) for line in fh)
            part.unlink()
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, s))) + "\n")
        return [dict(zip(FIELDS, s)) for s in self.spans]


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return [s["end"] - s["start"] - _covered(children[s["id"]], s["start"], s["end"]) for s in spans]


def layer_metrics(spans, timed_passes, ops):
    """Per-layer metrics from the spans of the timed traced passes (and, for
    the cold metrics, from every span of the run)."""
    selfs = self_times(spans)
    timed = defaultdict(float)
    cold = defaultdict(list)
    for s, t in zip(spans, selfs):
        if s["pass"] in timed_passes:
            timed[s["name"]] += t
        if s["name"].endswith(".cold"):
            cold[(s["name"], s["detail"])].append(t)
    out = {}
    for metric, names in PER_OP.items():
        out[metric] = 1e3 * sum(timed[n] for n in names) / ops
    for metric, names in PER_PASS.items():
        out[metric] = 1e3 * sum(timed[n] for n in names) / len(timed_passes)
    for metric, name in COLD.items():
        out[metric] = 1e3 * sum(statistics.median(v) for (n, _), v in cold.items() if n == name)
    return out, timed
