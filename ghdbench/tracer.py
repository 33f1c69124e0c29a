"""Span tracing of ghd's layers from outside the program.

``Tracer.wrap`` replaces a function at the module or class attribute its
callers look up, and records one span per call: name, parent span, start
and end.  Spans stay in memory; ``summary`` reduces them to per-layer
inclusive time, self time (duration minus the time its child spans cover)
and call counts, plus the counters the wrappers record.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []          # (parent index or None, name, start, end)
        self.counters = defaultdict(float)
        self.iters: list = []          # fixed-point iterations per solved point
        self._stack: list = []
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Trace ``owner.attr`` as layer ``name``; ``count(tracer, args,
        result)`` records counters after each call."""
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (parent, name, start, time.perf_counter())
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, fn))

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per layer: ``calls``, inclusive ``total_s`` (outermost spans of
        the name only, so recursion is not counted twice) and ``self_s``."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        layers: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (parent, name, start, end) in enumerate(self.spans):
            layer = layers[name]
            layer["calls"] += 1
            layer["self_s"] += (end - start) - child_time[i]
            if not self._has_ancestor(parent, name):
                layer["total_s"] += end - start
        return dict(layers)

    def _has_ancestor(self, parent, name: str) -> bool:
        while parent is not None:
            if self.spans[parent][1] == name:
                return True
            parent = self.spans[parent][0]
        return False


# ---------------------------------------------------------------------------
# ghd's layers: (module, class or None, attribute, layer name, counter)

def _rows(key):
    def count(tracer, args, result):
        first = result[0] if isinstance(result, tuple) else result
        tracer.counters[key] += first.shape[0]
    return count


def _invert_points(tracer, args, result):
    x = result[0]
    tracer.counters["seed.invert_points"] += x.size // x.shape[-1]


def _solve_batch(tracer, args, result):
    iters = result[1]
    tracer.counters["fixed_point.points"] += iters.size
    tracer.iters.extend(iters.tolist())


def _bytes_out(tracer, args, result):
    tracer.counters["cli.bytes_out"] += os.path.getsize(args[0])


LAYERS = (
    ("ghd.cli", None, "main", "cli.main", None),
    ("ghd.config", None, "load_config", "config.load", None),
    ("ghd.cli", None, "build_seed", "seed.build", None),
    ("ghd.seed", None, "dress_batched", "dressing.seed", _rows("dressing.seed_rows")),
    ("ghd.seed", None, "cumulative_simpson", "seed.simpson", None),
    ("ghd.seed", "SeedTables", "invert", "seed.invert", _invert_points),
    ("ghd.fixed_point", "Solver", "sweep", "fixed_point.sweep", None),
    ("ghd.fixed_point", "Solver", "states_batch", "fixed_point.states_batch", None),
    ("ghd.fixed_point", "Solver", "solve_batch", "fixed_point.solve_batch", _solve_batch),
    ("ghd.fixed_point", "Solver", "apply_G", "fixed_point.apply_G", None),
    ("ghd.fixed_point", "Solver", "solve", "fixed_point.solve", None),
    ("ghd.fixed_point", "Solver", "state", "fixed_point.state", None),
    ("ghd.fixed_point", None, "dress_batched", "dressing.state", _rows("dressing.state_rows")),
    ("ghd.cli", None, "_write_csv", "cli.write", _bytes_out),
    ("ghd.cli", None, "weak_form_residual", "diagnostics.weak_form", None),
    ("ghd.cli", None, "integrate_upwind", "reference.integrate", None),
    ("ghd.reference", None, "effective_velocity", "reference.effective_velocity", None),
    ("ghd.reference", None, "dress_batched_iterative", "dressing.oracle",
     _rows("dressing.oracle_rows")),
    ("ghd.cli", None, "fixed_point_rho", "reference.fixed_point_rho", None),
)

# call counts reported under the names the benchmark publishes
CALL_METRICS = {
    "seed.invert": "seed.invert_calls",
    "fixed_point.solve_batch": "fixed_point.solve_batch_calls",
    "fixed_point.apply_G": "fixed_point.apply_G_calls",
    "fixed_point.states_batch": "fixed_point.states_batch_calls",
    "fixed_point.solve": "fixed_point.point_calls",
    "fixed_point.state": "fixed_point.point_calls",
    "diagnostics.weak_form": "diagnostics.rectangles",
    "reference.effective_velocity": "reference.steps",
    "dressing.oracle": "dressing.oracle_calls",
}

COUNTERS = ("dressing.seed_rows", "seed.invert_points", "fixed_point.points",
            "dressing.state_rows", "cli.bytes_out", "dressing.oracle_rows")


def install(tracer: Tracer) -> None:
    for module, cls, attr, name, count in LAYERS:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, count)


def layer_metrics(tracer: Tracer) -> dict:
    """Flat per-layer metrics of one traced run; absent layers read 0."""
    layers = tracer.summary()
    out: dict = {}
    for _, _, _, name, _ in LAYERS:
        layer = layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}_s"] = layer["total_s"]
        out[f"{name}_self_s"] = layer["self_s"]
        if name in CALL_METRICS:
            key = CALL_METRICS[name]
            out[key] = out.get(key, 0) + layer["calls"]
    for key in COUNTERS:
        out[key] = tracer.counters.get(key, 0.0)
    out["fixed_point.iters_mean"] = (sum(tracer.iters) / len(tracer.iters)
                                     if tracer.iters else 0.0)
    out["fixed_point.iters_max"] = max(tracer.iters, default=0)
    out["trace.spans"] = len(tracer.spans)
    return out
