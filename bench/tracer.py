"""Spans around calls into eitlab's public functions, recorded from outside.

``Tracer.install()`` replaces every public function of the layer modules, and
the method ``BoundaryFunction.eval_at``, with a wrapper that records one span
per call: name, start, end and the index of the enclosing span. Modules call
each other through module attributes, so calls between layers and within one
layer are both seen. Spans stay in memory; ``metrics()`` derives the per-layer
figures and ``dump()`` writes the spans out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("dn", "boundary", "holomorphic", "argument", "nearboundary",
          "metrics", "experiments", "cli")

# count metric -> (traced function, its count for one call from the call's
# bound arguments and result)
COUNTS = {
    "boundary.eval_at.point_modes": (
        "boundary.eval_at", lambda a, r: np.size(a["l"]) * a["self"].n_modes),
    "dn.dn_fem.boundary_dofs": (
        "dn.dn_fem", lambda a, r: a["order"] * len(a["mesh"].boundary_loop)),
    "argument.classify.targets": (
        "argument.classify", lambda a, r: int(np.count_nonzero(~r.near_contour))),
    "argument.reconstruct.points": ("argument.reconstruct", lambda a, r: r.n_points),
    "argument.reconstruct.dropped": ("argument.reconstruct", lambda a, r: r.n_dropped),
    "metrics.hausdorff.points": (
        "metrics.hausdorff", lambda a, r: len(a["a"]) + len(a["b"])),
    "nearboundary.charts_failed": (
        "nearboundary.near_boundary_diagnostic",
        lambda a, r: sum(entry["n_failed"] for entry in r.anchors)),
}


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent, outermost)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._active = defaultdict(int)
        self.names = []            # traced function names, "<layer>.<function>"

    def _wrap(self, name: str, fn):
        counters = [(metric, count) for metric, (target, count) in COUNTS.items()
                    if target == name]
        sig = inspect.signature(fn) if counters else None
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            outermost = active[name] == 0
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outermost)
            if counters:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for metric, count in counters:
                    self.counts[metric] += int(count(bound.arguments, result))
            return result

        return traced

    def _replace(self, owner, attr: str, name: str):
        setattr(owner, attr, self._wrap(name, getattr(owner, attr)))
        self.names.append(name)

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"eitlab.{layer}")
            for attr, obj in list(vars(module).items()):
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self._replace(module, attr, f"{layer}.{attr}")
        boundary = importlib.import_module("eitlab.boundary")
        self._replace(boundary.BoundaryFunction, "eval_at", "boundary.eval_at")

    def metrics(self) -> dict:
        """Per function: inclusive ``.s``, ``.calls`` and ``.self_s``; per layer
        ``.self_s``; plus the counts. Inclusive time counts only the outermost
        of nested calls to one function; self time is a span's duration minus
        that of its direct children."""
        out = {}
        for name in self.names:
            out.update({f"{name}.s": 0.0, f"{name}.calls": 0, f"{name}.self_s": 0.0})
        out.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, outermost) in enumerate(self.spans):
            own = (end - start) - children[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
            if outermost:
                out[f"{name}.s"] += end - start
        out.update(self.counts)
        return out

    def dump(self, path: str, header: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({**header,
                       "span_fields": ["name", "start_s", "end_s", "parent"],
                       "spans": [[n, s - t0, e - t0, p]
                                 for n, s, e, p, _ in self.spans]}, fh)
