"""Call tracing for the benchmark's traced runs.

``Tracer.install`` wraps every public function of the conewalks modules at
each name a caller looks it up under: the defining module, the package
namespace, and any module that imported it by name (``steps.nonneg_solution``
comes from ``_simplex``). A wrapper records a span (name, start, end, parent,
op id) in memory; ``self_times`` subtracts child spans from each duration.
It also times each step of the layer DP and counts the cells of its box,
adding both to the innermost open span, split by whether the box fits in L2.
Untraced runs never call ``install``, so they run the library unwrapped.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

import conewalks

MODULES = ("cones", "steps", "_simplex", "laplace", "solver", "counting",
           "montecarlo", "families", "cli")
LAYERS = ("laplace", "steps", "cones", "solver", "counting", "montecarlo", "families", "cli")
# spans that keep their arguments and result for the per-layer analysis
KEEP_CALLS = frozenset({"solver.minimize_on_dual", "counting.count_walks",
                        "montecarlo.band_survival", "montecarlo.tilted_survival"})


def _layer(fn):
    module = fn.__module__.rsplit(".", 1)[-1]
    return "steps" if module == "_simplex" else module


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "op", "call",
                 "peak", "dp")

    def __init__(self, name, layer, parent, op):
        self.name, self.layer, self.parent, self.op = name, layer, parent, op
        self.start = self.end = 0.0
        self.call = None
        self.peak = 0
        # DP steps by box: "in_l2"/"over_l2" -> [cells, seconds]
        self.dp = {"in_l2": [0, 0.0], "over_l2": [0, 0.0]}


class Tracer:
    def __init__(self, l2_bytes):
        self.l2_bytes = l2_bytes
        self.spans = []
        self.active = False
        self.op = None
        self._stack = []
        self._restore = []
        self.originals = {}  # span name -> unwrapped function

    def install(self):
        package_modules = [importlib.import_module(f"conewalks.{m}") for m in MODULES]
        wrappers = {}
        for module in package_modules:
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__.startswith("conewalks.") and obj not in wrappers):
                    span_name = f"{_layer(obj)}.{obj.__name__}"
                    wrappers[obj] = self._wrap(obj, span_name)
                    self.originals[span_name] = obj
        for namespace in package_modules + [conewalks]:
            for name, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._restore.append((namespace, name, obj))
                    setattr(namespace, name, wrappers[obj])
        self._count_cells(importlib.import_module("conewalks.counting"))

    def _count_cells(self, counting):
        """Time each DP step and count the cells of the box it leaves (after
        trimming); skipped when the DP has no ``_LayerDP.advance`` keeping its
        box in ``layer``."""
        dp_class = getattr(counting, "_LayerDP", None)
        advance = getattr(dp_class, "advance", None)
        if advance is None:
            return
        spans, stack, clock, l2_cells = self.spans, self._stack, time.perf_counter, self.l2_bytes // 8

        def counted(dp):
            t0 = clock()
            advance(dp)
            seconds = clock() - t0
            size = getattr(getattr(dp, "layer", None), "size", None)
            if self.active and stack and size is not None:
                span = spans[stack[-1]]
                bucket = span.dp["in_l2" if size <= l2_cells else "over_l2"]
                bucket[0] += size
                bucket[1] += seconds
                span.peak = max(span.peak, size)

        self._restore.append((dp_class, "advance", advance))
        dp_class.advance = counted

    def uninstall(self):
        for namespace, name, obj in reversed(self._restore):
            setattr(namespace, name, obj)
        self._restore.clear()

    def _wrap(self, fn, name):
        layer = _layer(fn)
        keep = name in KEEP_CALLS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            result = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if keep:
                    span.call = (args, kwargs, result)

        return traced

    def run_op(self, op_id, kind, fn):
        """Run one benchmark operation as a root span of layer ``bench``."""
        self.op = op_id
        span = Span(f"op.{kind}", "bench", None, op_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        self.active = True
        span.start = time.perf_counter()
        try:
            return fn()
        finally:
            span.end = time.perf_counter()
            self.active = False
            self._stack.pop()
            self.op = None

    def bound_args(self, span):
        """The kept call of a span as (name -> argument, result)."""
        args, kwargs, result = span.call
        bound = inspect.signature(self.originals[span.name]).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments, result

    def write(self, path):
        """All spans as gzipped CSV: index, name, start, end, parent, op."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index,name,start_s,end_s,parent,op\n")
            for i, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.op}\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
