"""Per-layer metrics of a traced run, computed from its spans.

Every metric is taken over the workload's own traced operations when they
reach the layer (or function) concerned, and otherwise over the probe
operations the traced run adds; ``source`` says which, and ``samples`` how
many spans or operations the figure rests on. Shares and the tracing
overhead always describe the workload itself.

DP cells are the cells of the layer DP's own box after each step (after it
trims negligible mass). Per-cell figures divide the time of the DP's steps by
their cells; the float 2-D figures split the steps by whether their box
(in doubles) fits in L2.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

import conewalks as cw

from tracing import LAYERS, self_times

# A float DP whose largest box holds at most this many cells (32 KiB of
# doubles) counts as a small box: per-layer Python overhead dominates it.
SMALL_BOX_CELLS = 4096


def dp_class(mode, dim, peak):
    if mode == cw.counting.EXACT:
        return "exact"
    if dim == 3:
        return "d3"
    return "small" if peak <= SMALL_BOX_CELLS else "float"


def _dual_kind(cone):
    dual = cw.dual(cone)
    if dual.kind == cw.cones.ORTHANT:
        return "orthant"
    return "ray" if dual.vectors.shape[0] == 1 else "rays"


def _median(values):
    return statistics.median(values) if values else 0.0


class Analysis:
    """Run after ``Tracer.uninstall``: it calls the library itself."""

    def __init__(self, tracer, workload_ops, probe_ops):
        self.tracer = tracer
        self.spans = tracer.spans
        self.selfs = self_times(self.spans)
        self.ops = {"workload": set(workload_ops), "probe": set(probe_ops)}
        self.by_name = defaultdict(list)
        self.by_layer = defaultdict(list)
        for i, s in enumerate(self.spans):
            self.by_name[s.name].append(i)
            self.by_layer[s.layer].append(i)
        self.rows = []  # (name, value, unit, samples, source)

    def _pick(self, candidates, keep=None):
        """(source, n_ops, indices): the workload's spans among `candidates`
        when it has any, else the probe's. Per-op figures divide by every
        workload op, but only by the probe ops that reached the layer."""
        for source in ("workload", "probe"):
            ids = self.ops[source]
            idx = [i for i in candidates if self.spans[i].op in ids and (keep is None or keep(i))]
            if idx:
                n_ops = len(ids) if source == "workload" else len({self.spans[i].op for i in idx})
                return source, n_ops, idx
        return "none", 0, []

    def _add(self, name, value, unit, samples, source):
        self.rows.append((name, float(value), unit, samples, source))

    def _duration(self, idx):
        return [self.spans[i].end - self.spans[i].start for i in idx]

    def per_op(self, name, layer, unit, value_of):
        source, n_ops, idx = self._pick(self.by_layer[layer])
        total = sum(value_of(i) for i in idx)
        self._add(name, total / n_ops if n_ops else 0.0, unit, f"{len(idx)} spans/{n_ops} ops", source)

    def calls_per_op(self, name, fn):
        layer = fn.split(".")[0]
        self.per_op(name, layer, "count", lambda i: self.spans[i].name == fn)

    def p50_ms(self, name, fn):
        source, _, idx = self._pick(self.by_name[fn])
        self._add(name, 1e3 * _median(self._duration(idx)), "ms", f"{len(idx)} spans", source)

    def compute(self, traced_wall, overhead):
        """Rows of every metric; `traced_wall` is the traced op time of the
        workload's own ops, `overhead` the traced over the untraced op time,
        minus one."""
        self_ms = lambda i: 1e3 * self.selfs[i]
        for fn in ("value", "gradient", "hessian"):
            self.calls_per_op(f"laplace.{fn}_calls_per_op", f"laplace.{fn}")
        self.per_op("laplace.self_ms_per_op", "laplace", "ms", self_ms)
        self.calls_per_op("laplace.highs_calls_per_op", "laplace.has_global_min_on_cone")
        self.p50_ms("laplace.has_global_min_ms", "laplace.has_global_min_on_cone")
        self.calls_per_op("steps.simplex_calls_per_op", "steps.nonneg_solution")
        self.p50_ms("steps.halfspace_witness_ms", "steps.halfspace_witness")
        self._solver()
        self.p50_ms("solver.hyperplane_scan_ms", "solver.hyperplane_scan")
        self.calls_per_op("cones.contains_calls_per_op", "cones.contains")
        self.per_op("cones.self_ms_per_op", "cones", "ms", self_ms)
        self.p50_ms("counting.find_delta_ms", "counting.find_delta")
        self._counting()
        self.p50_ms("counting.estimate_rate_ms", "counting.estimate_rate")
        self._montecarlo()
        self.per_op("cli.self_ms_per_op", "cli", "ms", self_ms)

        ids = self.ops["workload"]
        for name in LAYERS:
            busy = sum(self.selfs[i] for i in self.by_layer[name] if self.spans[i].op in ids)
            self._add(f"share.{name}", busy / traced_wall, "frac", f"{len(ids)} ops", "workload")
        self._add("trace.overhead_frac", overhead, "frac",
                  f"{len(ids)} ops", "workload")
        return self.rows

    def _kept(self, fn):
        """index -> (bound arguments, result) of the successful calls of `fn`."""
        out = {}
        for i in self.by_name[fn]:
            args, result = self.tracer.bound_args(self.spans[i])
            if result is not None:
                out[i] = (args, result)
        return out

    def _solver(self):
        calls = self._kept("solver.minimize_on_dual")
        kinds = {i: _dual_kind(args["cone"]) for i, (args, _) in calls.items()}
        for kind in ("orthant", "ray", "rays"):
            source, _, idx = self._pick(list(calls), lambda i: kinds[i] == kind)
            samples = f"{len(idx)} calls"
            self._add(f"solver.{kind}_ms", 1e3 * _median(self._duration(idx)), "ms", samples, source)
            self._add(f"solver.{kind}_iterations_p50",
                      _median([calls[i][1].iterations for i in idx]), "count", samples, source)

    def _counting(self):
        kind = {}
        for i, (args, _) in self._kept("counting.count_walks").items():
            dim = np.atleast_2d(np.asarray(args["steps"])).shape[1]
            kind[i] = dp_class(args["mode"], dim, self.spans[i].peak)
        cells = lambda i, boxes=("in_l2", "over_l2"): sum(self.spans[i].dp[b][0] for b in boxes)
        self.per_op("counting.cells_per_op", "counting", "count", cells)

        def per_cell(name, classes, boxes):
            source, _, idx = self._pick(list(kind), lambda i: kind[i] in classes
                                        and cells(i, boxes) > 0)
            total = sum(cells(i, boxes) for i in idx)
            busy = sum(self.spans[i].dp[b][1] for i in idx for b in boxes)
            self._add(f"counting.{name}", 1e9 * busy / total if total else 0.0, "ns",
                      f"{len(idx)} calls, {total} cells", source)

        per_cell("float_ns_per_cell_in_l2", ("float",), ("in_l2",))
        per_cell("float_ns_per_cell_over_l2", ("float",), ("over_l2",))
        per_cell("exact_ns_per_cell", ("exact",), ("in_l2", "over_l2"))
        per_cell("d3_ns_per_cell", ("d3",), ("in_l2", "over_l2"))
        source, _, idx = self._pick(list(kind), lambda i: kind[i] == "small")
        layers = sum(self.tracer.bound_args(self.spans[i])[0]["n_max"] for i in idx)
        self._add("counting.small_box_us_per_layer",
                  1e6 * sum(self._duration(idx)) / layers if layers else 0.0, "us",
                  f"{len(idx)} calls, {layers} layers", source)

    def _montecarlo(self):
        kept = {kind: self._kept(f"montecarlo.{kind}_survival") for kind in ("band", "tilted")}
        walkers = {i: args["config"].trials * args["config"].n
                   for calls in kept.values() for i, (args, _) in calls.items()}
        self.per_op("montecarlo.walker_steps_per_op", "montecarlo", "count",
                    lambda i: walkers.get(i, 0))
        for kind, calls in kept.items():
            source, _, idx = self._pick(list(calls))
            busy = sum(self._duration(idx))
            steps = sum(walkers[i] for i in idx)
            self._add(f"montecarlo.{kind}_ns_per_walker_step", 1e9 * busy / steps if steps else 0.0,
                      "ns", f"{len(idx)} calls, {steps} walker-steps", source)
        source, _, idx = self._pick(list(kept["tilted"]))
        self._useful_frac([kept["tilted"][i][0] for i in idx], source)

    def _useful_frac(self, calls, source):
        """Walker-step weighted mean over k = 1..n of the tilted-law survival
        probability through step k: the share of simulated walker-steps taken
        by walkers still inside the cone. Exact, from the DP on the tilted
        law; the DP covers orthant cones only, so other cones are left out."""
        num = den = 0.0
        done = {}
        skipped = 0
        for args in calls:
            cfg, cone = args["config"], args["cone"]
            if cone.kind != cw.cones.ORTHANT:
                skipped += 1
                continue
            tilted = cw.tilt(args["m"], args["cert"].x_star)
            key = (tilted.steps.tobytes(), tilted.weights.tobytes(),
                   tuple(int(v) for v in args["start"]), cfg.n)
            if key not in done:
                series = cw.count_walks(tilted.steps, args["start"], cfg.n, weights=tilted.weights)
                done[key] = float(np.mean([series.float_value(k) for k in range(1, cfg.n + 1)]))
            num += done[key] * cfg.trials * cfg.n
            den += cfg.trials * cfg.n
        self._add("montecarlo.tilted_useful_step_frac", num / den if den else 0.0, "frac",
                  f"{len(calls) - skipped} calls ({skipped} on other cones left out)", source)
