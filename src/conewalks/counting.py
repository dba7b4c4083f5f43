"""Exact dynamic-programming enumeration of orthant-confined lattice walks.

The layer recurrence g_n(y) = sum_s w_s g_{n-1}(y - s), restricted to the
orthant, is evaluated on the bounding box of the current layer's support, so
models whose reachable set stays small (such as the half-space family) cost
almost nothing regardless of the horizon. Two value representations are
kept: exact arbitrary-precision integers for unit weights, and doubles with
a per-layer max renormalization whose accumulated logarithm keeps thousands
of layers in range.

No layer allocates a box of its own: each new box is a C-ordered view of one
of two buffers that the DP owns and uses in turn, zeroed and filled in place;
a buffer is replaced only when a box outgrows it, and both are freed with the
DP. Only a step with a weight other than 1 makes a temporary, for its
product. The float results are fixed to the bit by one order of operations
in every layer: the step contributions are added cell by cell in step order
(a unit weight adds the cell unscaled, as 1.0 * x == x), the box is trimmed
to its nonzero cells, the layer is divided by its maximum, and cells below
FLOAT_TRIM are zeroed; the total is the pairwise sum over the trimmed box,
whose memory layout is that of a freshly allocated box.

The same machinery provides the per-endpoint layer (for the change-of-measure
identity check) and n-th-root rate extrapolation from the count series. The
module also holds the delta search: breadth-first lattice searches, one per
grid shift, for a walk from the origin that stays in the cone shifted inward
by delta and ends in its interior, which certifies that every start in the
shifted cone obeys the rate limit. When the smallest shift fails, the H2'
half-space witness is looked for before any other shift is tried: a witness
u in K* keeps every reachable point in {<u, .> <= 0}, away from the interior,
so a found witness ends the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones, laplace, steps as steps_mod

EXACT = "exact"
LOG_SCALED = "log_scaled"

# Relative mass below which a cell is dropped when re-trimming a float layer;
# keeps boxes tight at an error many orders below every reported tolerance.
FLOAT_TRIM = 1e-30

# Cost caps: the DP touches O(n^d) lattice cells per layer in the worst case.
MAX_HORIZON_EXACT = 200
MAX_HORIZON = {1: 2000, 2: 2000, 3: 120}
MAX_HORIZON_HIGH_DIM = 60


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Per-length totals of confined walks (or survival mass).

    ``values[n]`` is an exact integer in exact mode and a
    (mantissa, log_scale) pair in log-scaled mode, representing
    mantissa * exp(log_scale).
    """

    start: tuple
    n_max: int
    mode: str
    values: tuple

    def log_value(self, n):
        """log of the n-th total, or None when the total is zero."""
        v = self.values[n]
        if self.mode == EXACT:
            return math.log(v) if v > 0 else None
        mantissa, scale = v
        if mantissa <= 0.0:
            return None
        return math.log(mantissa) + scale

    def prefix(self, n):
        """The series cut at horizon n: layer k depends only on the first k
        steps, so this equals the series counted to n."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"horizon {n} outside 0..{self.n_max}")
        return CountSeries(start=self.start, n_max=n, mode=self.mode, values=self.values[:n + 1])

    def float_value(self, n):
        lv = self.log_value(n)
        if lv is None:
            return 0.0
        if lv > 700.0:
            return math.inf
        return math.exp(lv)


def _as_lattice_steps(steps):
    steps = np.atleast_2d(np.asarray(steps))
    if steps.ndim != 2 or 0 in steps.shape:
        raise ValueError("need at least one step, each a vector of length >= 1")
    if not np.all(np.isfinite(steps)) or np.any(steps != np.round(steps)):
        raise ValueError("enumeration needs integer lattice steps")
    return steps.astype(np.int64)


def _as_orthant_start(start, dim, cone):
    if cone is not None and cone.kind != cones.ORTHANT:
        raise cones.UnsupportedConeError("walk enumeration supports the orthant only")
    start = np.asarray(start)
    if start.shape != (dim,):
        raise ValueError(f"start must have length {dim}")
    if start.dtype.kind != "i":
        # floats, and Python ints beyond int64, which numpy keeps as objects
        try:
            coords = start.astype(float) if start.dtype.kind in "buifO" else None
        except (TypeError, ValueError):
            coords = None
        if coords is None or not np.all((coords == np.round(coords)) & (np.abs(coords) < 2.0**63)):
            raise ValueError("start must be a lattice point with coordinates below 2**63")
        start = coords
    start = start.astype(np.int64)
    if np.any(start < 0):
        raise ValueError("start lies outside the orthant")
    return start


def _dp_inputs(steps, start, n, weights, exact, cone):
    """Checked steps, start and weights (None in exact mode) for a layer DP
    run to horizon ``n``; every malformed input raises ValueError."""
    steps = _as_lattice_steps(steps)
    k, d = steps.shape
    start = _as_orthant_start(start, d, cone)
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"horizon must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"horizon must be >= 0, got {n}")
    cap = MAX_HORIZON.get(d, MAX_HORIZON_HIGH_DIM)
    if n > cap:
        raise ValueError(f"horizon {n} above the dimension-{d} cap {cap}")
    if exact:
        if weights is not None:
            raise ValueError("exact mode counts walks and requires unit weights")
        if n > MAX_HORIZON_EXACT:
            raise ValueError(f"exact mode capped at n <= {MAX_HORIZON_EXACT}")
        return steps, start, None
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("need one positive finite weight per step")
    return steps, start, w


class _LayerDP:
    """Orthant-confined layer recurrence on an adaptive bounding box.

    The box of each new layer lives in one of two buffers owned by the DP,
    used in turn so a layer is never written over the one it is read from.
    """

    def __init__(self, steps, weights, start, exact, trim_threshold=FLOAT_TRIM):
        self.exact = exact
        self.d = steps.shape[1]
        self.trim_threshold = trim_threshold
        self.step_min = [int(v) for v in steps.min(axis=0)]
        self.step_max = [int(v) for v in steps.max(axis=0)]
        # (shift, weight) per step in step order; weight None adds unscaled
        weights = [1.0] * len(steps) if exact else weights
        self.plan = [(tuple(int(v) for v in s), None if w == 1.0 else float(w))
                     for s, w in zip(steps, weights)]
        dtype = object if exact else float
        self._buffers = [np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)]
        self.lo = [int(v) for v in start]
        self.log_scale = 0.0
        self.layer = np.empty((1,) * self.d, dtype=dtype)
        self.layer.fill(1)

    @property
    def dead(self):
        return self.layer.size == 0

    def total(self):
        if self.exact:
            return int(self.layer.sum()) if self.layer.size else 0
        return (float(self.layer.sum()) if self.layer.size else 0.0, self.log_scale)

    def _fresh(self, shape):
        """A zeroed C-ordered array of ``shape`` in the buffer not read last."""
        size = math.prod(shape)
        if self._buffers[0].size < size:
            self._buffers[0] = None  # freed before its successor is allocated
            self._buffers[0] = np.empty(size, dtype=self.layer.dtype)
        buf = self._buffers.pop(0)
        self._buffers.append(buf)
        new = buf[:size].reshape(shape)
        new.fill(0)
        return new

    def advance(self):
        if self.dead:
            return
        lo, layer = self.lo, self.layer
        old_shape = layer.shape
        new_lo = [max(a + m, 0) for a, m in zip(lo, self.step_min)]
        shape = tuple(a + n - b + m for a, n, b, m in zip(lo, old_shape, new_lo, self.step_max))
        if min(shape) <= 0:
            self._kill()
            return
        new = self._fresh(shape)
        for shift, w in self.plan:
            dst, src = [], []
            for a, n, b, s in zip(lo, old_shape, new_lo, shift):
                # cells y - s of the old box with y >= 0 land on y
                cut = max(-(a + s), 0)
                if cut >= n:
                    break
                dst.append(slice(a + s + cut - b, a + s + n - b))
                src.append(slice(cut, n))
            else:
                view = new[tuple(dst)]
                if w is None:
                    view += layer[tuple(src)]
                else:
                    view += w * layer[tuple(src)]
        self.lo, self.layer = new_lo, new
        self._trim()
        if not self.exact and not self.dead:
            mx = float(self.layer.max())
            if mx > 0.0:
                self.layer /= mx
                self.log_scale += math.log(mx)
                if self.trim_threshold > 0.0:
                    np.copyto(self.layer, 0.0, where=self.layer < self.trim_threshold)

    def _kill(self):
        self.layer = np.zeros((0,) * self.d, dtype=self.layer.dtype)

    def _trim(self):
        """Shrink the box to its nonzero cells, reading inward from each face."""
        layer = self.layer
        for ax in range(self.d):
            def occupied(i):
                # cells are never negative, so a positive maximum means a nonzero cell
                return layer[(slice(None),) * ax + (slice(i, i + 1),)].max() > 0

            first, last = 0, layer.shape[ax] - 1
            while first <= last and not occupied(first):
                first += 1
            if first > last:
                self._kill()
                return
            while not occupied(last):
                last -= 1
            layer = layer[(slice(None),) * ax + (slice(first, last + 1),)]
            self.lo[ax] += first
        self.layer = layer

    def endpoint_items(self):
        """(lattice point, mass) pairs of the current layer."""
        items = []
        if self.dead:
            return items
        for idx in np.argwhere(self.layer != 0 if self.exact else self.layer > 0.0):
            point = tuple(a + int(i) for a, i in zip(self.lo, idx))
            v = self.layer[tuple(idx)]
            if self.exact:
                items.append((point, int(v)))
            else:
                items.append((point, float(v) * math.exp(self.log_scale)))
        return items


def count_walks(steps, start, n_max, weights=None, mode=LOG_SCALED, cone=None):
    """Totals of length-n orthant-confined walks for n = 0,...,n_max.

    Unit weights (``weights=None``) count walks; probability weights turn the
    totals into survival probabilities. Exact mode demands unit weights.
    """
    if mode not in (EXACT, LOG_SCALED):
        raise ValueError(f"unknown mode {mode!r}")
    steps, start, w = _dp_inputs(steps, start, n_max, weights, mode == EXACT, cone)
    dp = _LayerDP(steps, w, start, exact=(mode == EXACT))
    values = [dp.total()]
    for _ in range(n_max):
        dp.advance()
        values.append(dp.total())
    return CountSeries(
        start=tuple(int(v) for v in start),
        n_max=n_max,
        mode=mode,
        values=tuple(values),
    )


def end_point_counts(steps, start, cone, n, weights=None):
    """The n-th layer itself: lattice endpoint -> count (or weighted mass)."""
    exact = weights is None
    steps, start, w = _dp_inputs(steps, start, n, weights, exact, cone)
    # no threshold trim here: endpoint masses are compared cell by cell
    dp = _LayerDP(steps, w, start, exact=exact, trim_threshold=0.0)
    for _ in range(n):
        dp.advance()
    return dict(dp.endpoint_items())


@dataclass(frozen=True)
class RateEstimate:
    raw_ratio: float
    period: int
    extrapolated: float


# A p-lag ratio sequence is accepted as stable when its tail log-spread stays
# below this; parity effects (the half-space family) overshoot it by orders.
STABLE_SPREAD = 1e-2

_PERIODS = (1, 2, 3, 4, 6)


def estimate_rate(series):
    """n-th-root growth estimate from a count series.

    The lag (period) is the smallest of {1,2,3,4,6} whose tail ratio sequence
    is stable, which absorbs lattice parity oscillation; the raw tail ratio is
    then refined by a linear-in-1/n fit of the last quarter of the ratio
    sequence, modelling a polynomial prefactor. A series whose tail died out
    reports rate zero.
    """
    logs = [series.log_value(n) for n in range(series.n_max + 1)]
    alive = [n for n, lv in enumerate(logs) if lv is not None]
    if not alive or alive[-1] == 0:
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)
    n_last = alive[-1]
    if n_last < series.n_max:
        # zeros are absorbing for confined walks: the walk died out
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)

    best = None
    chosen = None
    for p in _PERIODS:
        ms = [m for m in range(p, n_last + 1) if logs[m] is not None and logs[m - p] is not None]
        if len(ms) < 2:
            continue
        ratio_logs = [(logs[m] - logs[m - p]) / p for m in ms]
        window = ratio_logs[-max(3, len(ratio_logs) // 4):]
        spread = max(window) - min(window)
        if best is None or spread < best[0]:
            best = (spread, p, ms, ratio_logs)
        if chosen is None and spread <= STABLE_SPREAD:
            chosen = (spread, p, ms, ratio_logs)
            break
    if best is None:
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)
    spread, period, ms, ratio_logs = chosen if chosen is not None else best
    raw = math.exp(ratio_logs[-1])
    if chosen is None or len(ms) < 3:
        # no lag in {1,2,3,4,6} stabilizes the tail: report raw ratios only
        return RateEstimate(raw_ratio=raw, period=period, extrapolated=raw)

    k = max(4, len(ms) // 4)
    tail_ms = ms[-k:]
    tail_r = [math.exp(r) for r in ratio_logs[-k:]]
    x = np.array([1.0 / m for m in tail_ms])
    y = np.array(tail_r)
    slope_intercept = np.polyfit(x, y, 1)
    extrapolated = max(0.0, float(slope_intercept[1]))
    return RateEstimate(raw_ratio=raw, period=period, extrapolated=extrapolated)


def cramer_identity_check(m, z, start, cone, n):
    """Max relative discrepancy of the change-of-measure identity at time n.

    Compares, endpoint by endpoint, the confined local probability under the
    original law against L(z)^n e^{<z, x-y>} times the probability under the
    tilted law. Both sides come from dense double-precision layers, so the
    horizon is capped where that stays meaningful.
    """
    if m.mode != steps_mod.PROBABILITY:
        raise ValueError("identity check needs a probability-mode measure")
    if n > 30:
        raise ValueError("identity check supports n <= 30 (dense double layers)")
    z = np.asarray(z, dtype=float)
    start = np.asarray(start, dtype=np.int64)
    tilted = steps_mod.tilt(m, z)
    lz = laplace.value(laplace.FiniteLaplace(m), z)
    base = end_point_counts(m.steps, start, cone, n, weights=m.weights)
    moved = end_point_counts(m.steps, start, cone, n, weights=tilted.weights)
    worst = 0.0
    for y, p_base in base.items():
        p_tilt = moved.get(y, 0.0)
        rhs = lz ** n * math.exp(float(z @ (start - np.array(y)))) * p_tilt
        worst = max(worst, abs(p_base - rhs) / p_base)
    return worst


@dataclass(frozen=True)
class FindDeltaResult:
    found: bool
    delta: float | None = None
    n0: int | None = None
    path: tuple | None = None
    h2_witness: np.ndarray | None = None


def find_delta(steps, cone, v=None, delta_grid=None, n_max=None):
    """Smallest grid shift delta certifying the rate limit's validity region.

    Searches (breadth-first, lattice) for a walk from the origin staying in
    the cone shifted inward by delta that ends strictly inside the cone. A
    success witnesses that every start in the delta-shifted cone obeys the
    rate limit; exhaustion over the grid is reported as a value, together
    with the half-space witness when the step set is improper.
    The witness is looked for once the smallest shift fails, and a found
    witness skips the other shifts (see the module docstring).
    """
    steps = _as_lattice_steps(steps)
    d = steps.shape[1]
    if cone.dim != d:
        raise ValueError("cone dimension does not match the steps")
    if v is None:
        v = cones.interior_vector(cone)
    v = np.asarray(v, dtype=float)
    if delta_grid is None:
        delta_grid = tuple(float(k) for k in range(11))
    if n_max is None:
        n_max = steps_mod.default_h3_depth(steps)
    grid = sorted(delta_grid)
    if not grid:
        raise ValueError("delta_grid must hold at least one shift")
    dual = cones.dual(cone)
    # The witness LP needs the rays of K*, which an inequality description
    # (the dual of a generated cone) does not give.
    witness_lp = dual.rays is not None
    witness = None
    for i, delta in enumerate(grid):
        path, _ = steps_mod._interior_path(steps, cone, delta * v, n_max)
        if path is not None:
            return FindDeltaResult(found=True, delta=float(delta), n0=len(path), path=path)
        if i == 0 and witness_lp:
            witness = steps_mod.halfspace_witness(steps_mod.from_step_set(steps), dual)
            if witness is not None:
                break
    if not witness_lp:
        # every shift failed: this raises UnsupportedConeError
        witness = steps_mod.halfspace_witness(steps_mod.from_step_set(steps), dual)
    return FindDeltaResult(found=False, h2_witness=witness)
