"""Exact dynamic-programming enumeration of orthant-confined lattice walks.

The layer recurrence g_n(y) = sum_s w_s g_{n-1}(y - s), restricted to the
orthant, is evaluated on the bounding box of the current layer's support, so
models whose reachable set stays small (such as the half-space family) cost
almost nothing regardless of the horizon. Two value representations are
kept: exact arbitrary-precision integers for unit weights, and doubles with
a per-layer max renormalization whose accumulated logarithm keeps thousands
of layers in range.

Each layer lives in one of two flat buffers that the DP owns and uses in
turn. A box is stored row-major with padded rows: axis 0 is not padded, and
every axis k >= 1 has a padded extent E_k of at least the box's extent plus
the step span max_k - min_k, the pad cells being zero. A step s then moves
every cell by one flat offset, o = sum_k (lo_k + s_k - newlo_k) * stride_k,
so its contributions are one contiguous 1-D add, dst[o+g0 : o+g1] +=
src[g0 : g1] over the box's flat range, clipped at the buffer's start. A
real cell receives exactly the contributions of the box-by-box recurrence,
in step order, plus zeros from pad cells. A cell the orthant cuts lands in a
pad cell, as a row has at least as many pad cells as the cut is deep, or
before the buffer; the pads of each cut axis are zeroed after the adds.
When a box outgrows its padding or its buffer, it is copied into the idle
buffer with two spans of padding; a buffer is replaced only when too small,
and freed before its successor is allocated, so at most two layer-sized
arrays are alive. A float buffer of MAPPED_BYTES or more is a private
anonymous mapping, unmapped when it is freed, so the DP's resident size does
not depend on the state of malloc's heap or on the host's free huge pages.
Only a step with a weight other than 1 makes temporaries, for its product,
PRODUCT_BLOCK cells at a time.

The float results are fixed to the bit by one order of operations in every
layer: the step contributions are added cell by cell in step order (a unit
weight adds the cell unscaled, as 1.0 * x == x), the box is trimmed to its
nonzero cells, the layer is divided by its maximum, and cells below
FLOAT_TRIM are zeroed; the last three run over the flat range from the
trimmed box's first cell to its last, where every other cell is zero. The
total is the pairwise sum over the trimmed box, whose rounding depends on
the strides: the box is copied into the idle buffer where a freshly
allocated unpadded C-ordered box would hold it, and summed there. Weights
above 1 are divided by their maximum once, its logarithm added to the scale
per layer, so large finite weights cannot overflow; weights up to 1 are used
as given. Weights too far apart for that division, a quotient below the
smallest normal double, are refused.

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
import mmap
from dataclasses import dataclass

import numpy as np

from . import cones, laplace, steps as steps_mod

EXACT = "exact"
LOG_SCALED = "log_scaled"

# Relative mass below which a cell is dropped when re-trimming a float layer;
# keeps boxes tight at an error many orders below every reported tolerance.
FLOAT_TRIM = 1e-30

# Cells per product temporary of a weighted step add.
PRODUCT_BLOCK = 1 << 15

# Cost caps: the DP touches O(n^d) lattice cells per layer in the worst case.
MAX_HORIZON_EXACT = 200
MAX_HORIZON = {1: 2000, 2: 2000, 3: 120}
MAX_HORIZON_HIGH_DIM = 60

# Float DP buffers of at least this many bytes get a mapping of their own.
MAPPED_BYTES = 1 << 18


def _buffer(size, dtype):
    """A 1-D buffer of ``size`` cells for the layer DP, which writes a cell
    before it reads it.

    numpy takes a large array from malloc, which after the first large free
    keeps arrays of up to that size on its heap, and advises huge pages for
    it: what stays resident then depends on the heap's layout and on the
    host, and the peak resident size of a series of DPs varied by up to 4 MB
    from one run of the same calls to the next. A mapping of its own holds
    the same bytes and returns them to the system when the buffer is freed.
    Smaller buffers, which the heap reuses without a system call or a page
    fault, and object buffers, which hold references, stay numpy's.
    """
    nbytes = size * np.dtype(dtype).itemsize
    if dtype == object or nbytes < MAPPED_BYTES:
        return np.empty(size, dtype=dtype)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=dtype, count=size)


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
    if w.max() > 1.0 and np.any(w / w.max() < np.finfo(float).tiny):
        # the DP divides weights above 1 by their maximum (see _LayerDP)
        raise ValueError("weights more than the double range apart: the smallest "
                         "would underflow when divided by the largest")
    return steps, start, w


class _LayerDP:
    """Orthant-confined layer recurrence on an adaptive bounding box, laid out
    in two padded flat buffers (see the module docstring).

    ``layer`` is the current box, trimmed to its nonzero cells, as a view of
    ``_buffers[0]`` with padded strides ``_strides``; ``lo`` is its lowest
    lattice point, and ``_first``/``_end`` bound its flat range. Every cell
    of that range outside the box is zero. ``_box`` and ``_cut`` are the
    untrimmed box the layer was cut from and the layer's place in it: they
    give the unpadded strides and offsets at which ``total`` sums it. The
    other buffer is idle: the next layer is written there, and the total is
    summed there.
    """

    def __init__(self, steps, weights, start, exact, trim_threshold=FLOAT_TRIM):
        self.exact = exact
        self.d = d = steps.shape[1]
        self.trim_threshold = trim_threshold
        self.step_min = [int(v) for v in steps.min(axis=0)]
        self.step_max = [int(v) for v in steps.max(axis=0)]
        self.span = [b - a for a, b in zip(self.step_min, self.step_max)]
        weights = [1.0] * len(steps) if exact else weights
        # weights above 1 are divided by their maximum, whose log each layer
        # adds to log_scale; weights <= 1 cannot overflow and are kept as given
        w_max = max(weights)
        self.log_weight = math.log(w_max) if w_max > 1.0 else 0.0
        if w_max > 1.0:
            weights = [w / w_max for w in weights]
        # shift and weight per step in step order; weight None adds unscaled
        self.shifts = [tuple(int(v) for v in s) for s in steps]
        self.weights = [None if w == 1.0 else float(w) for w in weights]
        self.lo = [int(v) for v in start]
        self.log_scale = 0.0
        self.layer = np.ones((1,) * d, dtype=object if exact else float)
        self._box, self._cut = [1] * d, [0] * d
        self._buffers = [np.empty(0, dtype=self.layer.dtype)] * 2
        self._relayout(1)

    @property
    def dead(self):
        return self.layer.size == 0

    def total(self):
        if self.dead:
            return 0 if self.exact else (0.0, self.log_scale)
        if self.exact:
            return int(self.layer.sum())  # integer sums are exact in any order
        layer = self.layer
        if self._extents != self._box[1:]:
            # the pairwise sum's rounding depends on the strides, so sum the
            # layer where a C-ordered unpadded box would hold it
            box = self._buffers[1][:math.prod(self._box)].reshape(self._box)
            layer = box[tuple(slice(c, c + k) for c, k in zip(self._cut, layer.shape))]
            layer[...] = self.layer
        return (float(layer.sum()), self.log_scale)

    def _relayout(self, rows):
        """Copy the layer to the start of the idle buffer, padding each axis
        k >= 1 to the layer's extent plus two step spans, with room for
        ``rows`` rows, and for the layer's own, in both buffers. A buffer is
        freed before a larger one replaces it, so no more than two layer-sized
        arrays are ever alive."""
        n = self.layer.shape
        # the widest layer (on axes k >= 1) that still has a span of padding
        self._room = [k + s for k, s in zip(n[1:], self.span[1:])]
        self._extents = [k + s for k, s in zip(self._room, self.span[1:])]
        self._strides = [math.prod(self._extents[k:]) for k in range(self.d)]
        self._plan = [(sum(s * st for s, st in zip(shift, self._strides)), w)
                      for shift, w in zip(self.shifts, self.weights)]
        # a layer pressed against the wall on axis 0 may have more rows than
        # the box it advances to
        size = max(rows, n[0]) * self._strides[0]
        grow = self._buffers[1].size < size
        if grow:
            # a float buffer's spare rows stay unmapped until a box reaches them
            self._buffers[1] = None
            self._buffers[1] = _buffer(size + size // 4, self.layer.dtype)
        padded = self._buffers[1][:n[0] * self._strides[0]].reshape(n[0], *self._extents)
        padded.fill(0)
        index = (slice(None),) + tuple(slice(0, k) for k in n[1:])
        padded[index] = self.layer
        self.layer = padded[index]
        self._first = 0
        self._end = sum((k - 1) * st for k, st in zip(n, self._strides)) + 1
        self._buffers.reverse()
        if grow:
            self._buffers[1] = None
            self._buffers[1] = _buffer(self._buffers[0].size, self.layer.dtype)

    def advance(self):
        if self.dead:
            return
        lo, n = self.lo, self.layer.shape
        new_lo = [max(a + m, 0) for a, m in zip(lo, self.step_min)]
        box = [a + k - b + m for a, k, b, m in zip(lo, n, new_lo, self.step_max)]
        if min(box) <= 0:
            self._kill()
            return
        if (box[0] * self._strides[0] > self._buffers[1].size
                or any(k > r for k, r in zip(n[1:], self._room))):
            self._relayout(box[0])
        src, dst = self._buffers
        first, end = self._first, self._end
        rows = box[0] * self._strides[0]
        dst[:rows].fill(0)
        # the layer's cell f lands on the new box's cell f + base + offset,
        # where the new box starts at the start of dst
        base = sum((a - b) * st for a, b, st in zip(lo, new_lo, self._strides)) - first
        for offset, w in self._plan:
            offset += base
            g0 = max(first, -offset)
            if w is None:
                if g0 < end:
                    dst[g0 + offset:end + offset] += src[g0:end]
            else:
                # the product is formed a block at a time, so no temporary
                # is layer-sized and each stays in cache
                for a in range(g0, end, PRODUCT_BLOCK):
                    b = min(a + PRODUCT_BLOCK, end)
                    dst[a + offset:b + offset] += w * src[a:b]
        padded = dst[:rows].reshape(box[0], *self._extents)
        for k in range(1, self.d):
            if lo[k] + self.step_min[k] < 0:
                # cells the orthant cuts on axis k landed in its pads
                padded[(slice(None),) * k + (slice(box[k], None),)] = 0
        self._buffers.reverse()
        self.lo, self._box = new_lo, box
        self._trim(padded[(slice(None),) + tuple(slice(0, k) for k in box[1:])])
        if not self.exact and not self.dead:
            cells = dst[self._first:self._end]
            mx = float(cells.max())
            if mx > 0.0:
                cells /= mx
                self.log_scale += math.log(mx)
                if self.trim_threshold > 0.0:
                    np.copyto(cells, 0.0, where=cells < self.trim_threshold)
                if self.log_weight:
                    self.log_scale += self.log_weight

    def _kill(self):
        self.layer = np.zeros((0,) * self.d, dtype=self.layer.dtype)

    def _trim(self, layer):
        """Make the layer the nonzero cells of ``layer``, a new box at the
        start of the buffer, reading inward from each face."""
        occupied = np.count_nonzero
        first_cell = last_cell = 0
        for ax, stride in enumerate(self._strides):
            head = (slice(None),) * ax
            first, last = 0, layer.shape[ax] - 1
            while first <= last and not occupied(layer[head + (first,)]):
                first += 1
            if first > last:
                self._kill()
                return
            while not occupied(layer[head + (last,)]):
                last -= 1
            layer = layer[head + (slice(first, last + 1),)]
            self.lo[ax] += first
            self._cut[ax] = first
            first_cell += first * stride
            last_cell += last * stride
        self.layer, self._first, self._end = layer, first_cell, last_cell + 1

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
