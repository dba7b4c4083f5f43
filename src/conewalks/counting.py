"""Exact dynamic-programming enumeration of orthant-confined lattice walks.

The layer recurrence g_n(y) = sum_s w_s g_{n-1}(y - s), restricted to the
orthant, is evaluated on the bounding box of the current layer's support, so
models whose reachable set stays small (such as the half-space family) cost
almost nothing regardless of the horizon. Two value representations are
kept: exact multi-precision integers on uint64 limbs for unit weights, and
doubles with a per-layer max renormalization whose accumulated logarithm
keeps thousands of layers in range.

Each layer lives in one of two buffers that the DP owns and uses in turn: a
float layer in a 1-D buffer of doubles, and an exact layer in a buffer of
shape (limbs, cells) that holds each cell as a multi-precision integer in
radix 2^r, limb j on row j (Knuth, TAOCP vol. 2, 4.3.1). A box is stored
row-major along the cells with padded rows: axis 0 is not padded, and every
axis k >= 1 has a padded extent E_k of at least the box's extent plus the
step span max_k - min_k, the pad cells being zero. A step s then moves every
cell by one flat offset, o = sum_k (lo_k + s_k - newlo_k) * stride_k, so its
contributions are one contiguous add on each limb row, dst[..., o+g0 : o+g1]
+= src[..., g0 : g1] over the box's flat range, clipped at the buffer's
start. The adds run block by block (loop tiling; Wolf and Lam, PLDI 1991):
the new box's flat range is cut into blocks of PRODUCT_BLOCK cells, and each
block takes every step's contribution to it, in step order, before the next
block starts. A block and the cells it reads then stay in the L2 cache over
all the steps, where a step over the whole of a layer larger than L2 would
stream it from L3 once per step. In each block one step writes: the first
step that reaches the block copies its cells there (times its weight), the
rest of the block is zeroed, and every later step adds; a block that no step
reaches is zeroed. No bit changes against adding every step to zeros: 0.0 +
x == x and 0 + n == n, as no cell is -0.0. A real cell receives exactly the
contributions of the box-by-box recurrence, in step order, plus zeros from
pad cells. A cell the orthant cuts lands in a pad cell, as a row has at least
as many pad cells as the cut is deep, or before the buffer; the pads of each
cut axis are zeroed after the adds. Both buffers are allocated once, at the
size ``_box_bound`` gives for the horizon: no padded box up to it needs more.
A buffer of MAPPED_BYTES or more is an anonymous mapping of its own, so the
DP's resident size does not depend on the state of malloc's heap or on the
host's free huge pages, and its pages fault in when a box first reaches them.
When a layer's rows outgrow their padding, the layer is copied into the idle
buffer with two spans of padding (a relayout); it only re-pads. A step that
adds with a weight other than 1 forms its product for each block in one block
of PRODUCT_BLOCK cells that the DP owns.

Every index of a step follows from the layer's layout: the buffer holding
it, its lowest point, its shape, its flat range, and in exact mode its limbs
before and after the step. So each step runs from a plan of its layout: the
zeroing, copy, multiply and add calls on views built once, the pads of the
cut axes, the new box seen along each axis, whose rows are the faces that the
trim tests, and for each trim outcome met so far the trimmed layer with the
views that its normalisation, carry and total read. A box held small by a wall
or by the FLOAT_TRIM cut repeats its layouts, mostly with period 2 from
lattice parity, so each buffer keeps the last plan built from it, and a
layout met again there two layers after it was planned replays that plan
with no index arithmetic in Python. A relayout drops both plans, as they hold
the old strides; a growing box, whose layouts do not repeat, replays none.
Such a layer builds its plan and runs it once, so building is kept to few
Python calls: the new box and its padded rows are made by the ``np.ndarray``
constructor from the buffer and the padded strides, not by reshaping and
slicing, and the box is seen along axis k by one transpose that puts axis k
first. Building a plan and replaying it make the same numpy calls on the same
operands in the same order, so no bit depends on whether a layer was
replayed. A face is tested for a nonzero cell by the C function behind
``np.count_nonzero``, one call without the Python wrapper that costs about
three times as much on a small face, except in a 1-D float box: there a face
is one cell, which numpy returns as a scalar, and its truth value decides the
same at a small part of the cost (no cell is -0.0, and -0.0 would count as
zero in both). A small box that never repeats a layer,
such as the 1-D walk's, thus costs a fixed few numpy calls per layer.

Exact counts use radix 2^r with r = 63 - bit_length(|S|), so |S| 2^r < 2^63.
Layer k holds L = ceil(bit_length(|S|^k) / r) limbs: |S|^k bounds every
cell, so no cell reaches 2^(rL) and the top limb never carries. After the
adds and the trim, one carry pass over the flat range, on all limbs at once,
moves the bits of each limb from r upward into the next (``>>``, ``&=``,
``+=``). Limbs are thus not normalized, but stay below 2^r + 2|S|: the next
layer's |S| adds stay below |S| (2^r + 2|S|) < 2^64 for any |S| < 2^31, and
carry at most 2|S| - 1. A total sums each limb's low and high 32-bit halves
over the flat range, each sum below 2^64 while the range has fewer than 2^32
cells, and forms the count from them in Python ints.

The float results are fixed to the bit by one order of operations in every
layer: the step contributions are added cell by cell in step order (a unit
weight adds the cell unscaled, as 1.0 * x == x), the box is trimmed to its
nonzero cells, the layer is divided by its maximum, and cells below
FLOAT_TRIM are zeroed; the last three run over the flat range from the
trimmed box's first cell to its last, where every other cell is zero. The
total is the pairwise sum over the trimmed box, whose rounding depends on
the strides only where numpy merges an axis k >= 1 into the axis before it,
which it can do only where the box spans the whole of that axis of its
array; in the padded layout that needs the box to span its untrimmed box on
that axis too. Only then is the box copied into the idle buffer where a
freshly allocated unpadded C-ordered box would hold it, and summed there;
otherwise it is summed where it is. Weights above 1 are divided by their
maximum once, its logarithm added to the scale per layer, so large finite
weights cannot overflow; weights up to 1 are used as given. Weights too far
apart for that division, a quotient below the smallest normal double, are
refused.

A float layer that equals the layer two before it ends the DP. Layer k + 1
depends on layer k only through its lowest point, shape and cell values, not
through its layout: every pass over the flat range meets zeros outside the
box, and a total is summed as the unpadded untrimmed box would sum it, whose
extent follows from the layer before. So once layer k equals layer k - 2,
every later layer, its maximum before the division and its total mantissa
repeat with period 2, and only the log scale moves, by the logarithm of that
maximum and then by that of the weight divisor, as ``advance`` adds them.
``count_walks`` compares each float layer's total mantissa with the layer two
back, takes the layout key and the bytes of the cells (``snapshot``) only when
they match, and once those equal the ones taken two layers back fills in the
rest of the series from the last two layers' mantissas and maxima. That is at
most three layers after the cycle starts, so a walk of bounded support, such
as the half-space family, costs only its transient. Exact counts never repeat.

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

import itertools
import math
import mmap
import operator
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import cones, laplace, steps as steps_mod

# np.count_nonzero(a) with no axis calls this C function from a Python
# wrapper that costs about three times the test of a small face; numpy 2
# moved its module from numpy.core to numpy._core
try:
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:
    from numpy.core.multiarray import count_nonzero as _count_nonzero

EXACT = "exact"
LOG_SCALED = "log_scaled"

# Relative mass below which a cell is dropped when re-trimming a float layer;
# keeps boxes tight at an error many orders below every reported tolerance.
FLOAT_TRIM = 1e-30

# Cells in the product block of a weighted step add.
PRODUCT_BLOCK = 1 << 15

# Cost caps: the DP touches O(n^d) lattice cells per layer in the worst case.
MAX_HORIZON_EXACT = 200
MAX_HORIZON = {1: 2000, 2: 2000, 3: 120}
MAX_HORIZON_HIGH_DIM = 60
# Cap on the cells (times the limbs in exact mode) of the largest box a run
# can reach, checked before anything is allocated: 2^24 doubles are 128 MiB.
MAX_BOX_CELLS = 1 << 24

# DP buffers of at least this many bytes get a mapping of their own.
MAPPED_BYTES = 1 << 18

# The shifts the delta search tries, smallest first.
DELTA_GRID = tuple(float(k) for k in range(11))


def _buffer(shape, dtype):
    """A buffer of ``shape`` for the layer DP, which writes a cell before it
    reads it.

    numpy takes a large array from malloc, which after the first large free
    keeps arrays of up to that size on its heap, and advises huge pages for
    it: what stays resident then depends on the heap's layout and on the
    host, and the peak resident size of a series of DPs varied by up to 4 MB
    from one run of the same calls to the next. A mapping of its own holds
    the same bytes and returns them to the system when the buffer is freed.
    Smaller buffers, which the heap reuses without a system call or a page
    fault, stay numpy's.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes < MAPPED_BYTES:
        return np.empty(shape, dtype=dtype)
    return np.ndarray(shape, dtype=dtype, buffer=mmap.mmap(-1, nbytes))


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Per-length totals of confined walks (or survival mass).

    ``values[n]`` is an exact integer in exact mode and a
    (mantissa, log_scale) pair in log-scaled mode, representing
    mantissa * exp(log_scale).
    """

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
        return CountSeries(n_max=n, mode=self.mode, values=self.values[:n + 1])

    def float_value(self, n):
        lv = self.log_value(n)
        return 0.0 if lv is None else _exp(lv)


def _exp(lv):
    """e^lv, or inf past the double range."""
    try:
        return math.exp(lv)
    except OverflowError:
        return math.inf


def _box_bound(steps, start, n, exact):
    """The most cells a box of the DP run to horizon ``n`` spans on each
    axis, and the limbs of layer n (1 in float mode). On axis k the box spans
    at most n span_k + 1 cells and reaches no further than
    start_k + n max(step_max_k, 0); an exact layer n holds its cells on as
    many limbs as |S|^n needs (see _LayerDP)."""
    n, k = int(n), len(steps)
    bound = [min(n * (b - a) + 1, s + n * max(b, 0) + 1) for a, b, s in zip(
        steps.min(axis=0).tolist(), steps.max(axis=0).tolist(), start.tolist())]
    return bound, -(-(k ** n).bit_length() // (63 - k.bit_length())) if exact else 1


def _dp_inputs(steps, start, n, weights, exact):
    """Checked steps, start and weights (None in exact mode) for a layer DP
    run to horizon ``n``; every malformed input, and a run whose box could
    pass MAX_BOX_CELLS, raises ValueError.

    With g the per-axis gcd of the step coordinates and start = g q + r,
    0 <= r < g, g z + r is in the orthant exactly when z is: the DP runs on
    steps / g from q, and ``lift`` (returned last) maps its z to g z + r.
    """
    steps = steps_mod.as_lattice_steps(steps)
    k, d = steps.shape
    start = np.asarray(start)
    if start.shape != (d,):
        raise ValueError(f"start must have length {d}")
    start = steps_mod.as_int64(start, "start must be a lattice point with coordinates below 2**63")
    if np.any(start < 0):
        raise ValueError("start lies outside the orthant")
    g = np.maximum(np.gcd.reduce(steps, axis=0), 1).tolist()
    r = (start % g).tolist()
    steps, start = steps // g, start // g
    lift = lambda z: tuple(a * c + b for a, c, b in zip(g, z, r))
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
    bound, limbs = _box_bound(steps, start, n, exact)
    cells = math.prod(bound)
    if cells * limbs > MAX_BOX_CELLS:
        raise ValueError(f"the DP box can reach {cells * limbs} cells by horizon {n}, "
                         f"above the budget of {MAX_BOX_CELLS}")
    if exact:
        return steps, start, None, lift
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValueError("need one positive finite weight per step")
    if w.max() > 1.0 and np.any(w / w.max() < np.finfo(float).tiny):
        # the DP divides weights above 1 by their maximum (see _LayerDP)
        raise ValueError("weights more than the double range apart: the smallest "
                         "would underflow when divided by the largest")
    return steps, start, w, lift


class _Plan:
    """One step of the layer DP from one layout: the numpy calls of its adds
    and zeroing on views built once, the untrimmed box they leave, and the
    states its trim outcomes lead to (see ``_LayerDP``)."""

    __slots__ = ("key", "ops", "box", "faces", "extent", "lo", "trims")

    def __init__(self, key, ops, box, faces, extent, lo):
        self.key = key  # the layout it was built from
        self.ops = ops  # (function, arguments) pairs in the order they run
        self.box = box
        self.faces = faces  # per axis, box with that axis first: face i is faces[axis][i]
        self.extent = extent
        self.lo = lo
        self.trims = {}  # trim outcome -> state of the trimmed layer


class _LayerDP:
    """Orthant-confined layer recurrence on an adaptive bounding box, laid out
    in two padded buffers (see the module docstring): 1-D in float mode, and
    in exact mode of shape (limbs, cells).

    ``_view`` is the current box, trimmed to its nonzero cells, as a view of
    ``_buffers[0]`` with padded strides ``_strides``: the float cells, or in
    exact mode the ``_limbs`` active limbs of each cell on a leading axis.
    ``layer`` is shaped like the box: ``_view`` itself, or in exact mode its
    lowest limb. ``lo`` is the box's lowest lattice point, and
    ``_first``/``_end`` bound its flat range ``_cells``; every cell of that
    range outside the box is zero in every limb. The other buffer is idle:
    the next layer is written there, and the carry (``_carry``) and the
    totals use it as scratch. ``total`` sums ``_total``: the float layer
    itself, or, when ``_copy`` is set, the place in the idle buffer where an
    unpadded C-ordered untrimmed box would hold it; in exact mode the scratch
    of the limb sums. In exact mode ``_bound`` is |S|^k at layer k, which
    bounds every cell, and ``_radix`` is r.

    A layer's layout is ``_key``: ``lo``, shape, ``_first``, ``_end`` and
    the held limbs, to which exact mode adds the next layer's limbs. Every
    step has ``_plan`` find or build its plan, then runs it; there is no
    other path. ``_product`` holds a weighted step's product for one block of
    the plan's adds. ``_plans[_parity]`` is the last plan built from the
    buffer that holds the layer, under its key: by lattice parity a layout
    recurs two layers later, in the same buffer, and replays the plan built
    then. A plan caches the state (``_state``) that each trim outcome leaves.
    ``_relayout`` clears ``_plans``, as they hold the old strides. The
    buffers are sized for horizon ``n``, past which the DP must not advance.
    ``_occupied`` is the trim's test of a face for a nonzero cell.
    """

    def __init__(self, steps, weights, start, n, exact, trim_threshold=FLOAT_TRIM):
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
        # shift and weight per step in step order; weight None adds unscaled,
        # any other is a 0-d array, which a ufunc takes without converting it
        self.shifts = [tuple(int(v) for v in s) for s in steps]
        self.weights = [None if w == 1.0 else np.array(float(w)) for w in weights]
        self._product = None
        if any(w is not None for w in self.weights):
            self._product = np.empty(PRODUCT_BLOCK)
        self._radix = 63 - len(steps).bit_length()
        self._bound = 1
        self._limbs = 1
        # the index of the limb axis, which only exact views have
        self._lead = (slice(None),) if exact else ()
        # the axis orders that put each axis of a box first, ahead of the limbs
        lead = len(self._lead)
        self._face_orders = [(lead + ax,) + tuple(i for i in range(lead + d) if i != lead + ax)
                             for ax in range(d)]
        # a face of a 1-D float box is one cell, which numpy returns as a
        # scalar; its truth value decides what count_nonzero would, for less
        self._occupied = bool if d == 1 and not exact else _count_nonzero
        self._parity = 0
        self.lo = [int(v) for v in start]
        self.log_scale = 0.0
        # the float layer's maximum before it was divided by it
        self.layer_max = 1.0
        dtype = np.uint64 if exact else float
        self._view = np.ones((1,) * (len(self._lead) + d), dtype=dtype)
        # no padded box up to layer n needs more: bound_0 rows of extents
        # bound_k + 2 span_k, on the limbs of layer n
        bound, limbs = _box_bound(steps, start, n, exact)
        cells = bound[0] * math.prod(b + 2 * s for b, s in zip(bound[1:], self.span[1:]))
        self._buffers = [_buffer((limbs, cells) if exact else (cells,), dtype) for _ in range(2)]
        self._relayout()

    @property
    def layer(self):
        return self._view[0] if self.exact else self._view

    @property
    def dead(self):
        return self._view.size == 0

    def total(self):
        if not self.exact:
            if not self._view.size:
                return (0.0, self.log_scale)
            if self._copy:
                self._total[...] = self._view
            # ndarray.sum is this reduction behind a Python wrapper
            return (float(np.add.reduce(self._total, None)), self.log_scale)
        if not self._view.size:
            return 0
        # each limb's 32-bit halves sum exactly in uint64 over < 2^32 cells
        assert self._end - self._first < 1 << 32
        cells, scratch = self._cells, self._total
        low = np.bitwise_and(cells, 0xFFFFFFFF, out=scratch).sum(axis=1).tolist()
        high = np.right_shift(cells, 32, out=scratch).sum(axis=1).tolist()
        return sum((a + (b << 32)) << (self._radix * j)
                   for j, (a, b) in enumerate(zip(low, high)))

    def _state(self, box, extent, lo, bounds):
        """The layer that ``bounds`` (see ``_trim``) cut from ``box``, an
        untrimmed box of ``extent`` at ``lo`` that starts the buffer, and the
        views that read it, in the order of ``_set_state``."""
        index, lo, first, end = self._lead, list(lo), 0, 1
        for ax, stride in enumerate(self._strides):
            a, b = bounds[2 * ax], bounds[2 * ax + 1]
            index += (slice(a, b + 1),)
            lo[ax] += a
            first += a * stride
            end += b * stride
        view = box[index]
        cells, idle = self._buffers[0][..., first:end], self._buffers[1]
        copy, carry, total = False, None, view
        if self.exact:
            cells, total = cells[:self._limbs], idle[:self._limbs, first:end]
            if self._limbs > 1:
                carry = (cells[:-1], cells[1:], total[:-1])
        elif self._extents != extent[1:] and any(
                k == b for k, b in zip(view.shape[1:], extent[1:])):
            # numpy merges an axis spanning its whole box into the one before
            # it, and the pairwise sum's rounding follows the merged strides:
            # sum the layer where a C-ordered unpadded box would hold it
            copy = True
            total = idle[:math.prod(extent)].reshape(extent)[
                tuple(slice(c, c + k) for c, k in zip(bounds[0::2], view.shape))]
        key = (tuple(lo), view.shape[-self.d:], first, end, self._limbs)
        return view, lo, first, end, cells, total, copy, carry, key

    def _set_state(self, state):
        (self._view, self.lo, self._first, self._end,
         self._cells, self._total, self._copy, self._carry, self._key) = state

    def _relayout(self):
        """Copy the layer to the start of the idle buffer, padding each axis
        k >= 1 to the layer's extent plus two step spans."""
        # drop the plans built on the old strides
        self._plans = [None, None]
        n = self.layer.shape
        # the widest layer (on axes k >= 1) that still has a span of padding
        self._room = [k + s for k, s in zip(n[1:], self.span[1:])]
        self._extents = [k + s for k, s in zip(self._room, self.span[1:])]
        self._strides = [math.prod(self._extents[k:]) for k in range(self.d)]
        self._offsets = [(sum(s * st for s, st in zip(shift, self._strides)), w)
                         for shift, w in zip(self.shifts, self.weights)]
        idle = self._buffers[1][:self._limbs] if self.exact else self._buffers[1]
        padded = idle[..., :n[0] * self._strides[0]].reshape(
            *idle.shape[:-1], n[0], *self._extents)
        padded.fill(0)
        index = self._lead + (slice(None),) + tuple(slice(0, k) for k in n[1:])
        padded[index] = self._view
        self._view = padded[index]
        self._buffers.reverse()
        self._parity ^= 1
        # the strides in bytes of a box at the start of a buffer, limbs first
        self._byte_strides = self._buffers[0].strides[:-1] + tuple(
            st * self._buffers[0].itemsize for st in self._strides)
        self._set_state(self._state(self._view, list(n), self.lo,
                                    tuple(v for k in n for v in (0, k - 1))))

    def _plan(self, key, limbs):
        """The plan of the next step from the layer's layout ``key``, or
        None when that step leaves the orthant on some axis. The last plan
        built from the layer's buffer is kept when it was built from ``key``;
        otherwise the plan is built, laying the layer out anew first when its
        rows outgrow their padding. Its calls run block
        by block over the new box, each block's in step order: the first
        step to reach the block writes it and zeroes the rest, later steps
        add (see the module docstring). Then they zero the pads of the cut
        axes and, in exact mode, the limbs the layer gains."""
        plan = self._plans[self._parity]
        if plan is not None and plan.key == key:
            return plan
        lo, n = self.lo, self._view.shape[-self.d:]
        new_lo = [a + m if a + m > 0 else 0 for a, m in zip(lo, self.step_min)]
        box = [a + k - b + m for a, k, b, m in zip(lo, n, new_lo, self.step_max)]
        if min(box) <= 0:
            return None
        held = self._limbs
        if any(map(operator.gt, n[1:], self._room)):
            self._relayout()
        src, dst = self._buffers
        # exact layers are seen cells first, so a cell range is one slice in both modes
        old, new = (src[:held].T, dst[:held].T) if self.exact else (src, dst)
        first, end = self._first, self._end
        rows = box[0] * self._strides[0]
        # the layer's cell f lands on the new box's cell f + base + offset,
        # where the new box starts at the start of dst
        base = sum([(a - b) * st for a, b, st in zip(lo, new_lo, self._strides)]) - first
        # each step that moves a cell: the new box's cells [a, b) it reaches,
        # clipped at the buffer's start, its offset and its weight
        moves = []
        for offset, w in self._offsets:
            offset += base
            g0 = -offset if -offset > first else first
            if g0 < end:
                moves.append((g0 + offset, end + offset, offset, w))
        ops = []
        append, block, product = ops.append, PRODUCT_BLOCK, self._product
        # block by block, so that a block and its sources stay in cache over
        # all the steps; each block's cells get the steps in step order
        for x in range(0, rows, block):
            y = x + block if x + block < rows else rows
            written = False
            for a, b, o, w in moves:
                if a < x:
                    a = x
                if b > y:
                    b = y
                if a >= b:
                    continue
                to, part = new[a:b], old[a - o:b - o]
                if not written:
                    # the first step to reach the block writes its cells,
                    # and the rest of the block is zeroed
                    written = True
                    if w is None:
                        append((operator.setitem, (to, ..., part)))
                    else:
                        append((np.multiply, (part, w, to)))
                    if x < a:
                        append((new[x:a].fill, (0,)))
                    if b < y:
                        append((new[b:y].fill, (0,)))
                    continue
                if w is not None:
                    # the product is formed in one block of its own, so no
                    # temporary is layer-sized and each stays in cache
                    weighted = product[:b - a]
                    append((np.multiply, (part, w, weighted)))
                    part = weighted
                append((np.add, (to, part, to)))
            if not written:
                append((new[x:y].fill, (0,)))
        head = ()
        if self.exact:
            if limbs > held:
                ops.append((dst[held:limbs, :rows].fill, (0,)))
            head = (limbs,)
        # the new box's rows, padded and cut to the box, at the start of dst
        padded = np.ndarray(head + (box[0], *self._extents), dst.dtype, dst, 0, self._byte_strides)
        untrimmed = np.ndarray(head + tuple(box), dst.dtype, dst, 0, self._byte_strides)
        for k in range(1, self.d):
            if lo[k] + self.step_min[k] < 0:
                # cells the orthant cuts on axis k landed in its pads
                pads = padded[self._lead + (slice(None),) * k + (slice(box[k], None),)]
                ops.append((pads.fill, (0,)))
        faces = [untrimmed.transpose(order) for order in self._face_orders]
        # under the layout it was built from, which a relayout changes
        plan = self._plans[self._parity] = _Plan(
            self._key + (limbs,) if self.exact else self._key, ops, untrimmed, faces, box, new_lo)
        return plan

    def advance(self):
        if not self._view.size:
            return
        key, limbs = self._key, self._limbs
        if self.exact:
            self._bound *= len(self.shifts)
            limbs = -(-self._bound.bit_length() // self._radix)
            key += (limbs,)
        plan = self._plan(key, limbs)
        if plan is None:
            self._kill(self.lo)
            return
        for op, args in plan.ops:
            op(*args)
        self._limbs = limbs
        self._buffers.reverse()
        self._parity ^= 1
        bounds = self._trim(plan)
        if bounds is None:
            self._kill(plan.lo)
            return
        state = plan.trims.get(bounds)
        if state is None:
            state = plan.trims[bounds] = self._state(plan.box, plan.extent, plan.lo, bounds)
        self._set_state(state)
        if self.exact:
            if self._carry is not None:
                # one carry pass; the top limb has nothing to carry
                low, high, carry = self._carry
                np.right_shift(low, self._radix, out=carry)
                low &= (1 << self._radix) - 1
                high += carry
            return
        cells = self._cells
        # the cell argmax finds is the maximum, found without the reduction machinery
        self.layer_max = mx = float(cells[cells.argmax()])
        if mx > 0.0:
            cells /= mx
            self.log_scale += math.log(mx)
            if self.trim_threshold > 0.0:
                np.copyto(cells, 0.0, where=cells < self.trim_threshold)
            if self.log_weight:
                self.log_scale += self.log_weight

    def snapshot(self):
        """The layer's cells in C order, as bytes: with ``lo`` and the shape
        they fix the layer, whatever its layout."""
        return self._view.tobytes()

    def _kill(self, lo):
        self._view = self._view[self._lead + (slice(0, 0),) * self.d]
        self.lo = list(lo)

    def _trim(self, plan):
        """The first and last index of the nonzero cells on each axis of the
        plan's new box, read inward from each face, or None when it has none.
        A face of the untrimmed box is nonzero exactly when its part inside
        the box trimmed on the other axes is, as only zero cells are cut."""
        bounds, occupied = (), self._occupied
        for faces in plan.faces:
            first, last = 0, len(faces) - 1
            while first <= last and not occupied(faces[first]):
                first += 1
            if first > last:
                return None
            while not occupied(faces[last]):
                last -= 1
            bounds += (first, last)
        return bounds

    def endpoint_items(self):
        """(lattice point, mass) pairs of the current layer."""
        if self.dead:
            return []
        if self.exact:
            cells = np.argwhere(np.any(self._view, axis=0))
            limbs = self._view[(slice(None),) + tuple(cells.T)].T.tolist()
            values = [sum(v << (self._radix * j) for j, v in enumerate(cell)) for cell in limbs]
        else:
            cells = np.argwhere(self.layer > 0.0)
            values = self.layer[tuple(cells.T)].tolist()
            try:
                scale = math.exp(self.log_scale)
            except OverflowError:
                # past the double range each mass is given as float_value
                # gives a total: inf only where the mass itself passes it
                values = [_exp(math.log(v) + self.log_scale) for v in values]
            else:
                values = [v * scale for v in values]
        return [(tuple(p), v) for p, v in zip((cells + self.lo).tolist(), values)]


def count_walks(steps, start, n_max, weights=None, mode=LOG_SCALED):
    """Totals of length-n orthant-confined walks for n = 0,...,n_max.

    Unit weights (``weights=None``) count walks; probability weights turn the
    totals into survival probabilities. Exact mode demands unit weights.
    """
    if mode not in (EXACT, LOG_SCALED):
        raise ValueError(f"unknown mode {mode!r}")
    exact = mode == EXACT
    steps, start, w, _ = _dp_inputs(steps, start, n_max, weights, exact)
    dp = _LayerDP(steps, w, start, n_max, exact=exact)
    values = [dp.total()]
    # total mantissa, max before normalisation, and layout key and cells of
    # the last two float layers; the cells are taken only when the total
    # mantissa equals the one two layers back and is not a dead layer's zero
    back = deque([(None, None, None)] * 2, maxlen=2)
    advance, total_of, append = dp.advance, dp.total, values.append
    while len(values) <= n_max:
        advance()
        value = total_of()
        append(value)
        if exact:
            continue
        total, cells = value[0], None
        if total == back[0][0] and total > 0.0:
            cells = dp._key, dp.snapshot()
            if cells == back[0][2]:
                # every later layer repeats the one two back (see the module
                # docstring); its scale grows as advance would grow it
                logs = itertools.cycle((math.log(back[1][1]), math.log(dp.layer_max)))
                scale = dp.log_scale
                while len(values) <= n_max:
                    scale += next(logs)
                    if dp.log_weight:
                        scale += dp.log_weight
                    values.append((values[-2][0], scale))
                break
        back.append((total, dp.layer_max, cells))
    return CountSeries(n_max=n_max, mode=mode, values=tuple(values))


def end_point_counts(steps, start, n, weights=None):
    """The n-th layer itself: lattice endpoint -> count (or weighted mass)."""
    exact = weights is None
    steps, start, w, lift = _dp_inputs(steps, start, n, weights, exact)
    # no threshold trim here: endpoint masses are compared cell by cell
    dp = _LayerDP(steps, w, start, n, exact=exact, trim_threshold=0.0)
    for _ in range(n):
        dp.advance()
    return {lift(z): v for z, v in dp.endpoint_items()}


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
    # NaN where a total is zero
    logs = np.array([math.nan if (lv := series.log_value(n)) is None else lv
                     for n in range(series.n_max + 1)])
    if math.isnan(logs[-1]):
        # zeros are absorbing for confined walks: the walk died out
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)

    best = None
    for p in _PERIODS:
        # the p-lag ratios of the lengths m >= p where both totals are nonzero
        ratio_logs = (logs[p:] - logs[:-p]) / p
        alive = ~np.isnan(ratio_logs)
        ms, ratio_logs = np.arange(p, len(logs))[alive], ratio_logs[alive]
        if len(ms) < 2:
            continue
        window = ratio_logs[-max(3, len(ratio_logs) // 4):]
        spread = window.max() - window.min()
        if best is None or spread < best[0]:
            best = (spread, p, ms, ratio_logs)
        if spread <= STABLE_SPREAD:
            # every lag before had a larger spread, so best is this one
            break
    if best is None:
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)
    spread, period, ms, ratio_logs = best
    raw = math.exp(ratio_logs[-1])
    if spread > STABLE_SPREAD or len(ms) < 3:
        # no lag in {1,2,3,4,6} stabilizes the tail: report raw ratios only
        return RateEstimate(raw_ratio=raw, period=period, extrapolated=raw)

    k = max(4, len(ms) // 4)
    y = np.array([math.exp(r) for r in ratio_logs[-k:]])
    slope_intercept = np.polyfit(1.0 / ms[-k:], y, 1)
    extrapolated = max(0.0, float(slope_intercept[1]))
    return RateEstimate(raw_ratio=raw, period=period, extrapolated=extrapolated)


def cramer_identity_check(m, z, start, n):
    """Max relative discrepancy of the change-of-measure identity at time n.

    Compares, endpoint by endpoint, the confined local probability under the
    original law against L(z)^n e^{<z, x-y>} times the probability under the
    tilted law. Both sides come from dense double-precision layers, so the
    horizon is capped where that stays meaningful.
    """
    if n > 30:
        raise ValueError("identity check supports n <= 30 (dense double layers)")
    z = np.asarray(z, dtype=float)
    tilted = laplace.tilt(m, z)
    lz = laplace.value(laplace.FiniteLaplace(m), z)
    base = end_point_counts(m.steps, start, n, weights=m.weights)
    moved = end_point_counts(m.steps, start, n, weights=tilted.weights)
    start = np.asarray(start, dtype=np.int64)  # checked by the DP above
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


def find_delta(steps, cone, n_max=None):
    """Smallest shift delta in DELTA_GRID certifying the rate limit's validity region.

    Searches (breadth-first, lattice) for a walk from the origin staying in
    the cone shifted inward by delta times `cones.interior_vector(cone)`
    that ends strictly inside the cone. A success witnesses that every start
    in the delta-shifted cone obeys the rate limit; exhaustion over the grid
    is reported as a value, together with the half-space witness when the
    step set is improper.
    The witness is looked for once the smallest shift fails, and a found
    witness skips the other shifts (see the module docstring).
    """
    steps = steps_mod.as_lattice_steps(steps)
    cones.require_dim(cone, steps.shape[1])
    cones.require_interior(cone, "find_delta")
    v = cones.interior_vector(cone)
    if n_max is None:
        n_max = steps_mod.default_h3_depth(steps)
    witness = None
    for i, delta in enumerate(DELTA_GRID):
        path, _ = steps_mod._interior_path(steps, cone, delta * v, n_max)
        if path is not None:
            return FindDeltaResult(found=True, delta=delta, n0=len(path), path=path)
        if i == 0:
            witness = steps_mod.halfspace_witness(steps_mod.from_step_set(steps), cones.dual(cone))
            if witness is not None:
                break
    return FindDeltaResult(found=False, h2_witness=witness)
