"""Frozen reference copy of the per-step walker loop of `montecarlo._simulate`
as it was before exited walkers were removed by index: each step draws T raw
words, chooses steps by counting thresholds in `intp`, moves the walkers still
inside, and removes the exits with boolean masks.

`test_montecarlo.TestReferenceLoop` requires `simulate_survival`,
`tilted_survival` and `band_survival` to give this copy's statistics bit for
bit. It moves every walker step by step, also on walks that cannot leave their
cone, which the counting path must match exactly. It checks no input: callers
pass a valid start, cone and checkpoints. Keep this file unchanged while that
is the claim.
"""

import math

import numpy as np

from conewalks import cones


def _row_membership(cone, pos, trials, coords):
    if cone.kind == cones.ORTHANT:
        inside = pos[:, coords[0]] >= 0
        for c in coords[1:]:
            inside &= pos[:, c] >= 0
        return inside
    if pos.shape[0] == 1 < trials:
        return _row_membership(cone, np.repeat(pos, 2, axis=0), trials, coords)[:1]
    return (pos @ cone.normals.T >= 0).all(axis=1)


def _step_thresholds(weights):
    cumw = np.cumsum(weights)[:-1].tolist()
    return np.array([math.ceil(c * 2**53) << 11 for c in cumw if c < 1.0], dtype=np.uint64)


def _choose_steps(raw, thresholds):
    idx = np.zeros(raw.size, dtype=np.intp)
    for t in thresholds:
        idx += raw >= t
    return idx


def simulate(m, start, cone, config, checkpoints, statistic):
    """`montecarlo._simulate`'s statistics at each checkpoint, from the
    per-step loop with boolean-mask removal."""
    start = np.asarray(start)
    wanted = set(checkpoints)
    top_step = np.abs(m.steps).max()
    lattice = (m.is_lattice() and np.all(start == np.round(start))
               and max(abs(int(v)) for v in start.tolist()) + config.n * int(top_step) < 2**63)
    if lattice:
        steps = m.steps.astype(np.int64)
        start = start.astype(np.int64)
    else:
        steps = m.steps
        start = start.astype(float)
    coords = np.flatnonzero((steps.min(axis=0) < 0) | (start < 0)).tolist()
    can_exit = cone.kind != cones.ORTHANT or bool(coords)
    trials = config.trials
    thresholds = _step_thresholds(m.weights)
    bitgen = np.random.Philox(key=config.seed)
    pos = np.tile(start, (trials, 1))
    live = np.arange(trials)
    live_pos = pos.copy()
    out = {}
    for k in range(1, config.n + 1):
        raw = bitgen.random_raw(trials)
        if live.size < trials:
            raw = raw.take(live)
        live_pos += steps.take(_choose_steps(raw, thresholds), axis=0)
        if can_exit:
            inside = _row_membership(cone, live_pos, trials, coords)
            if not inside.all():
                pos[live[~inside]] = live_pos[~inside]
                live = live[inside]
                live_pos = live_pos[inside]
        if k in wanted:
            pos[live] = live_pos
            alive = np.zeros(trials, dtype=bool)
            alive[live] = True
            out[k] = statistic(k, pos, alive)
    return out
