"""Frozen reference copy of `steps._interior_path` as it searched one lattice
point per Python iteration: a deque of (point, depth), a dict of parents, and
`cones.contains` / `cones.strictly_contains` called on each candidate.

`test_steps.TestInteriorPathMatchesReference` requires `_interior_path` to
give this copy's path and truncation flag, or to raise where it raises. The
copy reads `steps.MAX_SEARCH_POINTS` at call time, so a monkeypatched budget
applies to both. Keep this file unchanged while that is the claim.
"""

import math
from collections import deque

import numpy as np

from conewalks import cones
from conewalks import steps as steps_mod


def interior_path(steps, cone, shift, max_depth):
    """(path, truncated, parents): the search's two results, and the dict of
    the points it admitted (origin included), each mapped to its parent and
    step index, on the steps divided by their gcd."""
    if max_depth < 1:
        raise ValueError("search depth must be >= 1")
    budget = steps_mod.MAX_SEARCH_POINTS
    g = math.gcd(*steps.ravel().tolist()) or 1
    steps, shift = steps // g, shift / g
    origin = (0,) * steps.shape[1]
    parents = {origin: None}
    frontier = deque([(origin, 0)])
    truncated = False
    while frontier:
        point, depth = frontier.popleft()
        if depth == max_depth:
            truncated = True
            continue
        base = np.array(point, dtype=np.int64)
        for si, s in enumerate(steps):
            nxt = base + s
            key = tuple(int(v) for v in nxt)
            if key in parents or not cones.contains(cone, nxt + shift):
                continue
            parents[key] = (point, si)
            if len(parents) > budget:
                raise ValueError(f"the lattice search passed {budget} points "
                                 f"before depth {max_depth}, above its budget")
            if cones.strictly_contains(cone, nxt.astype(float)):
                path = []
                cur = key
                while parents[cur] is not None:
                    prev, idx = parents[cur]
                    path.append(tuple(g * int(v) for v in steps[idx]))
                    cur = prev
                path.reverse()
                return tuple(path), truncated, parents
            frontier.append((key, depth + 1))
    return None, truncated, parents
