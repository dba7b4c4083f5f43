"""Finitely supported increment measures and the walk hypotheses.

A ``StepMeasure`` is the step set with strictly positive weights that sum to
1: a probability law. Walk counting needs no measure of its own, as the
counting DP takes the raw steps. The hypothesis checks decide whether the
support spans the whole space, whether it avoids every half-space cut out by
a dual-cone direction (which is what makes the rate minimizer exist), and
whether a lattice path from the origin can reach the open orthant.

The half-space test needs an LP only when no step lies strictly inside the
cone: a step whose products with every ray of the dual cone, on rows scaled
into [1, 2), exceed INTERIOR_MARGIN already proves it (Gordan's
alternative). The lattice search expands one breadth-first level per numpy
pass, visiting points in the order of a point-by-point search and testing
them with `cones._contains_rows` and `cones._strictly_contains_rows`. A level
whose int64 points could reach 2**63 is refused with ValueError.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cones
from ._simplex import scale_rows, simplex_min

MAX_EXPONENT = 700.0

# Cap on the lattice points one breadth-first search may visit; like the
# counting DP's MAX_BOX_CELLS, a search that would pass it raises ValueError.
MAX_SEARCH_POINTS = 1 << 15

# A step whose products with the dual cone's rays, both scaled into [1, 2),
# all exceed this lies inside the cone and settles H2' without the LP; it
# sits far above the rounding of such O(1) products.
INTERIOR_MARGIN = 1e-9

_NO_STEPS = "need at least one step, each a vector of length >= 1"


@dataclass(frozen=True, eq=False)
class StepMeasure:
    dim: int
    steps: np.ndarray    # (k, dim), pairwise distinct rows
    weights: np.ndarray  # (k,), strictly positive, summing to 1

    def __repr__(self):
        return (f"StepMeasure(dim={self.dim}, steps={self.steps.tolist()}, "
                f"weights={self.weights.tolist()})")

    @property
    def support_size(self):
        return self.steps.shape[0]

    def is_lattice(self):
        return bool(np.all(self.steps == np.round(self.steps)))


def probability_measure(steps, weights):
    """The law with the given weights on pairwise distinct finite steps; the
    weights must be finite, strictly positive and sum to 1 (to 1e-12)."""
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    k, d = steps.shape
    if k == 0 or d == 0:
        raise ValueError(_NO_STEPS)
    if not np.all(np.isfinite(steps)):
        raise ValueError("steps must be finite")
    seen = set()
    for row in steps:
        key = tuple(row.tolist())
        if key in seen:
            raise ValueError(f"duplicate step {key}")
        seen.add(key)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (k,):
        raise ValueError("need one weight per step")
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if np.any(weights <= 0.0):
        raise ValueError("weights must be strictly positive")
    if abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"probability weights sum to {weights.sum()!r}, not 1")
    return StepMeasure(d, steps, weights)


def from_step_set(steps):
    """Uniform probability law on a finite step set."""
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    return probability_measure(steps, np.full(len(steps), 1.0 / max(len(steps), 1)))


def mean(m):
    return m.weights @ m.steps


def covariance(m):
    centered = m.steps - mean(m)
    return (m.weights[:, None] * centered).T @ centered


def check_h1(m):
    """Support spans R^dim (not contained in a linear hyperplane)."""
    sv = np.linalg.svd(m.steps, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    return int(np.sum(sv > cones.RANK_TOL * sv[0])) == m.dim


def check_h1_via_covariance(m):
    """Same condition decided through the covariance kernel.

    The support spans the space exactly when the covariance is nondegenerate,
    or its kernel is a line that the mean does not sit orthogonally to.
    """
    gamma = covariance(m)
    eigvals, eigvecs = np.linalg.eigh(gamma)
    top = eigvals[-1]
    if top <= 0.0:
        # zero covariance: a point mass, spans only when dim == 1 and mean != 0
        return m.dim == 1 and abs(float(mean(m)[0])) > 0.0
    kernel = eigvals < cones.RANK_TOL * top
    kdim = int(np.sum(kernel))
    if kdim == 0:
        return True
    if kdim > 1:
        return False
    kvec = eigvecs[:, 0]
    # mean must have a component along the kernel direction
    return abs(float(mean(m) @ kvec)) > cones.RANK_TOL * max(1.0, float(np.linalg.norm(mean(m))))


@dataclass(frozen=True)
class H2Result:
    proper: bool
    witness: np.ndarray | None = None


def halfspace_witness(m, cone):
    """A direction u != 0 in `cone` with <u, s> <= 0 for every step, or None.

    `cone` plays the role of the dual cone K* of a cone K with interior
    (`cones.require_interior`), entering through its rays R. With S and R
    scaled row by row into [1, 2) (`_simplex.scale_rows`), G = S R^T. A step
    whose row of G exceeds INTERIOR_MARGIN everywhere lies inside K, and
    <s, u> > 0 for every u != 0 in K*, so there is no witness (Gordan's
    alternative) and None is returned before any LP. Otherwise the LP
    min a s.t. G t + slack = 0, sum t + a = 1, (t, slack, a) >= 0 starts
    from the basis of the slacks (at 0) and a (at 1). Its optimum is 0 when
    some t != 0 has G t <= 0 and 1 otherwise, so it is compared with 1/2.
    The witness R^T t, nonzero as K* is pointed, is returned at unit l1 norm.
    """
    cones.require_dim(cone, m.dim)
    S, R = scale_rows(m.steps), scale_rows(cone.rays)
    G = S @ R.T
    if _has_interior_step(G):
        return None
    return _witness_lp(G, R)


def _has_interior_step(G):
    """Whether some row of G exceeds INTERIOR_MARGIN in every entry."""
    return bool((G > INTERIOR_MARGIN).all(axis=1).any())


def _witness_lp(G, R):
    """`halfspace_witness`'s LP on G = S R^T and the scaled rays R."""
    k, r = G.shape
    # columns t, the slacks, a
    M = np.zeros((k + 1, r + k + 1))
    M[:k, :r] = G
    M[:k, r:r + k] = np.eye(k)
    M[k, :r] = 1.0
    M[k, -1] = 1.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    c = np.zeros(r + k + 1)
    c[-1] = 1.0
    status, y, a = simplex_min(c, M, b, range(r, r + k + 1))
    if status != "optimal":
        raise RuntimeError(f"H2' LP failed: {status}")
    if a > 0.5:
        return None
    u = R.T @ y[:r]
    return u / float(np.abs(u).sum())


def check_h2prime(m, cone):
    """Support not contained in any half-space u^- with u in K* \\ {0}.

    Returns the verdict together with a violating direction when improper.
    """
    cones.require_interior(cone, "H2'")
    witness = halfspace_witness(m, cones.dual(cone))
    return H2Result(proper=witness is None, witness=witness)


def as_int64(a, message):
    """a as an int64 array; ValueError(message) unless every entry is an
    integer below 2**63 in absolute value (checked, never rounded or wrapped)."""
    a = np.asarray(a)
    if a.dtype.kind != "i":
        try:
            coords = a.astype(float) if a.dtype.kind in "buifO" else None
        except (TypeError, ValueError):
            coords = None
        if coords is None or not np.all((coords == np.round(coords)) & (np.abs(coords) < 2.0**63)):
            raise ValueError(message)
        a = coords
    return a.astype(np.int64)


def as_lattice_steps(steps):
    """The steps as an int64 array of shape (k, d), k, d >= 1: the one check
    of every lattice entry point (`check_h3`, `find_delta`, the DP)."""
    steps = np.atleast_2d(np.asarray(steps))
    if steps.ndim != 2 or 0 in steps.shape:
        raise ValueError(_NO_STEPS)
    return as_int64(steps, "lattice steps must be integers below 2**63 in absolute value")


@dataclass(frozen=True)
class H3Result:
    ok: bool
    path: tuple | None = None
    exhausted: bool = True  # False when the depth cap cut off the search


def default_h3_depth(steps):
    """2 d times the largest l1 norm of a step over the gcd of all the step
    coordinates, formed on Python integers (int64 sums could wrap)."""
    rows = np.atleast_2d(np.asarray(steps)).tolist()
    g = math.gcd(*itertools.chain.from_iterable(rows)) or 1
    max_l1 = max(sum(map(abs, row)) for row in rows) // g
    return max(1, 2 * len(rows[0]) * max_l1)


def _interior_path(steps, cone, shift, max_depth):
    """Breadth-first lattice search for a walk from the origin whose states y
    keep y + shift in the cone and whose last state is in the cone's interior.

    Returns the walk's steps (None when there is none) and whether the depth
    cap cut the search off. The search runs on steps / g for the gcd g of
    their coordinates, with shift / g: a cone is closed under scaling. A
    search that visits more than MAX_SEARCH_POINTS points raises ValueError,
    as does a level where max |frontier| + max |step| reaches 2**63 on an axis.

    It expands one level at a time, in the order of a point-by-point search:
    the candidates are frontier x steps, in (frontier, step) order; the first
    occurrence of a point not met before claims it; the cone tests run on
    all of them at once (`cones._contains_rows` on y + shift, then
    `cones._strictly_contains_rows` on y), and the first point admitted
    inside the interior ends the search, unless the budget was passed before
    it. Each level keeps the candidate index of its points, parent * k +
    step, from which the walk is read back.
    """
    if max_depth < 1:
        raise ValueError("search depth must be >= 1")
    g = math.gcd(*steps.ravel().tolist()) or 1
    if g > 1:
        steps, shift = steps // g, shift / g
    k, d = steps.shape
    reach = [max(map(abs, axis)) for axis in zip(*steps.tolist())]  # abs(-2**63) wraps in int64
    may_wrap = max_depth * max(reach) >= 2**63  # else no level can reach 2**63
    frontier = np.zeros((1, d), dtype=np.int64)
    seen = {(0,) * d}  # every point met; one the cone refused it refuses again
    admitted = 1
    levels = []
    for _ in range(max_depth):
        if not len(frontier):
            break
        if may_wrap and any(f + r >= 2**63
                            for f, r in zip(np.abs(frontier).max(axis=0).tolist(), reach)):
            raise ValueError("the lattice search would reach 2**63 in a coordinate, past int64")
        cand = (frontier[:, None, :] + steps).reshape(-1, d)
        keys = list(map(tuple, cand.tolist()))
        first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
        fresh = first.keys() - seen
        seen.update(fresh)
        idx = np.array(sorted(map(first.__getitem__, fresh)), dtype=np.intp)
        points = cand[idx]
        keep = cones._contains_rows(cone, points + shift)
        idx, points = idx[keep], points[keep]
        inside = cones._strictly_contains_rows(cone, points.astype(float)).nonzero()[0]
        # the point admitted at position `room` passes the budget
        room = max(MAX_SEARCH_POINTS - admitted, 0)
        if len(idx) > room and not (inside.size and inside[0] < room):
            raise ValueError(f"the lattice search passed {MAX_SEARCH_POINTS} points "
                             f"before depth {max_depth}, above its budget")
        levels.append(idx)
        if inside.size:
            path, at = [], int(inside[0])
            for level in reversed(levels):
                at, si = divmod(int(level[at]), k)
                path.append(tuple(g * v for v in steps[si].tolist()))
            return tuple(reversed(path)), False
        admitted += len(idx)
        frontier = points
    return None, bool(len(frontier))


def check_h3(steps, search_depth=None):
    """Search for a lattice path from the origin staying in Q that reaches
    the open orthant.

    Breadth-first over lattice points; a failure at the depth bound is
    reported with ``exhausted=False`` (not a definitive no).
    """
    steps = as_lattice_steps(steps)
    if search_depth is None:
        search_depth = default_h3_depth(steps)
    d = steps.shape[1]
    path, truncated = _interior_path(steps, cones.orthant(d), np.zeros(d), search_depth)
    return H3Result(ok=path is not None, path=path, exhausted=not truncated)

