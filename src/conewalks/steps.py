"""Finitely supported increment measures and the walk hypotheses.

A ``StepMeasure`` is the step set with strictly positive weights, either as a
probability law (weights sum to 1) or as plain unit counting weights. The
hypothesis checks decide whether the support spans the whole space, whether
it avoids every half-space cut out by a dual-cone direction (which is what
makes the rate minimizer exist), and whether a lattice path from the origin
can reach the open orthant.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import cones
from ._simplex import nonneg_solution

PROBABILITY = "probability"
COUNTING = "counting"

MAX_EXPONENT = 700.0

# Relative singular-value cutoff for the span test, and eigenvalue cutoff for
# the covariance-kernel route; both routes must agree.
RANK_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class StepMeasure:
    dim: int
    steps: np.ndarray    # (k, dim), pairwise distinct rows
    weights: np.ndarray  # (k,), strictly positive
    mode: str

    def __repr__(self):
        return (f"StepMeasure(dim={self.dim}, steps={self.steps.tolist()}, "
                f"weights={self.weights.tolist()}, mode={self.mode!r})")

    @property
    def support_size(self):
        return self.steps.shape[0]

    def is_lattice(self):
        return bool(np.all(self.steps == np.round(self.steps)))


def _validate(steps, weights, mode):
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    k, d = steps.shape
    if k == 0:
        raise ValueError("step set must be non-empty")
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
    if mode == PROBABILITY and abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError(f"probability weights sum to {weights.sum()!r}, not 1")
    return StepMeasure(d, steps, weights, mode)


def from_step_set(steps):
    """Uniform probability law on a finite step set."""
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    k = steps.shape[0]
    if k == 0:
        raise ValueError("step set must be non-empty")
    return _validate(steps, np.full(k, 1.0 / k), PROBABILITY)


def probability_measure(steps, weights):
    return _validate(steps, weights, PROBABILITY)


def counting_measure(steps):
    steps = np.atleast_2d(np.asarray(steps, dtype=float))
    return _validate(steps, np.ones(steps.shape[0]), COUNTING)


def _require_probability(m, what):
    if m.mode != PROBABILITY:
        raise ValueError(f"{what} requires a probability-mode measure")


def mean(m):
    _require_probability(m, "mean")
    return m.weights @ m.steps


def covariance(m):
    _require_probability(m, "covariance")
    centered = m.steps - mean(m)
    return (m.weights[:, None] * centered).T @ centered


def check_h1(m):
    """Support spans R^dim (not contained in a linear hyperplane)."""
    sv = np.linalg.svd(m.steps, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return False
    return int(np.sum(sv > RANK_TOL * sv[0])) == m.dim


def check_h1_via_covariance(m):
    """Same condition decided through the covariance kernel.

    The support spans the space exactly when the covariance is nondegenerate,
    or its kernel is a line that the mean does not sit orthogonally to.
    """
    _require_probability(m, "check_h1_via_covariance")
    gamma = covariance(m)
    eigvals, eigvecs = np.linalg.eigh(gamma)
    top = eigvals[-1]
    if top <= 0.0:
        # zero covariance: a point mass, spans only when dim == 1 and mean != 0
        return m.dim == 1 and abs(float(mean(m)[0])) > 0.0
    kernel = eigvals < RANK_TOL * top
    kdim = int(np.sum(kernel))
    if kdim == 0:
        return True
    if kdim > 1:
        return False
    kvec = eigvecs[:, 0]
    # mean must have a component along the kernel direction
    return abs(float(mean(m) @ kvec)) > RANK_TOL * max(1.0, float(np.linalg.norm(mean(m))))


@dataclass(frozen=True)
class H2Result:
    proper: bool
    witness: np.ndarray | None = None


def halfspace_witness(m, cone):
    """A direction u != 0 in `cone` with <u, s> <= 0 for every step, or None.

    `cone` plays the role of the dual cone K* of a cone K with interior
    (`cones.require_interior`), entering through its rays. The search is a
    phase-1 feasibility LP over the cone's parametrization, normalized so the
    parameters sum to one; the returned witness is scaled to unit l1 norm.
    The LP's tolerances are absolute, so on steps or rays far from scale 1 it
    may return a point that is no witness; that is refused with ValueError.
    """
    S = m.steps
    k = S.shape[0]
    R = cone.rays
    r = R.shape[0]
    # u = R^T t with t >= 0, sum t = 1, S u <= 0; valid because the dual
    # cone of a solid cone is pointed, so R^T t = 0 forces t = 0.
    M = np.zeros((k + 1, r + k))
    M[:k, :r] = S @ R.T
    M[:k, r:] = np.eye(k)
    M[k, :r] = 1.0
    b = np.zeros(k + 1)
    b[k] = 1.0
    y = nonneg_solution(M, b)
    if y is None:
        return None
    u = R.T @ y[:r]
    u = u / float(np.abs(u).sum())
    if float((S @ u).max()) > 1e-10:
        raise ValueError(
            f"H2' feasibility LP returned an invalid witness: steps of scale "
            f"{float(np.abs(S).max()):.3g} and dual-cone rays of scale "
            f"{float(np.abs(R).max()):.3g}, against the LP's absolute tolerances "
            "for data of scale 1")
    return u


def check_h2prime(m, cone):
    """Support not contained in any half-space u^- with u in K* \\ {0}.

    Returns the verdict together with a violating direction when improper.
    """
    cones.require_interior(cone, "H2'")
    witness = halfspace_witness(m, cones.dual(cone))
    return H2Result(proper=witness is None, witness=witness)


@dataclass(frozen=True)
class H3Result:
    ok: bool
    path: tuple | None = None
    exhausted: bool = True  # False when the depth cap cut off the search


def default_h3_depth(steps):
    steps = np.atleast_2d(np.asarray(steps))
    d = steps.shape[1]
    max_l1 = int(np.abs(steps).sum(axis=1).max()) // (math.gcd(*steps.ravel().tolist()) or 1)
    return max(1, 2 * d * max_l1)


def _interior_path(steps, cone, shift, max_depth):
    """Breadth-first lattice search for a walk from the origin whose states y
    keep y + shift in the cone and whose last state is in the cone's interior.

    Returns the walk's steps (None when there is none) and whether the depth
    cap cut the search off. The search runs on steps / g for the gcd g of
    their coordinates, with shift / g: a cone is closed under scaling.
    """
    if max_depth < 1:
        raise ValueError("search depth must be >= 1")
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
            if cones.strictly_contains(cone, nxt.astype(float)):
                path = []
                cur = key
                while parents[cur] is not None:
                    prev, idx = parents[cur]
                    path.append(tuple(g * int(v) for v in steps[idx]))
                    cur = prev
                path.reverse()
                return tuple(path), truncated
            frontier.append((key, depth + 1))
    return None, truncated


def check_h3(steps, search_depth=None):
    """Search for a lattice path from the origin staying in Q that reaches
    the open orthant.

    Breadth-first over lattice points; a failure at the depth bound is
    reported with ``exhausted=False`` (not a definitive no).
    """
    steps = np.atleast_2d(np.asarray(steps))
    if np.any(steps != np.round(steps)):
        raise ValueError("H3 search needs integer lattice steps")
    steps = steps.astype(np.int64)
    if search_depth is None:
        search_depth = default_h3_depth(steps)
    d = steps.shape[1]
    path, truncated = _interior_path(steps, cones.orthant(d), np.zeros(d), search_depth)
    return H3Result(ok=path is not None, path=path, exhausted=not truncated)


def tilt(m, z):
    """Exponential change of measure: weights w_s e^{<z,s>} / L(z)."""
    _require_probability(m, "tilt")
    z = np.asarray(z, dtype=float)
    if z.shape != (m.dim,):
        raise ValueError(f"tilt point must have length {m.dim}")
    dots = m.steps @ z
    if float(np.abs(dots).max()) > MAX_EXPONENT:
        raise OverflowError("tilt exponent exceeds the overflow guard (700)")
    w = m.weights * np.exp(dots)
    w = w / w.sum()
    return StepMeasure(m.dim, m.steps, w, PROBABILITY)
