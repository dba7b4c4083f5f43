"""Closed-form ground-truth families for the quarter-plane half-space walk
and the segment-confined simple walk.

The three-step walk with jumps (1,-1), (-1,1), (-1,-1) and probabilities
q, q, p keeps the coordinate sum non-increasing, so its support sits inside
a half-space cut out by the diagonal dual direction and the universal rate
theorem does not apply: started on the diagonal i + j = 2N the decay rate is
2 q cos(pi / (2N + 2)), which does depend on the start. The segment factor
cos(pi / (2N + 2)) is the survival rate of the simple symmetric walk on
{0, ..., 2N}, for which an independent spectral oracle is provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import counting, steps as steps_mod

HALFSPACE_STEPS = ((1, -1), (-1, 1), (-1, -1))


def halfspace_weights(p):
    """Weights (q, q, p) with q = (1 - p) / 2 for the three-step family."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    q = (1.0 - p) / 2.0
    return np.array([q, q, p])


def halfspace_rate(p, N):
    """Decay rate 2 q cos(pi / (2N + 2)) on the diagonal i + j = 2N."""
    return float(2.0 * halfspace_weights(p)[0] * segment_rate(N))


def segment_rate(N):
    """Stay-in-{0..2N} rate cos(pi / (2N + 2)) of the +-1 symmetric walk."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return math.cos(math.pi / (2 * N + 2))


def segment_operator_eigenvalue(N):
    """Dominant eigenvalue modulus of the (2N+1)-state segment operator.

    The largest |eigenvalue| of the symmetric tridiagonal transition matrix
    of the +-1 walk killed off {0, ..., 2N}, from `np.linalg.eigvalsh`;
    independent of both the cosine formula and the walk enumeration, giving a
    third route to the same constant.
    """
    half = np.full(2 * N, 0.5)
    return float(np.abs(np.linalg.eigvalsh(np.diag(half, 1) + np.diag(half, -1))).max())


@dataclass(frozen=True)
class HalfspaceCheck:
    closed_form: float
    dp_estimate: float
    abs_error: float
    alt_start: tuple | None = None
    alt_estimate: float | None = None


def halfspace_verify(p, N, start, n_max):
    """Exact-enumeration check of the closed-form rate from a diagonal start.

    Runs the weighted quarter-plane walk enumeration from `start` (which must
    sit on the diagonal i + j = 2N), extrapolates its decay rate, and also
    reports the estimate from another point of the same diagonal, since the
    rate is a function of the diagonal alone.
    """
    start = tuple(steps_mod.as_int64(start, "start must be a lattice point").tolist())
    if len(start) != 2 or min(start) < 0:
        raise ValueError("start must be a lattice point of the quarter plane")
    if start[0] + start[1] != 2 * N:
        raise ValueError(f"start must lie on the diagonal i + j = {2 * N}")
    weights = halfspace_weights(p)
    closed = halfspace_rate(p, N)

    def dp_rate(x):
        series = counting.count_walks(HALFSPACE_STEPS, x, n_max, weights=weights,
                                      mode=counting.LOG_SCALED)
        return counting.estimate_rate(series).extrapolated

    estimate = dp_rate(start)
    alt = (2 * N, 0) if start != (2 * N, 0) else (0, 2 * N)
    alt_estimate = dp_rate(alt)
    return HalfspaceCheck(
        closed_form=closed,
        dp_estimate=estimate,
        abs_error=abs(estimate - closed),
        alt_start=alt,
        alt_estimate=alt_estimate,
    )
