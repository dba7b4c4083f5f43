"""Frozen reference copy of the closed-form facet enumeration for d <= 3
(`_perps`, `_first_along`, `_generators`) that `cones._generators` replaced.

`test_cones.TestGeneratorsMatchReference` requires the package's enumeration
for every dimension to return this copy's vectors bit for bit in d <= 3.
Keep this file unchanged while that is the claim.
"""

import numpy as np

from conewalks.cones import RANK_TOL


def _perps(W):
    """A vector orthogonal to each d - 1 independent rows of W (d <= 3): 1 in
    1-D, each row turned by a right angle in 2-D, the cross products of the
    non-parallel pairs of rows in 3-D."""
    if W.shape[1] < 3:
        return W[:, ::-1] * [-1.0, 1.0] if W.shape[1] == 2 else np.ones((1, 1))
    i, j = np.triu_indices(len(W), 1)
    Z, norms = np.cross(W[i], W[j]), np.linalg.norm(W, axis=1)
    return Z[np.linalg.norm(Z, axis=1) > RANK_TOL * norms[i] * norms[j]]


def _first_along(Z, fold):
    """The rows of Z at cosine below 1 - RANK_TOL from every earlier row, the
    cosines folded by `fold` (np.abs compares lines, not directions)."""
    U = Z / np.linalg.norm(Z, axis=1)[:, None]
    C = fold(U @ U.T)
    return Z[[i for i in range(len(Z)) if (C[i, :i] < 1.0 - RANK_TOL).all()]]


def generators(V):
    """Generators of {z : V z >= 0}, V of shape (m, d) with d <= 3: plus and
    minus a basis of ker V, then one vector on each extreme ray."""
    d = V.shape[1]
    if d > 3:
        raise ValueError(f"the reference enumeration stops at d = 3, got {d}")
    cos = lambda Z: (Z @ V.T) / np.outer(np.linalg.norm(Z, axis=1), np.linalg.norm(V, axis=1))
    Z = _perps(np.vstack([V, np.eye(d)]))
    K = _first_along(Z[np.abs(cos(Z)).max(axis=1) <= RANK_TOL], np.abs)[:d - 1]
    Z = _perps(np.vstack([V, K]))
    Z = np.vstack([Z, -Z])
    c = cos(Z)
    rays = _first_along(Z[(c.min(axis=1) >= -RANK_TOL) & (c.max(axis=1) > RANK_TOL)], np.asarray)
    return np.vstack([K, -K, rays]) + 0.0  # + 0.0 turns -0.0 into 0.0
