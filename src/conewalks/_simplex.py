"""The dense simplex routine of the two hypothesis LPs, and the row scaling
they read their data through.

The LPs are tiny (at most a few dozen rows: cone facets plus step vectors),
so a plain dense tableau with Bland's anti-cycling rule is adequate. Both,
H2' in `steps.halfspace_witness` and the global-minimum test in
`laplace.has_global_min_on_cone`, start `simplex_min` from an explicit
feasible basis, with no phase 1, on rows that `scale_rows` puts in [1, 2):
their verdicts do not depend on the scale of the steps or the cone.
"""

from __future__ import annotations

import numpy as np

# Pivot / reduced-cost tolerance. The LPs are built from rows scaled by
# `scale_rows`, so their data is O(1) and a fixed absolute tolerance is safe.
EPS = 1e-11

# Pivots after which `simplex_min` gives up; Bland's rule never needs them.
MAX_PIVOTS = 10000


def scale_rows(A):
    """A with each row multiplied by the power of two that puts its largest
    |entry| in [1, 2): exact unless an entry lies 2^1022 below its row's
    largest. A row whose largest |entry| is 1 is kept; a zero row stays 0.
    """
    A = np.asarray(A, dtype=float)
    _, e = np.frexp(np.abs(A).max(axis=1, initial=0.0))
    return np.ldexp(A, (1 - e)[:, None])


def simplex_min(c, M, b, basis):
    """Primal simplex for min c@y subject to M y = b, y >= 0.

    `basis` lists one column index per row; M[:, basis] must be invertible
    and the corresponding basic solution nonnegative. Bland's rule is used
    throughout, so the iteration always terminates, degenerate start bases
    included.

    Returns (status, y, value) with status in {"optimal", "unbounded",
    "iteration_limit"}, the last after MAX_PIVOTS pivots.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    n = M.shape[1]
    basis = list(basis)

    B = M[:, basis]
    T = np.linalg.solve(B, np.concatenate([M, b[:, None]], axis=1))
    # reduced costs
    obj = c - c[basis] @ T[:, :n]

    for _ in range(MAX_PIVOTS):
        # Bland: entering = lowest index with negative reduced cost
        negative = (obj < -EPS).nonzero()[0]
        if not negative.size:
            y = np.zeros(n)
            y[basis] = T[:, n]
            return "optimal", y, float(c @ y)

        entering = int(negative[0])
        col = T[:, entering]
        rows = (col > EPS).nonzero()[0]
        if rows.size == 0:
            return "unbounded", None, -np.inf

        ratios = T[rows, n] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic variable index among min ratios
        tied = rows[ratios <= best + EPS * (1.0 + abs(best))]
        leaving = min(tied.tolist(), key=basis.__getitem__)

        piv = T[leaving, entering]
        T[leaving] /= piv
        # one rank-1 update of the rows with a nonzero entering entry: each
        # entry takes the product and the subtraction a row-by-row pass makes
        update = np.abs(col) > 0.0
        update[leaving] = False
        T[update] -= np.outer(col[update], T[leaving])
        obj = obj - obj[entering] * T[leaving, :n]
        basis[leaving] = entering

    return "iteration_limit", None, np.nan
