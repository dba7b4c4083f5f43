"""Small dense simplex routines backing the H2' feasibility check and the
global-minimum test.

The linear programs in this package are tiny (at most a few dozen rows:
cone facets plus step vectors), so a plain dense tableau with Bland's
anti-cycling rule is adequate and keeps the geometry code self-contained.
"""

from __future__ import annotations

import numpy as np

# Pivot / reduced-cost tolerance. Problem data here is O(1) lattice vectors,
# so a fixed absolute tolerance is safe.
EPS = 1e-11


def simplex_min(c, M, b, basis, max_iter=10000):
    """Primal simplex for min c@y subject to M y = b, y >= 0.

    `basis` lists one column index per row; M[:, basis] must be invertible
    and the corresponding basic solution nonnegative. Bland's rule is used
    throughout, so the iteration always terminates.

    Returns (status, y, value) with status in {"optimal", "unbounded",
    "iteration_limit"}.
    """
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = M.shape
    basis = list(basis)

    B = M[:, basis]
    T = np.linalg.solve(B, np.column_stack([M, b]))
    # reduced costs
    obj = c - c[basis] @ T[:, :n]

    for _ in range(max_iter):
        # Bland: entering = lowest index with negative reduced cost
        entering = -1
        for j in range(n):
            if obj[j] < -EPS:
                entering = j
                break
        if entering < 0:
            y = np.zeros(n)
            y[basis] = T[:, n]
            return "optimal", y, float(c @ y)

        col = T[:, entering]
        rows = np.where(col > EPS)[0]
        if rows.size == 0:
            return "unbounded", None, -np.inf

        ratios = T[rows, n] / col[rows]
        best = ratios.min()
        # Bland tie-break: smallest basic variable index among min ratios
        tied = rows[ratios <= best + EPS * (1.0 + abs(best))]
        leaving = min(tied, key=lambda i: basis[i])

        piv = T[leaving, entering]
        T[leaving] /= piv
        for i in range(m):
            if i != leaving and abs(T[i, entering]) > 0.0:
                T[i] -= T[i, entering] * T[leaving]
        obj = obj - obj[entering] * T[leaving, :n]
        basis[leaving] = entering

    return "iteration_limit", None, np.nan


def l1_fit(A, b, max_iter=10000):
    """Minimize sum|b - A x| over x >= 0; returns (residual, x).

    The system A x = b, x >= 0 is feasible exactly when the optimal
    residual is zero, which is how the cone and hypothesis checks use it.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    # columns: x, positive residual, negative residual
    M = np.hstack([A, np.eye(m), -np.eye(m)])
    c = np.concatenate([np.zeros(n), np.ones(2 * m)])
    basis = [n + i if b[i] >= 0 else n + m + i for i in range(m)]
    status, y, value = simplex_min(c, M, b, basis, max_iter=max_iter)
    if status != "optimal":
        raise RuntimeError(f"l1_fit did not terminate: {status}")
    return value, y[:n]


def nonneg_solution(A, b, tol=1e-9):
    """Solve A x = b with x >= 0 if possible; returns x or None."""
    residual, x = l1_fit(A, b)
    scale = 1.0 + float(np.abs(b).max(initial=0.0))
    if residual <= tol * scale:
        return x
    return None
