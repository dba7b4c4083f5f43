import numpy as np

from conewalks._simplex import EPS, scale_rows, simplex_min


def test_scale_rows_is_exact_and_keeps_unit_rows():
    A = np.array([[3.0, -1.0], [1.0, 0.5], [0.0, 0.0], [-1e-12, 2e-13], [1e300, -7.0]])
    B = scale_rows(A)
    top = np.abs(B).max(axis=1)
    assert np.all((top >= 1.0) & (top < 2.0) | (top == 0.0))
    assert np.array_equal(B[1], A[1]) and np.array_equal(B[2], A[2])
    # a power of two per row: the ratios within a row keep their bits
    for a, b in zip(A, B):
        ratios = set((b[a != 0.0] / a[a != 0.0]).tolist())
        assert len(ratios) <= 1 and all(np.frexp(r)[0] == 0.5 for r in ratios)
    assert np.array_equal(scale_rows(2.0 ** -40 * A), B)
    assert scale_rows(np.zeros((0, 3))).shape == (0, 3)


def test_simplex_min_known_lp():
    # min -x1 - 2 x2 s.t. x1 + x2 + s1 = 4, x1 + 3 x2 + s2 = 6; optimum at (3, 1)
    M = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
    b = np.array([4.0, 6.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    status, y, value = simplex_min(c, M, b, basis=[2, 3])
    assert status == "optimal"
    assert np.allclose(y[:2], [3.0, 1.0], atol=1e-10)
    assert abs(value - (-5.0)) <= 1e-10


def test_simplex_min_unbounded():
    # min -x1 with only x1 - x2 = 0: pushing both up is unbounded
    M = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    status, _, _ = simplex_min(c, M, b, basis=[0])
    assert status == "unbounded"


def test_degenerate_cycling_terminates():
    # Beale's classic cycling example; Bland's rule must terminate at -1/20
    M = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    status, y, value = simplex_min(c, M, b, basis=[4, 5, 6])
    assert status == "optimal"
    assert abs(value - (-0.05)) <= 1e-10


def _row_loop_simplex_min(c, M, b, basis, max_iter=10000):
    """Frozen copy of `simplex_min` as it pivoted before the rank-1 update:
    one row at a time, the rows whose entering entry is nonzero."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = M.shape
    basis = list(basis)
    T = np.linalg.solve(M[:, basis], np.column_stack([M, b]))
    obj = c - c[basis] @ T[:, :n]
    for _ in range(max_iter):
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


def _bits(result):
    status, y, value = result
    return status, None if y is None else y.tobytes(), np.float64(value).tobytes()


def _random_lp(rng):
    """min c y s.t. [A I] y = b, y >= 0, from the slack basis: A sparse (so
    many entering entries are zero), lattice or real, b >= 0 with zeros
    (degenerate pivots)."""
    m, k = rng.integers(1, 7), rng.integers(1, 9)
    if rng.random() < 0.5:
        A = rng.integers(-3, 4, size=(m, k)).astype(float)
        b = rng.integers(0, 4, size=m).astype(float)
        c = rng.integers(-3, 4, size=m + k).astype(float)
    else:
        A = rng.normal(size=(m, k)) * (rng.random((m, k)) < 0.6)
        b = rng.random(m) * (rng.random(m) < 0.7)
        c = rng.normal(size=m + k)
    M = np.hstack([A, np.eye(m)])
    return c, M, b, list(range(k, k + m))


def test_rank_one_pivot_matches_the_row_loop():
    rng = np.random.default_rng(20)
    statuses = set()
    for _ in range(400):
        c, M, b, basis = _random_lp(rng)
        want = _bits(_row_loop_simplex_min(c, M, b, basis))
        assert _bits(simplex_min(c, M, b, basis)) == want
        statuses.add(want[0])
    assert statuses == {"optimal", "unbounded"}


def test_rank_one_pivot_matches_the_row_loop_on_beale():
    M = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
    want = _bits(_row_loop_simplex_min(c, M, b, [4, 5, 6]))
    assert want[0] == "optimal"
    assert _bits(simplex_min(c, M, b, [4, 5, 6])) == want
