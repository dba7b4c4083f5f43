import numpy as np

from conewalks._simplex import scale_rows, simplex_min


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
