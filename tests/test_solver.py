import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import conewalks as cw
from conewalks import laplace, solver, steps as steps_mod

import reference_minimizers as ref

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]


def plastic_root():
    """Real root of s^3 - s - 1 = 0 by bisection (independent of the solver)."""
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** 3 - mid - 1.0 < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMinimizeOnDual:
    def test_drift_in_cone_minimum_at_apex(self):
        cert = cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(NSEW)), cw.orthant(2))
        assert np.allclose(cert.x_star, [0.0, 0.0])
        assert abs(cert.rho - 1.0) <= 1e-14
        assert cert.active_set == (0, 1)

    def test_1d_closed_form(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(1))
        assert abs(cert.x_star[0] - 0.5 * np.log(3.0)) <= 1e-7
        assert abs(cert.rho - np.sqrt(3) / 2) <= 1e-12

    def test_five_step_plastic_model(self):
        s = plastic_root()
        expected_rho = (2 * s + 2 / s + 1 / s ** 2) / 5.0
        cert = cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(NSEW_SW)), cw.orthant(2))
        assert abs(cert.x_star[0] - cert.x_star[1]) <= 1e-8  # symmetry diagonal
        assert abs(np.exp(cert.x_star[0]) - s) <= 1e-7
        assert abs(cert.rho - expected_rho) <= 1e-12

    def test_gaussian_drift_matches_projection_formula(self):
        cert = cw.minimize_on_dual(cw.GaussianLaplace([-1.0, -1.0]), cw.orthant(2))
        assert abs(cert.rho - np.exp(-1.0)) <= 1e-9

    def test_improper_model_raises_with_witness(self):
        with pytest.raises(cw.ImproperModelError) as err:
            cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL)), cw.orthant(2))
        assert np.allclose(err.value.witness, [0.5, 0.5], atol=1e-9)

    def test_h1_violation_rejected(self):
        flat = cw.FiniteLaplace(cw.from_step_set([(1, 1), (-1, -1)]))
        with pytest.raises(ValueError):
            cw.minimize_on_dual(flat, cw.orthant(2))

    def test_halfspace_cone_reduces_to_scalar_problem(self):
        # K = upper half-plane, dual = vertical ray; closed form from
        # (1/6) e^t + (1/2) e^{-t} + 1/3 minimized at t = ln(3)/2
        m = cw.probability_measure(NSEW, [1 / 6, 3 / 6, 1 / 6, 1 / 6])
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.halfspace([0.0, 1.0]))
        expected = np.sqrt(3) / 3 + 1 / 3
        assert abs(cert.rho - expected) <= 1e-12
        assert abs(cert.x_star[1] - 0.5 * np.log(3.0)) <= 1e-7
        assert abs(cert.x_star[0]) == 0.0

    def test_ray_budget_exhausted_raises(self):
        # drift (0, -1/3) leaves the upper half-plane, so the ray minimum lies
        # past t = 0 and one Newton step from mid-bracket does not reach it
        m = cw.probability_measure(NSEW, [1 / 6, 3 / 6, 1 / 6, 1 / 6])
        with pytest.raises(cw.NonConvergenceError):
            cw.minimize_on_dual(cw.FiniteLaplace(m), cw.halfspace([0.0, 1.0]), max_iter=1)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf, -np.inf])
    def test_tol_not_a_finite_positive_number_raises(self, tol):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        with pytest.raises(ValueError, match="tol must be a finite number > 0"):
            cw.minimize_on_dual(model, cw.inequalities([[2, -1], [-1, 2]]), tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -5])
    def test_max_iter_below_one_raises(self, max_iter):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            cw.minimize_on_dual(model, cw.orthant(2), max_iter=max_iter)

    def test_inequality_cone_agrees_with_orthant(self):
        # the orthant written as an inequality cone goes down the multi-ray
        # projected-gradient path and must land on the same minimum
        ineq = cw.inequalities([[1.0, 0.0], [0.0, 1.0]])
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        cert_orth = cw.minimize_on_dual(model, cw.orthant(2))
        cert_ineq = cw.minimize_on_dual(model, ineq, tol=1e-10)
        assert abs(cert_ineq.rho - cert_orth.rho) <= 1e-9
        assert np.allclose(cert_ineq.x_star, cert_orth.x_star, atol=1e-5)

    def test_generated_walk_cone_unsupported(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        with pytest.raises(cw.UnsupportedConeError):
            cw.minimize_on_dual(model, cw.generated([[1.0, 0.0], [1.0, 1.0]]))

    def test_certificate_internal_consistency(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        cert = cw.minimize_on_dual(model, cw.orthant(2))
        assert abs(cert.rho - cw.value(model, cert.x_star)) <= 1e-14 * cert.rho
        assert np.allclose(cert.grad, cw.gradient(model, cert.x_star))
        assert cw.contains(cw.dual(cw.orthant(2)), cert.x_star, tol=1e-10)


class TestKKTInvariants:
    def _check(self, steps, cone):
        m = cw.from_step_set(steps)
        model = cw.FiniteLaplace(m)
        cert = cw.minimize_on_dual(model, cone)
        scale = 1e-8 * (1.0 + np.linalg.norm(cert.grad) * np.linalg.norm(cert.x_star))
        assert cert.kkt_membership_residual <= 1e-8
        assert abs(cert.kkt_orthogonality) <= scale
        # tilted drift lands in the cone, orthogonal to the minimizer
        drift = cw.mean(cw.tilt(m, cert.x_star))
        assert np.allclose(drift, cert.grad / cert.rho, atol=1e-12)
        assert cw.contains(cone, drift, tol=1e-8)
        assert abs(drift @ cert.x_star) <= 1e-8 * (1.0 + np.linalg.norm(drift) * np.linalg.norm(cert.x_star))

    def test_corpus_2d(self, proper_2d_corpus):
        for steps in proper_2d_corpus:
            self._check(steps, cw.orthant(2))

    def test_corpus_3d(self, proper_3d_corpus):
        for steps in proper_3d_corpus:
            self._check(steps, cw.orthant(3))


class TestSolverRobustness:
    def test_solver_independence_of_start(self, proper_2d_corpus):
        rng = np.random.default_rng(21)
        for steps in proper_2d_corpus[:5]:
            model = cw.FiniteLaplace(cw.from_step_set(steps))
            base = cw.minimize_on_dual(model, cw.orthant(2))
            for _ in range(10):
                x0 = np.abs(rng.normal(size=2)) * 2.0
                x, _, _ = solver._minimize_orthant(model, solver.DEFAULT_TOL,
                                                   solver.DEFAULT_MAX_ITER, x0)
                assert abs(cw.value(model, x) - base.rho) <= 1e-9

    def test_upper_bound_dominance(self, proper_2d_corpus):
        rng = np.random.default_rng(22)
        for steps in proper_2d_corpus[:5]:
            model = cw.FiniteLaplace(cw.from_step_set(steps))
            cert = cw.minimize_on_dual(model, cw.orthant(2))
            for _ in range(100):
                z = np.abs(rng.normal(size=2))
                assert cert.rho <= cw.upper_bound_at(model, cw.orthant(2), z) + 1e-12


class TestGrowthConstant:
    def test_nsew_is_four(self):
        res = cw.growth_constant(NSEW)
        assert abs(res.k_s - 4.0) <= 1e-12

    def test_pm1_is_two(self):
        res = cw.growth_constant([(1,), (-1,)])
        assert abs(res.k_s - 2.0) <= 1e-12

    def test_five_step_value(self):
        s = plastic_root()
        expected = 2 * s + 2 / s + 1 / s ** 2
        res = cw.growth_constant(NSEW_SW)
        assert abs(res.k_s - expected) <= 1e-11

    def test_improper_raises(self):
        with pytest.raises(cw.ImproperModelError):
            cw.growth_constant(HALFSPACE_MODEL)


class TestHyperplaneScan:
    def test_nsew_flat(self):
        res = cw.hyperplane_scan(NSEW, 51)
        assert abs(res.k_min - 4.0) <= 1e-12

    def test_five_step_matches_growth_constant(self):
        growth = cw.growth_constant(NSEW_SW)
        scan = cw.hyperplane_scan(NSEW_SW, 721)
        assert abs(scan.k_min - growth.k_s) <= 1e-3
        assert scan.k_min >= growth.k_s - 1e-9  # scanning a subset cannot undershoot
        # symmetric model: the binding hyperplane is the diagonal
        assert abs(scan.direction[0] - scan.direction[1]) <= 0.01

    def test_refining_grid_tightens(self):
        growth = cw.growth_constant(NSEW_SW)
        gaps = []
        for grid in (11, 101, 1001):
            gaps.append(cw.hyperplane_scan(NSEW_SW, grid).k_min - growth.k_s)
        assert gaps[0] >= gaps[1] >= gaps[2] >= 0.0
        assert gaps[2] <= 1e-5

    def test_1d_degenerate_single_direction(self):
        growth = cw.growth_constant([(1,), (-1,)])
        scan = cw.hyperplane_scan([(1,), (-1,)], 5)
        assert abs(scan.k_min - growth.k_s) <= 1e-12

    def test_3d_scan_close_to_growth(self):
        steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1)]
        growth = cw.growth_constant(steps)
        scan = cw.hyperplane_scan(steps, 3600)
        assert scan.k_min >= growth.k_s - 1e-9
        assert scan.k_min - growth.k_s <= 5e-3

    def test_3d_grid_has_no_repeated_direction(self):
        steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1)]
        directions = solver._scan_directions(3, 2001)
        assert len(directions) == len(np.unique(directions, axis=0)) == 1981
        scan = cw.hyperplane_scan(steps, 2001)
        assert scan.grid_size == 1981
        # the minimum and direction of the 45 x 45 grid with its 44 repeats
        # of (0, 0, 1), bit for bit
        assert scan.k_min.hex() == "0x1.aa43e7589618ep+2"
        assert scan.direction.tobytes().hex() == (
            "a76917692d96e23fa66917692d96e23f9ebb39421540e23f")

    def test_steps_past_the_overflow_guard(self):
        # |<s, u>| = 1000 cos(theta) at t = 1: the ray bracket must start
        # inside the guard, where the minimum (t near 0.007) lies
        steps = [(-1000, 0), (1, 0), (0, 1), (0, -1)]
        scan = cw.hyperplane_scan(steps, 51)
        assert abs(scan.k_min - cw.growth_constant(steps).k_s) <= 1e-3

    def test_ray_bracket_start_kept_inside_the_guard(self):
        # the exponent -1000 t passes the guard at t = 1
        model = cw.FiniteLaplace(cw.from_step_set([(-1000, 0), (1, 0), (0, 1), (0, -1)]))
        t, converged, _ = solver._ray_minima(model, np.array([[1.0, 0.0]]), 1e-12, 100)
        assert converged[0] and 0.0 < t[0] < 0.01
        assert abs(float(cw.gradient(model, [t[0], 0.0])[0])) <= 1e-12

    def test_batch_decides_lanes_past_the_guard(self):
        # exponents pass the guard at t = 1 on 366 of the 721 directions;
        # each lane's bracket starts inside it, so the batch decides them all
        model = cw.FiniteLaplace(cw.from_step_set([(1000, 2), (-500, 2), (-1000, 1)]))
        _, converged, _ = solver._ray_minima(model, solver._scan_directions(2, 721), 1e-12,
                                             solver.DEFAULT_MAX_ITER)
        assert converged.all()

    def test_gaussian_ray_bracket_kept_inside_the_guard(self):
        # 0.5 t^2 |u|^2 = 5000 at t = 1, the minimum at t = 0.01
        model = cw.GaussianLaplace([-1.0, 0.0])
        t, converged, _ = solver._ray_minima(model, np.array([[100.0, 0.0]]), 1e-12,
                                             solver.DEFAULT_MAX_ITER)
        assert converged[0] and abs(t[0] - 0.01) <= 1e-15
        cert = cw.minimize_on_dual(model, cw.halfspace([100.0, 0.0]))
        assert abs(cert.rho - cw.brownian_rate([-1.0, 0.0], cw.halfspace([100.0, 0.0]))) <= 1e-15

    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_scaled_steps_overflow_without_warnings(self, scale):
        # phi' = sum w e^{t <u, s>} <u, s> passes the largest double inside
        # the guard; the lane is left unconverged and nothing warns
        steps = [(scale * a, scale * b) for a, b in NSEW_SW]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cw.NonConvergenceError, match="no convergence on the ray"):
                cw.hyperplane_scan(steps, 51)

    def test_grid_past_the_budget_refused_before_allocating(self):
        # 10^15 directions would need 8 PB per array
        with pytest.raises(ValueError, match="scan budget"):
            cw.hyperplane_scan(NSEW_SW, 10 ** 15)

    @pytest.mark.parametrize("grid", [0, -3, 2.0, True, "51", None])
    @pytest.mark.parametrize("steps", [NSEW_SW, [(1,), (-1,)]])
    def test_grid_not_a_positive_integer_raises(self, steps, grid):
        with pytest.raises(ValueError, match="angular grid"):
            cw.hyperplane_scan(steps, grid)

    def test_numpy_integer_grid_accepted(self):
        assert cw.hyperplane_scan(NSEW_SW, np.int64(51)).k_min == cw.hyperplane_scan(NSEW_SW, 51).k_min


def scalar_scan(steps, angular_grid):
    """The per-direction scan: one one-row _ray_minima call per grid
    direction, ranked by its value in lane arithmetic, the first strict
    minimum winning. The batched scan must reproduce it bit for bit."""
    m = cw.from_step_set(steps)
    if not cw.check_h1(m):
        raise ValueError("step set violates H1: support lies in a hyperplane")
    witness = steps_mod.halfspace_witness(m, cw.orthant(m.dim))
    if witness is not None:
        raise cw.ImproperModelError(witness)
    model = cw.FiniteLaplace(m)
    directions = solver._scan_directions(m.dim, angular_grid)
    best = None
    for u in directions:
        (t,), (converged,), _ = solver._ray_minima(model, u[None], 1e-12, solver.DEFAULT_MAX_ITER)
        if not converged:
            raise solver._unconverged_ray(u)
        rank = np.einsum("ij,j->i", np.exp(t * np.einsum("ij,kj->ik", u[None], m.steps)),
                         m.weights)[0]
        if best is None or rank < best[0]:
            best = (rank, u, m.support_size * laplace.value(model, t * u))
    return solver.ScanResult(k_min=best[2], direction=best[1], grid_size=len(directions))


def scan_outcome(scan, steps, grid):
    """Bits of the minimum and direction, grid size, or exception type and message."""
    try:
        res = scan(steps, grid)
    except Exception as exc:
        return type(exc), str(exc)
    return res.k_min.hex(), res.direction.tobytes(), res.grid_size


@st.composite
def scan_cases(draw):
    """A step set from {-1,0,1}^d (d = 1-3) and a scan grid."""
    d = draw(st.integers(1, 3))
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=8, unique=True))
    return steps, draw(st.sampled_from([1, 2, 51, 721, 2001]))


@st.composite
def weighted_ray_cases(draw):
    """A weighted step set from {-3..3}^d (d = 2, 3) and scan directions."""
    d = draw(st.integers(2, 3))
    vectors = [v for v in itertools.product(range(-3, 4), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=3, max_size=11, unique=True))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(steps), max_size=len(steps)))
    m = cw.probability_measure(steps, np.array(weights) / sum(weights))
    return cw.FiniteLaplace(m), solver._scan_directions(d, 101)


class TestRayLanes:
    @given(weighted_ray_cases())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_lane_bits_do_not_depend_on_the_batch(self, case):
        # a BLAS product U @ S^T would let a lane's bits depend on the batch
        model, U = case
        t, converged, iterations = solver._ray_minima(model, U, 1e-12, solver.DEFAULT_MAX_ITER)
        for i, u in enumerate(U):
            one = solver._ray_minima(model, u[None], 1e-12, solver.DEFAULT_MAX_ITER)
            assert (one[0][0], one[1][0], one[2][0]) == (t[i], converged[i], iterations[i])


class TestScanMatchesScalar:
    """The scan solves every direction in one batch; its result and exceptions
    must be those of the loop of one-direction solves, bit for bit."""

    @pytest.mark.parametrize("steps, grid", [
        ([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1), (1, -1), (-1, 1)], 2001),
        ([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], 2001),
        (NSEW, 2001),
        ([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1)], 721),
        (HALFSPACE_MODEL, 51),
        # near-ties: directions whose ray minima differ in the last bit at
        # the argmin, or tie there, so the rank order must be the loop's
        ([(-1, -1), (-1, 1), (0, -1), (1, 0)], 2),
        ([(-3, -1), (-3, 2), (-2, -1), (-2, 2), (0, 1), (0, 3), (1, 2), (1, 3), (2, -1),
          (2, 3), (3, -2), (3, 0)], 51),
        # exponents past the overflow guard at t = 1, on the first direction
        # and on a later one: every lane starts its bracket inside the guard
        ([(-1000, 0), (1, 0), (0, 1), (0, -1)], 51),
        ([(0, -1000), (1, 0), (-1, 0), (0, 1)], 51),
    ])
    def test_examples(self, steps, grid):
        assert scan_outcome(cw.hyperplane_scan, steps, grid) == scan_outcome(scalar_scan, steps, grid)

    def test_all_tied_directions_keep_the_first(self):
        # NSEW has zero drift: every direction has its ray minimum 4 at t = 0
        scan = cw.hyperplane_scan(NSEW, 2001)
        assert scan.k_min == 4.0 and scan.direction.tolist() == [1.0, 0.0]

    @given(scan_cases())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_random_step_sets(self, case):
        steps, grid = case
        assert scan_outcome(cw.hyperplane_scan, steps, grid) == scan_outcome(scalar_scan, steps, grid)


SMALL_2D = [v for v in itertools.product(range(-2, 3), repeat=2) if any(v)]


@st.composite
def halfspace_cases(draw):
    """A step set from {-2..2}^2, a unit normal of a half-space the set is
    proper for, and the steps in another order."""
    steps = draw(st.lists(st.sampled_from(SMALL_2D), min_size=3, max_size=8, unique=True))
    theta = draw(st.floats(0.0, 2.0 * np.pi, exclude_max=True))
    normal = np.array([np.cos(theta), np.sin(theta)])
    m = cw.from_step_set(steps)
    assume(cw.check_h1(m))
    assume(steps_mod.halfspace_witness(m, cw.dual(cw.halfspace(normal))) is None)
    return steps, normal, draw(st.permutations(steps))


def halfspace_rho(steps, normal):
    model = cw.FiniteLaplace(cw.from_step_set(steps))
    return cw.minimize_on_dual(model, cw.halfspace(normal)).rho


class TestHalfspaceInvariance:
    """A half-space's dual is one ray: scaling its normal gives the same cone,
    and reordering the steps the same law, so rho must not move."""

    @given(halfspace_cases(), st.floats(1e-3, 1e3))
    # exponents reach 1313 at t = 1 along this normal; the bracket starts
    # just inside the guard, which a lane must be allowed to reach
    @example(([(2, -2), (-1, -1), (2, 0), (0, -1)],
              np.array([-656.8374851700607, -92.27952885816245]),
              [(0, -1), (2, 0), (-1, -1), (2, -2)]), 1e-3)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_normal_scale(self, case, c):
        steps, normal, _ = case
        base = halfspace_rho(steps, normal)
        assert abs(halfspace_rho(steps, c * normal) - base) <= 1e-12 * base

    @given(halfspace_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_step_order(self, case):
        steps, normal, shuffled = case
        base = halfspace_rho(steps, normal)
        assert abs(halfspace_rho(shuffled, normal) - base) <= 1e-12 * base


class TestBrownianRate:
    def test_drift_inside_gives_one(self):
        assert cw.brownian_rate([1.0, 1.0], cw.orthant(2)) == 1.0

    def test_negative_diagonal(self):
        assert abs(cw.brownian_rate([-1.0, -1.0], cw.orthant(2)) - np.exp(-1.0)) <= 1e-15

    def test_halfspace_drop(self):
        assert abs(cw.brownian_rate([3.0, -4.0], cw.halfspace([0.0, 1.0])) - np.exp(-8.0)) <= 1e-18

    def test_matches_gaussian_solver(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.normal(size=2) * 1.5
            closed = cw.brownian_rate(a, cw.orthant(2))
            cert = cw.minimize_on_dual(cw.GaussianLaplace(a), cw.orthant(2))
            assert abs(closed - cert.rho) <= 1e-9


class TestUpperBound:
    def test_at_minimizer_and_origin(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        model = cw.FiniteLaplace(m)
        cert = cw.minimize_on_dual(model, cw.orthant(1))
        assert abs(cw.upper_bound_at(model, cw.orthant(1), cert.x_star) - cert.rho) <= 1e-15
        assert abs(cw.upper_bound_at(model, cw.orthant(1), [0.0]) - 1.0) <= 1e-15
        expected = np.e / 4 + 3 / (4 * np.e)
        assert abs(cw.upper_bound_at(model, cw.orthant(1), [1.0]) - expected) <= 1e-15

    def test_rejects_points_outside_dual(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        with pytest.raises(ValueError):
            cw.upper_bound_at(model, cw.orthant(2), [-1.0, 0.5])


INEQ_ROWS = {2: [(2, -1), (-1, 2)], 3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]}
# the inequality-cone corpus set that takes the projected-gradient loop 2475
# iterations, the most of the certification corpora
SLOWEST_RAYS = [(-1, 0, -1), (0, -1, -1), (0, 0, -1), (0, 0, 1), (1, 0, 0), (1, 1, 0)]


@st.composite
def minimizer_cases(draw):
    """A finite or Gaussian model in d = 1-3, the orthant or an inequality
    cone (d = 2, 3), an iteration budget and a start: the solver's own
    (None) or a nonnegative point of the dual cone's coordinates."""
    d = draw(st.integers(1, 3))
    cone = draw(st.sampled_from(["orthant", "ineq"])) if d > 1 else "orthant"
    kind = draw(st.sampled_from(["lattice", "real", "gaussian"]))
    coord = st.floats(-3.0, 3.0, allow_subnormal=False)
    if kind == "gaussian":
        model = ("gaussian", draw(st.lists(coord, min_size=d, max_size=d)))
    else:
        if kind == "lattice":
            vector = st.sampled_from([v for v in itertools.product(range(-2, 3), repeat=d) if any(v)])
        else:
            vector = st.tuples(*[coord] * d)
        steps = draw(st.lists(vector, min_size=2, max_size=8, unique=True))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(steps), max_size=len(steps)))
        model = ("finite", steps, weights)
    rays = d if cone == "orthant" else len(cw.dual(cw.inequalities(INEQ_ROWS[d])).rays)
    start = draw(st.none() | st.lists(st.floats(0.0, 400.0), min_size=rays, max_size=rays))
    return model, cone, draw(st.sampled_from([1, 3, 40, 400])), start


def build_case(model, cone):
    if model[0] == "gaussian":
        law = cw.GaussianLaplace(model[1])
    else:
        _, steps, weights = model
        law = cw.FiniteLaplace(cw.probability_measure(steps, np.array(weights) / sum(weights)))
    return law, (cw.orthant(law.dim) if cone == "orthant" else cw.inequalities(INEQ_ROWS[law.dim]))


def bits(value):
    """A comparable image of a result, exact to the bit for arrays and floats."""
    if isinstance(value, (tuple, list)):
        return tuple(bits(v) for v in value)
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value, dtype=float).tobytes()
    return value


def certificate(law, cone, tol, max_iter):
    cert = cw.minimize_on_dual(law, cone, tol, max_iter)
    return cert.x_star, cert.rho, cert.grad, cert.iterations, cert.active_set


def outcome(fn, *args):
    """The bits of fn's result, or its exception: type, message and, for a
    non-convergence, the length of its iterate trace."""
    try:
        return bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc), len(getattr(exc, "trace", ()))


class TestSharedTermsMatchReference:
    """The minimizers evaluate exp(S x) once per point and read the accepted
    trial's terms at the next iterate; every result must keep the bits of
    the frozen one-exponential-per-call loops in reference_minimizers.py."""

    @given(minimizer_cases())
    @example((("finite", SLOWEST_RAYS, [1.0] * 6), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", NSEW_SW, [1.0] * 5), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", [(-1000, 0), (1, 0), (0, 1), (0, -1)], [1.0] * 4), "orthant",
              solver.DEFAULT_MAX_ITER, [1.0, 1.0]))
    @example((("gaussian", [0.18393728253711747, -0.37069182622019753]), "ineq", 400, None))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_minimizers(self, case):
        model, cone, max_iter, start = case
        law, cone = build_case(model, cone)
        dual = cw.dual(cone)
        tol = solver.DEFAULT_TOL
        assert bits(solver._default_init(law, dual)) == bits(ref.default_init(law, dual))
        if start is None:
            start = ref.default_init(law, dual)
        start = np.array(start, dtype=float)
        # from a start where L is near the overflow guard, both loops square
        # a gradient past the largest double in its norm (inf, no descent)
        with np.errstate(over="ignore"):
            if dual.kind == cw.cones.ORTHANT:
                new = outcome(solver._minimize_orthant, law, tol, max_iter, start)
                old = outcome(ref.minimize_orthant, law, tol, max_iter, start)
            else:
                new = outcome(solver._minimize_rays, law, dual.rays, tol, max_iter, start)
                old = outcome(ref.minimize_rays, law, dual.rays, tol, max_iter, start)
            assert new == old
            new = outcome(certificate, law, cone, tol, max_iter)
            if new[0] in (cw.ImproperModelError, ValueError):
                return  # refused by the hypothesis checks the reference leaves out
            assert new == outcome(ref.minimize_on_dual, law, cone, tol, max_iter)

    @given(minimizer_cases(), st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           st.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_line_search_and_evaluations(self, case, direction, scale):
        model, _, _, start = case
        law, _ = build_case(model, "orthant")
        # coordinates up to 400 in size: some points pass the overflow guard
        x = np.resize(np.array(start or [0.5], dtype=float), law.dim) * scale
        for fn in ("value", "gradient", "hessian"):
            assert outcome(getattr(cw, fn), law, x) == outcome(getattr(ref, fn), law, x)
        x = np.maximum(x, 0.0)
        f = ref._value_or_none(law, x)
        if f is None:
            return
        g, d = ref.gradient(law, x), np.array(direction[:law.dim])
        project = lambda v: np.maximum(v, 0.0)
        new = solver._armijo_projected(law, x, f, g, d, project)
        if new is not None:
            new = new[0], new[1].value
        assert bits(new) == bits(ref.armijo_projected(law, x, f, g, d, project))
