import dataclasses
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

    def test_generated_walk_cone_matches_its_inequalities(self):
        # the normals of the cone generated by (1, 0) and (1, 1) are derived
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        cert = cw.minimize_on_dual(model, cw.generated([[1.0, 0.0], [1.0, 1.0]]))
        ineq = cw.minimize_on_dual(model, cw.inequalities([[0, 1], [1, -1]]))
        assert bits(dataclasses.astuple(cert)) == bits(dataclasses.astuple(ineq))
        # in 4-D the rays of K* are derived: the orthant's rate, by the ray solver
        model = cw.FiniteLaplace(cw.from_step_set(np.vstack([np.eye(4), -np.eye(4),
                                                             [(-1, -1, -1, -1)]])))
        cert = cw.minimize_on_dual(model, cw.generated(np.eye(4)))
        orth = cw.minimize_on_dual(model, cw.orthant(4))
        assert abs(cert.rho - orth.rho) <= 1e-12 * orth.rho and cert.rho < 1.0
        assert cert.kkt_membership_residual <= 1e-9 and abs(cert.kkt_orthogonality) <= 1e-9

    def test_tiny_cone_gives_the_unscaled_rate(self):
        # the H2' LP reads K*'s rays scaled into [1, 2), and the multi-ray
        # loop's tolerance follows max|s| max|r| = 2e-15: no invalid witness,
        # and not the rho 0.946437 of a loop stopped early
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        cert = cw.minimize_on_dual(model, cw.inequalities(1e-15 * A))
        want = cw.minimize_on_dual(model, cw.inequalities(A)).rho
        assert abs(cert.rho - want) <= 1e-12 * want

    def test_cone_without_interior_refused(self):
        # K* of the ray (1, 0) holds a line, where L has no minimum to certify
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        for cone in (cw.generated([[1, 0]]), cw.inequalities([[1, 0], [-1, 0]])):
            with pytest.raises(cw.ConeError, match="non-empty interior"):
                cw.minimize_on_dual(model, cone)

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
        # |<s, u>| = 1000 cos(theta) at t = 1 on the steps as given, whose
        # minimum lies near t = 0.007; the scan reads them scaled into [1, 2)
        steps = [(-1000, 0), (1, 0), (0, 1), (0, -1)]
        scan = cw.hyperplane_scan(steps, 51)
        assert abs(scan.k_min - cw.growth_constant(steps).k_s) <= 1e-3

    def test_scan_with_one_step_past_the_guard(self):
        # the exponent -1000 t of the steps as given passes the guard at t = 1
        steps = [(-1000, 0), (1, 0), (0, 1), (0, -1)]
        scan = cw.hyperplane_scan(steps, 721)
        assert abs(scan.k_min - cw.growth_constant(steps).k_s) <= 1e-3

    def test_scan_decides_steps_past_the_guard(self):
        # exponents of the steps as given pass the guard at t = 1 on 366 of
        # the 721 directions; the scan reads them scaled into [1, 2)
        steps = [(1000, 2), (-500, 2), (-1000, 1)]
        scan = cw.hyperplane_scan(steps, 721)
        assert abs(scan.k_min - cw.growth_constant(steps).k_s) <= 1e-3

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
        # on the steps as given, phi' = sum w e^{t <u, s>} <u, s> passes the
        # largest double inside the guard; those lanes are left unconverged
        # and nothing warns
        steps = [(scale * a, scale * b) for a, b in NSEW_SW]
        model = cw.FiniteLaplace(cw.from_step_set(steps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, converged, _ = solver._ray_minima(model, solver._scan_directions(2, 51), 1e-12,
                                                 solver.DEFAULT_MAX_ITER)
            assert not converged.all()
            # the scan reads the steps scaled into [1, 2)
            got, want = cw.hyperplane_scan(steps, 51), cw.hyperplane_scan(NSEW_SW, 51)
        assert got.k_min == want.k_min and np.array_equal(got.direction, want.direction)

    def test_grid_past_the_budget_refused_before_allocating(self):
        # 10^15 directions would need 8 PB per array
        with pytest.raises(ValueError, match="scan budget"):
            cw.hyperplane_scan(NSEW_SW, 10 ** 15)

    @pytest.mark.parametrize("grid", [0, -3, 2.0, True, "51", None])
    @pytest.mark.parametrize("steps", [NSEW_SW, [(1,), (-1,)]])
    def test_grid_not_a_positive_integer_raises(self, steps, grid):
        with pytest.raises(ValueError, match="angular grid"):
            cw.hyperplane_scan(steps, grid)

    def test_four_dimensions_refused_after_the_hypotheses(self):
        # a proper 4-D set passes H1 and H2'; only the grid is refused
        steps = [tuple(int(i == j) for j in range(4)) for i in range(4)] + [(-1, -1, -1, -1)]
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            cw.hyperplane_scan(steps, 51)

    def test_hypotheses_refused_alike_by_scan_and_minimizer(self):
        flat = [(1, 0), (-1, 0)]
        for call in (lambda: cw.hyperplane_scan(flat, 51),
                     lambda: cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(flat)),
                                                 cw.orthant(2))):
            with pytest.raises(ValueError, match="violates H1: support lies in a hyperplane"):
                call()
        with pytest.raises(cw.ImproperModelError) as scan:
            cw.hyperplane_scan(HALFSPACE_MODEL, 51)
        with pytest.raises(cw.ImproperModelError) as rate:
            cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL)), cw.orthant(2))
        assert scan.value.witness.tolist() == rate.value.witness.tolist() == [0.5, 0.5]

    def test_numpy_integer_grid_accepted(self):
        assert cw.hyperplane_scan(NSEW_SW, np.int64(51)).k_min == cw.hyperplane_scan(NSEW_SW, 51).k_min


def scalar_scan(steps, angular_grid):
    """The per-direction scan: one one-row _ray_minima call per grid
    direction, on the steps scaled into [1, 2) (`solver._unit_steps`),
    ranked by its value in lane arithmetic, the first strict minimum
    winning. The batched scan must reproduce it bit for bit."""
    m = cw.from_step_set(steps)
    if not cw.check_h1(m):
        raise ValueError("step set violates H1: support lies in a hyperplane")
    witness = steps_mod.halfspace_witness(m, cw.orthant(m.dim))
    if witness is not None:
        raise cw.ImproperModelError(witness)
    model, _ = solver._unit_steps(cw.FiniteLaplace(m))
    S = model.measure.steps
    directions = solver._scan_directions(m.dim, angular_grid)
    best = None
    for u in directions:
        (t,), (converged,), _ = solver._ray_minima(model, u[None], 1e-12, solver.DEFAULT_MAX_ITER)
        if not converged:
            raise solver._unconverged_ray(u)
        rank = np.einsum("ij,j->i", np.exp(t * np.einsum("ij,kj->ik", u[None], S)),
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
        # exponents of the steps as given past the overflow guard at t = 1,
        # on the first direction and on a later one
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
    # exponents reach 1313 at t = 1 along this normal as given; the solver
    # reads it scaled into [1, 2)
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


ROADMAP_CONES = {
    "orthant": cw.orthant(2),
    "halfspace": cw.halfspace([1.0, 1.0]),
    "ineq": cw.inequalities([[2, -1], [-1, 2]]),
    "rays": cw.generated([[1, 0], [1, 1]]),
}
INEQ_2D = np.array([[2.0, -1.0], [-1.0, 2.0]])


def nsew_sw_rate(cone, scale=1.0):
    return cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(scale * np.array(NSEW_SW))),
                               cone).rho


class TestScaledInputs:
    """Scaling the steps or the cone's vectors by c > 0 changes neither H2'
    nor rho. Both LPs read rows scaled into [1, 2), and the solver reads the
    steps scaled into [1, 2) by a power of two, so every step scale gives
    the unscaled rho."""

    @pytest.mark.parametrize("cone", sorted(ROADMAP_CONES))
    @pytest.mark.parametrize("c", [1e-13, 1e-9, 1e-6])
    def test_small_step_scales(self, cone, c):
        want = nsew_sw_rate(ROADMAP_CONES[cone])
        assert abs(nsew_sw_rate(ROADMAP_CONES[cone], c) - want) <= 1e-12 * want

    @pytest.mark.parametrize("cone", sorted(ROADMAP_CONES))
    @pytest.mark.parametrize("c", [1e9, 1e12, 1e13, 2.0 ** 40, 1e15])
    def test_large_step_scales(self, cone, c):
        want = nsew_sw_rate(ROADMAP_CONES[cone])
        assert abs(nsew_sw_rate(ROADMAP_CONES[cone], c) - want) <= 1e-12 * want

    @pytest.mark.parametrize("c", [1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6])
    def test_inequality_cone_scales(self, c):
        want = nsew_sw_rate(cw.inequalities(INEQ_2D))
        assert abs(nsew_sw_rate(cw.inequalities(c * INEQ_2D)) - want) <= 1e-12 * want

    @pytest.mark.parametrize("c", [1e-15, 1e-12, 1e-9, 1e-6, 1e6, 1e9, 1e12])
    def test_halfspace_normal_scales(self, c):
        want = nsew_sw_rate(cw.halfspace([1.0, 1.0]))
        assert abs(nsew_sw_rate(cw.halfspace([c, c])) - want) <= 1e-12 * want

    @pytest.mark.parametrize("c", [1e-13, 1e-9])
    def test_small_scan_scales(self, c):
        want = cw.hyperplane_scan(NSEW_SW, 721)
        got = cw.hyperplane_scan(c * np.array(NSEW_SW), 721)
        assert abs(got.k_min - want.k_min) <= 1e-12 * want.k_min
        assert np.array_equal(got.direction, want.direction)


@st.composite
def power_of_two_cases(draw):
    """A step set from {-2..2}^2 or {-1,0,1}^3, one of the orthant, a
    half-space, an inequality cone and a generated cone, and k in [-40, 40]."""
    d = draw(st.sampled_from([2, 3]))
    points = list(itertools.product(range(-2, 3) if d == 2 else range(-1, 2), repeat=d))
    steps = draw(st.lists(st.sampled_from(points), min_size=3, max_size=7, unique=True))
    cones = [cw.orthant(d), cw.halfspace(np.arange(1.0, d + 1)), cw.inequalities(INEQ_ROWS[d]),
             cw.generated(np.tril(np.ones((d, d))))]
    return np.array(steps, dtype=float), draw(st.sampled_from(cones)), draw(st.integers(-40, 40))


def result_or_raised(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:
        return None, type(exc)


class TestPowerOfTwoSteps:
    """Steps times 2^k reach the solver's loops as the same steps scaled into
    [1, 2): the same exception, or a certificate whose x*, grad and
    membership residual scale exactly and whose other fields keep their
    bits; the scan keeps its minimum and direction."""

    @given(power_of_two_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_certificate(self, case):
        steps, cone, k = case
        rate = lambda s: cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(s)), cone)
        want, want_raised = result_or_raised(rate, steps)
        got, got_raised = result_or_raised(rate, np.ldexp(steps, k))
        assert got_raised is want_raised
        if want is None:
            return
        assert bits((got.rho, got.iterations, got.active_set, got.kkt_orthogonality)) == bits(
            (want.rho, want.iterations, want.active_set, want.kkt_orthogonality))
        assert bits(np.ldexp(got.x_star, k)) == bits(want.x_star)
        assert bits(np.ldexp(got.grad, -k)) == bits(want.grad)
        assert bits(np.ldexp(got.kkt_membership_residual, -k)) == bits(
            want.kkt_membership_residual)

    @given(power_of_two_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_scan(self, case):
        steps, _, k = case
        want, want_raised = result_or_raised(cw.hyperplane_scan, steps, 31)
        got, got_raised = result_or_raised(cw.hyperplane_scan, np.ldexp(steps, k), 31)
        assert got_raised is want_raised
        if want is not None:
            assert bits((got.k_min, got.direction)) == bits((want.k_min, want.direction))


NORMALS = {d: [v for v in itertools.product(range(-2, 3), repeat=d) if any(v)] for d in (2, 3)}


class TestPowerOfTwoNormal:
    """A half-space is the same cone at every scale of its normal, and the
    solver and the projection read a single vector times the power of two
    that puts its largest |entry| in [1, 2): the normal times 2^k gives the
    certificate, the exception and the projections of the normal itself,
    bit for bit."""

    @given(st.sampled_from([2, 3]), st.integers(0, 49), st.booleans(), st.data(),
           st.integers(-60, 60))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_certificate_and_projection(self, proper_2d_corpus, proper_3d_corpus, d, i, gaussian,
                                        data, k):
        corpus = proper_2d_corpus if d == 2 else proper_3d_corpus
        steps = np.array(corpus[i % len(corpus)], dtype=float)
        m = cw.from_step_set(steps)
        law = cw.GaussianLaplace(m.weights @ m.steps) if gaussian else cw.FiniteLaplace(m)
        u = np.array(data.draw(st.sampled_from(NORMALS[d])), dtype=float)
        cones = cw.halfspace(u), cw.halfspace(np.ldexp(u, k))
        rate = lambda cone: certificate(law, cone, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER)
        assert outcome(rate, cones[1]) == outcome(rate, cones[0])
        for a in [*steps, -steps.sum(axis=0)]:
            for project in (cw.project, lambda cone, a: cw.project(cw.dual(cone), a)):
                assert bits(project(cones[1], a)) == bits(project(cones[0], a))

    def test_normal_past_the_range_of_doubles_still_refused(self):
        # the cones layer refuses to derive the rays of 1e-300 (1, 1)
        model = cw.FiniteLaplace(cw.from_step_set(NSEW_SW))
        with pytest.raises(cw.UnsupportedConeError, match="range of doubles"):
            cw.minimize_on_dual(model, cw.halfspace([1e-300, 1e-300]))


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
# the second and third slowest: 1125 iterations on INEQ_ROWS[2], 700 on INEQ_ROWS[3]
SLOW_RAYS_2D = [(-1, 0), (-1, 1), (1, 1)]
SLOW_RAYS_3D = [(-1, 0, 1), (-1, 1, -1), (0, 0, -1), (0, 1, 1), (1, -1, -1), (1, 0, 1), (1, 1, -1)]


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


def reference_certificate(law, cone, tol, max_iter):
    """The frozen minimize_on_dual on the steps the package's loops read,
    scaled into [1, 2) by 2^-e, with x* and grad mapped back to the law."""
    unit, e = solver._unit_steps(law)
    x_star, rho, grad, iterations, active = ref.minimize_on_dual(unit, cone, tol, max_iter)
    return np.ldexp(x_star, -e), rho, np.ldexp(grad, e), iterations, active


def outcome(fn, *args):
    """The bits of fn's result, or its exception: type, message and, for a
    non-convergence, the length of its iterate trace."""
    try:
        return bits(fn(*args))
    except Exception as exc:
        return type(exc), str(exc), len(getattr(exc, "trace", ()))


def effective_tol(dual, tol):
    """The tolerance of the package's loop: tol on the orthant, tol times
    min(1, max|r|) over the rays r of K* otherwise."""
    if dual.kind == cw.cones.ORTHANT:
        return tol
    return tol * min(1.0, float(np.abs(dual.rays).max()))


class TestSharedTermsMatchReference:
    """The minimizers evaluate exp(S x) once per point and read the accepted
    trial's terms at the next iterate; every result must keep the bits of
    the frozen one-exponential-per-call loops in reference_minimizers.py,
    run on the steps the package's loops read (`solver._unit_steps`) at
    their tolerance (`effective_tol`)."""

    @given(minimizer_cases())
    @example((("finite", SLOWEST_RAYS, [1.0] * 6), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", SLOW_RAYS_2D, [1.0] * 3), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", SLOW_RAYS_3D, [1.0] * 7), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", NSEW_SW, [1.0] * 5), "ineq", solver.DEFAULT_MAX_ITER, None))
    @example((("finite", [(-1000, 0), (1, 0), (0, 1), (0, -1)], [1.0] * 4), "orthant",
              solver.DEFAULT_MAX_ITER, [1.0, 1.0]))
    @example((("gaussian", [0.18393728253711747, -0.37069182622019753]), "ineq", 400, None))
    # steps below scale 1, which the loops read scaled into [1, 2)
    @example((("finite", 0.25 * np.array(NSEW_SW), [1.0] * 5), "ineq", solver.DEFAULT_MAX_ITER,
              None))
    @example((("finite", 1e-3 * np.array(NSEW_SW), [1.0] * 5), "orthant",
              solver.DEFAULT_MAX_ITER, None))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_minimizers(self, case):
        model, cone, max_iter, start = case
        law, cone = build_case(model, cone)
        dual = cw.dual(cone)
        tol = solver.DEFAULT_TOL
        ref_tol = effective_tol(dual, tol)
        unit, _ = solver._unit_steps(law)
        assert bits(solver._default_init(unit, dual)) == bits(ref.default_init(unit, dual))
        if start is None:
            start = ref.default_init(unit, dual)
        start = np.array(start, dtype=float)
        # from a start where L is near the overflow guard, the frozen loops
        # square a gradient past the largest double in its norm (inf, no
        # descent); the package's loops form the norm only once it is small
        if dual.kind == cw.cones.ORTHANT:
            new = outcome(solver._minimize_orthant, unit, tol, max_iter, start)
            with np.errstate(over="ignore"):
                old = outcome(ref.minimize_orthant, unit, ref_tol, max_iter, start)
        else:
            new = outcome(solver._minimize_rays, unit, dual.rays, tol, max_iter, start)
            with np.errstate(over="ignore"):
                old = outcome(ref.minimize_rays, unit, dual.rays, ref_tol, max_iter, start)
        assert new == old
        new = outcome(certificate, law, cone, tol, max_iter)
        if new[0] in (cw.ImproperModelError, ValueError):
            return  # refused by the hypothesis checks the reference leaves out
        with np.errstate(over="ignore"):
            old = outcome(reference_certificate, law, cone, ref_tol, max_iter)
        assert new == old

    def test_huge_start_converges_without_overflow(self):
        # L(x0) near 1e193: the square of the projected gradient in its norm
        # passes the largest double, which the convergence test never forms
        steps, weights = [(1,), (-2,), (2,)], np.array([0.614, 0.01, 0.487])
        law = cw.FiniteLaplace(cw.probability_measure(steps, weights / weights.sum()))
        new = outcome(solver._minimize_orthant, law, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER,
                      np.array([222.3]))
        assert new[0] is not RuntimeWarning
        with np.errstate(over="ignore"):
            old = outcome(ref.minimize_orthant, law, solver.DEFAULT_TOL, solver.DEFAULT_MAX_ITER,
                          np.array([222.3]))
        assert new == old

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
        new = solver._armijo_projected(law, x, f, g, d)
        if new is not None:
            new = new[0], new[1].value
        assert bits(new) == bits(ref.armijo_projected(law, x, f, g, d, project))


@st.composite
def symmetric_matrices(draw, finite=True):
    """A symmetric float64 matrix of order 1-4, from its lower triangle; with
    finite=False one symmetric pair of entries is NaN or an infinity."""
    n = draw(st.integers(1, 4))
    entry = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 1.0])
    M = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1):
            M[i, j] = M[j, i] = draw(entry)
    if not finite:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        M[i, j] = M[j, i] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return M


class TestTopEigenvalue:
    """`solver._top_eigenvalue` is np.linalg.eigvalsh(M)[-1] to the bit, and
    raises where it raises."""

    @given(symmetric_matrices())
    @example(np.zeros((1, 1)))
    @example(np.zeros((4, 4)))
    @example(np.diag([-2.0, 1.0, -0.5]))  # indefinite
    @example(np.array([[1e308, 1e308], [1e308, 1e308]]))  # entries sum past the largest double
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_eigvalsh(self, M):
        assert outcome(solver._top_eigenvalue, M) == outcome(lambda: np.linalg.eigvalsh(M)[-1])

    @given(symmetric_matrices(finite=False))
    @example(np.full((3, 3), np.nan))  # eigvalsh raises LinAlgError
    @example(np.full((2, 2), np.nan))  # eigvalsh returns NaN
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_nonfinite_entries_as_eigvalsh(self, M):
        assert outcome(solver._top_eigenvalue, M) == outcome(lambda: np.linalg.eigvalsh(M)[-1])


@st.composite
def product_operands(draw):
    """Operands shaped as the loops' products: k steps S in R^d, m rays R, a
    point x, weights w and coefficients t >= 0, with S and R C- or
    F-ordered. Lattice entries hold zeros, whose products carry a sign; near
    the guard, x is scaled so that max|S x| is about 699 to 700."""
    k, d, m = draw(st.integers(1, 64)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        S, R = (rng.integers(-2, 3, size=(n, d)).astype(float) for n in (k, m))
    else:
        S, R = rng.normal(size=(k, d)), rng.normal(size=(m, d))
    S, R = (np.asfortranarray(A) if draw(st.booleans()) else A for A in (S, R))
    x = rng.normal(size=d)
    top = float(np.abs(S @ x).max())
    if draw(st.booleans()) and top > 0.0:
        x *= draw(st.floats(699.0, 700.0)) / top
    w = rng.random(k) + 0.01
    return S, R, x, w / w.sum(), np.maximum(rng.normal(size=m), 0.0)


class TestDotMatchesMatmul:
    """The loops write their small products with ndarray.dot, which calls the
    BLAS routine (ddot, dgemv or dgemm) that @ calls for float64 operands:
    each form gives the bytes of @. A contraction of length 1 is a lone
    product, which .dot returns as it is and @ adds to +0.0, so there the
    bytes are those of the .dot result plus 0.0."""

    @given(product_operands())
    @example((np.zeros((1, 1)), -np.ones((2, 1)), -np.ones(1), np.ones(1), np.zeros(2)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_loop_products(self, operands):
        S, R, x, w, t = operands
        (k, d), m = S.shape, R.shape[0]
        # products past the largest double overflow alike on both sides
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(S @ x)
            we = w * e
            wS = (we[:, None] * S).T
            grad = we @ S
            H = wS @ S
            g = R @ grad
            tn = np.maximum(t - g, 0.0)
            forms = [  # (contracted length, .dot, @)
                (d, S.dot(x), S @ x),                 # exponents S x
                (k, w.dot(e), w @ e),                 # L = w . e
                (k, we.dot(S), we @ S),               # grad L = (w e) S
                (k, wS.dot(S), wS @ S),               # Hessian ((w e) S)^T S
                (m, R.T.dot(t), R.T @ t),             # x = R^T t
                (d, R.dot(grad), R @ grad),           # R grad L
                (d, R.dot(H).dot(R.T), R @ H @ R.T),  # R H R^T
                (m, g.dot(tn - t), g @ (tn - t)),     # ray gain g . (t' - t)
                (d, x.dot(S[0]), x @ S[0]),           # orthant gain, Gaussian <x, a>
                (d, x.dot(x), x @ x),                 # Gaussian |x|^2
            ]
        for length, dot, matmul in forms:
            dot = np.asarray(dot)
            if length == 1:
                dot = dot + 0.0
            assert dot.tobytes() == np.asarray(matmul).tobytes()
