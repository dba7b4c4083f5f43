import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import conewalks as cw
from conewalks import cones

import reference_cones as ref_cones


def _same(a, b):
    """Equal descriptions: both absent, or the same array bit for bit."""
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_cone_point(rng, cone):
    """A point of the cone, for projection-optimality sampling."""
    if cone.kind == "orthant":
        return np.abs(rng.normal(size=cone.dim))
    if cone.kind == "inequalities" and len(cone.normals) == 1:
        return cw.project(cone, rng.normal(size=cone.dim))
    if cone.kind == "generated":
        t = np.abs(rng.normal(size=cone.vectors.shape[0]))
        return t @ cone.vectors
    raise AssertionError


class TestContains:
    def test_apex_belongs_with_zero_tolerance(self):
        assert cw.contains(cw.orthant(2), [0.0, 0.0], tol=0.0)

    def test_halfspace_negative_side(self):
        assert not cw.contains(cw.halfspace([1.0, 1.0]), [1.0, -2.0])

    def test_generated_membership_solves_ray_system(self):
        cone = cw.generated([[1.0, 0.0], [1.0, 1.0]])
        # oracle: the 2x2 system gives coefficients (1, 1) >= 0
        coeffs = np.linalg.solve(np.array([[1.0, 1.0], [0.0, 1.0]]), [2.0, 1.0])
        assert np.all(coeffs >= 0)
        assert cw.contains(cone, [2.0, 1.0])
        assert not cw.contains(cone, [0.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(cw.ConeError):
            cw.contains(cw.orthant(2), [1.0, 2.0, 3.0])


class TestFiniteData:
    @pytest.mark.parametrize("build", [
        lambda: cw.halfspace([np.nan, 1.0]),
        lambda: cw.halfspace([np.inf, 1.0]),
        lambda: cw.inequalities([[np.nan, 1.0], [0.0, 1.0]]),
        lambda: cw.generated([[1.0, 0.0], [np.nan, 1.0]]),
        lambda: cw.generated([[1.0, 0.0], [-np.inf, 1.0]]),
    ], ids=["halfspace-nan", "halfspace-inf", "ineq-nan", "rays-nan", "rays-inf"])
    def test_non_finite_vectors_refused(self, build):
        with pytest.raises(cw.ConeError, match="finite"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: cw.generated(np.zeros((0, 2))), "at least one ray"),
        (lambda: cw.inequalities(np.zeros((0, 2))), "at least one inequality normal"),
        (lambda: cw.generated([[1.0, 0.0], [0.0, 0.0]]), "every ray must be nonzero"),
        (lambda: cw.inequalities([[0.0, -0.0]]), "every inequality normal must be nonzero"),
        (lambda: cw.halfspace([0.0, 0.0]), "every inequality normal must be nonzero"),
        (lambda: cw.halfspace([]), "every inequality normal must be nonzero"),
        (lambda: cw.halfspace([[1.0, 0.0]]), "must be a vector"),
        (lambda: cw.halfspace(1.0), "must be a vector"),
        # a list of matrices is no list of rays, whatever the shape of each
        (lambda: cw.generated([[[1, 0], [0, 1]]]), "every ray must be a vector"),
        (lambda: cw.generated([[[1, 0]], [[0, 1]]]), "every ray must be a vector"),
    ], ids=["no-rays", "no-normals", "zero-ray", "zero-normal", "zero-halfspace",
            "empty-halfspace", "matrix-halfspace", "scalar-halfspace", "one-matrix-of-rays",
            "two-matrices-of-rays"])
    def test_empty_or_zero_vectors_refused(self, build, message):
        # one helper checks the vectors of every constructor; a half-space is
        # the inequality cone of its one normal
        with pytest.raises(cw.ConeError, match=message):
            build()

    def test_interior_vector_of_a_flat_cone_refused(self):
        with pytest.raises(cw.ConeError, match="empty interior"):
            cw.interior_vector(cw.generated([[1.0, 0.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2.5, 2.0, 0, -1, True, "2", None])
    def test_orthant_dimension_must_be_a_positive_integer(self, dim):
        with pytest.raises(cw.ConeError, match="integer >= 1"):
            cw.orthant(dim)

    def test_numpy_integer_dimension_accepted(self):
        assert cw.orthant(np.int64(3)).dim == 3

    @pytest.mark.parametrize("x", [[np.inf, 1.0], [np.nan, 1.0], [1.0, -np.inf]])
    def test_non_finite_point_refused(self, x):
        for cone in (cw.orthant(2), cw.halfspace([1.0, 1.0]), cw.generated([[1.0, 0.0], [1.0, 1.0]])):
            with pytest.raises(cw.ConeError, match="finite"):
                cw.contains(cone, x)


class TestConeOfAnotherDimension:
    """A cone whose dimension differs from the steps' is refused by name at
    every entry point that pairs the two, where each failed inside numpy's
    matmul ("mismatch in its core dimension")."""

    STEPS = [(1, 1), (-1, 0), (0, -1)]
    CONES = [cw.halfspace([1.0, 1.0, 1.0]), cw.generated(np.eye(3)), cw.inequalities([[1.0]])]

    @pytest.mark.parametrize("cone", CONES, ids=["halfspace-3d", "rays-3d", "ineq-1d"])
    @pytest.mark.parametrize("call", [
        lambda m, cone: cw.minimize_on_dual(cw.FiniteLaplace(m), cone),
        lambda m, cone: cw.minimize_on_dual(cw.GaussianLaplace([-1.0, -0.5]), cone),
        lambda m, cone: cw.check_h2prime(m, cone),
        lambda m, cone: cw.steps.halfspace_witness(m, cone),
        lambda m, cone: cw.has_global_min_on_cone(cw.FiniteLaplace(m), cone),
        lambda m, cone: cw.find_delta(TestConeOfAnotherDimension.STEPS, cone),
    ], ids=["minimize-finite", "minimize-gaussian", "h2prime", "witness", "global-min",
            "find-delta"])
    def test_refused(self, call, cone):
        with pytest.raises(cw.ConeError, match=rf"cone dimension {cone.dim} differs .* 2"):
            call(cw.from_step_set(self.STEPS), cone)


class TestDescriptions:
    def test_each_kind(self):
        # the description a cone was built from is kept as given, and the
        # other is derived: plus and minus the lineality, then the extreme rays
        orth = cw.orthant(3)
        assert np.array_equal(orth.normals, np.eye(3)) and orth.rays is orth.normals
        h = cw.halfspace([2.0, -1.0])
        assert np.array_equal(h.normals, [[2.0, -1.0]])
        assert np.array_equal(h.rays, [[1.0, 2.0], [-1.0, -2.0], [2.0, -1.0]])
        A = [[1.0, 0.0], [1.0, 2.0]]
        ineq = cw.inequalities(A)
        derived = [[0.0, 1.0], [2.0, -1.0]]
        assert np.array_equal(ineq.normals, A) and np.array_equal(ineq.rays, derived)
        gen = cw.generated(A)
        assert np.array_equal(gen.normals, derived) and np.array_equal(gen.rays, A)

    def test_dual_swaps_the_descriptions(self):
        for cone in (cw.halfspace([2.0, -1.0]), cw.inequalities([[1.0, 0.0], [1.0, 2.0]]),
                     cw.generated([[1.0, 0.0], [1.0, 2.0]])):
            d = cw.dual(cone)
            assert _same(d.rays, cone.normals) and _same(d.normals, cone.rays)

    def test_normal_norms_derived_once(self):
        for cone in (cw.orthant(3), cw.halfspace([2.0, -1.0]),
                     cw.inequalities([[1.0, 0.0], [1.0, 2.0]]), cw.generated([[1.0, 0.0], [1.0, 2.0]])):
            assert _same(cone.normal_norms, np.linalg.norm(cone.normals, axis=1))
            with pytest.raises(ValueError):
                cone.normal_norms[0] = 2.0

    def test_orthant_identity_is_read_only(self):
        with pytest.raises(ValueError):
            cw.orthant(2).normals[0, 1] = 1.0

    def test_given_and_derived_descriptions_are_read_only(self):
        for cone in (cw.halfspace([2.0, -1.0]), cw.inequalities([[1.0, 0.0], [1.0, 2.0]]),
                     cw.generated([[1.0, 0.0], [1.0, 2.0]])):
            for arr in (cone.vectors, cone.normals, cone.rays):
                with pytest.raises(ValueError):
                    arr[0, 0] = 5.0

    def test_cone_does_not_alias_the_callers_array(self):
        u = np.array([1.0, 1.0])
        c = cw.halfspace(u)
        u[0] = -5.0
        assert cw.contains(c, [1, 0]) and c.vectors.tolist() == [[1.0, 1.0]]
        A = np.eye(2)
        g = cw.inequalities(A)
        g.rays
        A[0, 0] = -1.0
        assert np.array_equal(g.normals, np.eye(2))
        R = np.array([[1.0, 0.0], [1.0, 1.0]])
        r = cw.generated(R)
        R[1] = [-1.0, 0.0]
        assert r.rays.tolist() == [[1.0, 0.0], [1.0, 1.0]] and not cw.contains(r, [-1, 0])

    def test_missing_description_derived(self):
        for A in ([[1.0, 1.0]], [[1, 0, 0], [0, 1, 0], [1, 1, -1]], [[1, 0, 0], [-1, 0, 0]],
                  [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, -1, 0], [0, 0, 1, 1]]):
            ineq = cw.inequalities(A)
            gen = cw.generated(ineq.rays)
            for x in itertools.product(range(-2, 3), repeat=ineq.dim):
                assert cw.contains(ineq, x) == cw.contains(gen, x)
        # in 4-D the orthant's descriptions are derived too: the unit vectors
        assert np.array_equal(cw.inequalities(np.eye(4)).normals, np.eye(4))
        for derived in (cw.inequalities(np.eye(4)).rays, cw.generated(np.eye(4)).normals):
            assert sorted(map(tuple, derived)) == sorted(map(tuple, np.eye(4)))


class TestDual:
    def test_orthant_self_dual_structurally(self):
        d = cw.dual(cw.orthant(3))
        assert d.kind == "orthant" and d.dim == 3

    def test_halfspace_dualizes_to_its_normal_ray(self):
        d = cw.dual(cw.halfspace([2.0, 1.0]))
        assert d.kind == "generated"
        assert np.allclose(d.vectors, [[2.0, 1.0]])
        # the ray {t u}: membership of u and 3u, not of -u
        assert cw.contains(d, [2.0, 1.0]) and cw.contains(d, [6.0, 3.0])
        assert not cw.contains(d, [-2.0, -1.0])

    def test_generated_axes_dualizes_to_orthant_membership(self):
        d = cw.dual(cw.generated([[1.0, 0.0], [0.0, 1.0]]))
        assert d.kind == "inequalities"
        rng = np.random.default_rng(7)
        orth = cw.orthant(2)
        for _ in range(1000):
            x = rng.normal(size=2) * 3.0
            assert cw.contains(d, x, tol=1e-9) == cw.contains(orth, x, tol=1e-9)

    @pytest.mark.parametrize("cone", [
        cw.orthant(2),
        cw.orthant(3),
        cw.halfspace([1.0, 2.0]),
        cw.generated([[1.0, 0.0], [1.0, 1.0]]),
        cw.inequalities([[1.0, 0.0], [1.0, 2.0]]),
    ])
    def test_double_dual_round_trip_membership(self, cone):
        double = cw.dual(cw.dual(cone))
        rng = np.random.default_rng(11)
        for _ in range(2000):  # 10^4 points across the five parametrized cones
            x = rng.normal(size=cone.dim) * 2.0
            assert cw.contains(cone, x, tol=1e-9) == cw.contains(double, x, tol=1e-9)


class TestProject:
    def test_orthant_clamps(self):
        assert np.allclose(cw.project(cw.orthant(2), [-1.0, -1.0]), [0.0, 0.0])
        assert np.allclose(cw.project(cw.orthant(2), [3.0, -2.0]), [3.0, 0.0])

    def test_single_ray(self):
        ray = cw.generated([[1.0, 1.0]])
        assert np.allclose(cw.project(ray, [2.0, 0.0]), [1.0, 1.0])

    def test_halfspace(self):
        h = cw.halfspace([0.0, 1.0])
        assert np.allclose(cw.project(h, [5.0, -3.0]), [5.0, 0.0])
        assert np.allclose(cw.project(h, [5.0, 3.0]), [5.0, 3.0])

    def test_unsupported_kind(self):
        with pytest.raises(cw.UnsupportedConeError):
            cw.project(cw.generated([[1.0, 0.0], [1.0, 1.0]]), [1.0, 1.0])

    @pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
    def test_single_vector_far_from_unit_scale(self, k):
        # |u|^2 of the vector as given under- or overflows at these scales;
        # the projection reads it times a power of two, so 2^k u gives the
        # bits of u
        for u in ([1.0, 0.0], [3.0, -4.0], [-1.5, 0.25]):
            for make in (cw.halfspace, lambda v: cw.generated([v])):
                for a in ([-1.0, -0.5], [2.0, 1.0], [0.5, -3.0]):
                    want = cw.project(make(np.array(u)), a)
                    assert cw.project(make(np.ldexp(u, k)), a).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cone", [
        cw.orthant(3),
        cw.halfspace([1.0, -1.0, 0.5]),
        cw.generated([[1.0, 2.0, 0.0]]),
    ])
    def test_projection_is_nearest_point(self, cone):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=cone.dim) * 2.0
            p = cw.project(cone, a)
            dist = np.linalg.norm(a - p)
            for _ in range(200):
                y = _random_cone_point(rng, cone)
                assert dist <= np.linalg.norm(a - y) + 1e-12


class TestDistance:
    def test_examples(self):
        assert abs(cw.distance(cw.orthant(2), [-1.0, -1.0]) - np.sqrt(2)) <= 1e-14
        assert cw.distance(cw.orthant(2), [1.0, 1.0]) == 0.0
        assert abs(cw.distance(cw.halfspace([0.0, 1.0]), [5.0, -3.0]) - 3.0) <= 1e-14


class TestMoreau:
    def test_coordinatewise_split(self):
        pk, pp = cw.moreau_decompose(cw.orthant(2), [-1.0, 2.0])
        assert np.allclose(pk, [0.0, 2.0]) and np.allclose(pp, [-1.0, 0.0])

    def test_point_in_cone(self):
        pk, pp = cw.moreau_decompose(cw.orthant(2), [3.0, 4.0])
        assert np.allclose(pk, [3.0, 4.0]) and np.allclose(pp, [0.0, 0.0])

    def test_point_in_polar(self):
        pk, pp = cw.moreau_decompose(cw.orthant(2), [-1.0, -1.0])
        assert np.allclose(pk, [0.0, 0.0]) and np.allclose(pp, [-1.0, -1.0])

    @pytest.mark.parametrize("cone", [cw.orthant(2), cw.orthant(4), cw.halfspace([1.0, 2.0, -1.0])])
    def test_random_orthogonal_splits(self, cone):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a = rng.normal(size=cone.dim) * 3.0
            pk, pp = cw.moreau_decompose(cone, a)
            assert np.linalg.norm(a - pk - pp) <= 1e-12 * (1 + np.linalg.norm(a))
            assert abs(pk @ pp) <= 1e-10


class TestInterior:
    def test_has_interior_examples(self):
        assert cw.has_interior(cw.orthant(3))
        assert not cw.has_interior(cw.inequalities([[1.0, 0.0], [-1.0, 0.0]]))
        assert not cw.has_interior(cw.generated([[1.0, 0.0]]))
        assert cw.has_interior(cw.generated([[1.0, 0.0], [1.0, 1.0]]))
        assert cw.has_interior(cw.halfspace([1.0, 1.0]))

    def test_interior_vector_lies_strictly_inside(self):
        for cone in (cw.orthant(2), cw.halfspace([1.0, -2.0]),
                     cw.inequalities([[1.0, 0.0], [1.0, 2.0]]),
                     cw.generated([[1.0, 0.0], [1.0, 1.0]])):
            v = cw.interior_vector(cone)
            assert cw.strictly_contains(cone, v)

    def test_interior_vector_is_the_unit_ray_sum(self):
        assert cw.interior_vector(cw.orthant(3)).tolist() == [1.0, 1.0, 1.0]
        # the lineality rays of a half-space cancel: its normal, unit l1
        assert cw.interior_vector(cw.halfspace([1.0, -3.0])).tolist() == [0.25, -0.75]
        assert cw.interior_vector(cw.generated([[2, 0], [1, 1]])).tolist() == [1.5, 0.5]

    def test_interior_does_not_depend_on_scale(self):
        # the tests are relative: an LP with absolute tolerances finds no
        # interior point for these cones below c = 1e-12
        A = np.array([[2.0, -1.0], [-1.0, 2.0]])
        want = cw.interior_vector(cw.inequalities(A))
        for c in (1e-15, 1e-12, 1.0, 1e12):
            cone = cw.inequalities(c * A)
            assert cw.has_interior(cone)
            assert np.allclose(cw.interior_vector(cone), want, rtol=1e-12, atol=0.0)
        assert not cw.has_interior(cw.inequalities(1e-15 * np.array([[1.0, 0.0], [-1.0, 0.0]])))
        # rays are compared as directions, whatever their lengths
        assert cw.interior_vector(cw.generated([[1e12, 0.0], [0.0, 1.0]])).tolist() == [1.0, 1.0]

    def test_enumeration_budget_refused_before_work(self):
        # C(75, 3) = 67525 subsets of 75 normals in R^4
        A = np.hstack([np.ones((75, 1)), np.arange(75 * 3).reshape(75, 3) % 7 - 3.0])
        cone = cw.inequalities(A)
        with pytest.raises(cw.UnsupportedConeError, match="budget of 65536 subsets"):
            cw.has_interior(cone)
        assert cw.has_interior(cw.inequalities(A[:74]))  # C(74, 3) = 64824
        # a half-space in R^33: 561 subsets, each 33 minors of size 32
        with pytest.raises(cw.UnsupportedConeError, match="budget of .* 16777216 entries"):
            cw.has_interior(cw.halfspace(np.ones(33)))


@st.composite
def _interior_cases(draw):
    """Integer vectors of a generated or inequality cone in d = 2..4, a
    reordering of them, and a scale."""
    d = draw(st.integers(2, 4))
    vectors = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d).filter(any), min_size=1,
                            max_size=d + 2))
    order = draw(st.permutations(range(len(vectors))))
    return draw(st.sampled_from(["generated", "inequalities"])), vectors, order, \
        draw(st.floats(1e-12, 1e12))


class TestInteriorInvariance:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_interior_cases())
    @example(("inequalities", [(2, -1), (-1, 2)], [1, 0], 1e-12))
    @example(("inequalities", [(1, 0, 0, 0), (0, 1, 0, 0)], [1, 0], 3e11))
    def test_order_and_scale(self, case):
        kind, vectors, order, c = case
        make = getattr(cw, kind)
        V = np.array(vectors, dtype=float)
        base, moved, scaled = make(V), make(V[list(order)]), make(c * V)
        assert cw.has_interior(base) == cw.has_interior(moved) == cw.has_interior(scaled)
        if not cw.has_interior(base):
            return
        v = cw.interior_vector(base)
        assert cw.strictly_contains(base, v)
        # integer vectors give exact rays, whose unit-l1 sum rounds once
        assert cw.interior_vector(moved).tobytes() == v.tobytes()
        assert np.allclose(cw.interior_vector(scaled), v, rtol=0.0, atol=1e-12 * np.abs(v).max())

    @pytest.mark.parametrize("make, vectors", [(cw.inequalities, [[2, -1], [-1, 2]]),
                                               (cw.halfspace, [1, 1]),
                                               (cw.generated, [[1, 0], [1, 1]])])
    def test_plane_cones_below_the_square_root_of_tiny(self, make, vectors):
        # squares of 1e-200 underflow: norms of 0 divided the cosines and
        # the rank test, refusing these cones or failing the SVD
        V = np.array(vectors, dtype=float)
        base, tiny = make(V), make(1e-200 * V)
        assert cw.has_interior(tiny)
        assert cw.interior_vector(tiny).tobytes() == cw.interior_vector(base).tobytes()
        # in the plane a derived vector is a given one turned by a right angle
        assert np.array_equal(tiny.rays, 1e-200 * base.rays)
        assert np.array_equal(tiny.normals, 1e-200 * base.normals)
        assert np.allclose(tiny.normal_norms, 1e-200 * base.normal_norms, rtol=1e-15, atol=0.0)
        assert cw.strictly_contains(tiny, cw.interior_vector(tiny))
        assert cw.check_h2prime(cw.from_step_set(ENSWS), tiny).proper

    @pytest.mark.parametrize("c", [1e-200, 1e200])
    def test_space_cones_whose_cofactors_leave_the_doubles_are_refused(self, c):
        # cofactors of two 1e-200 vectors underflow to 0 and were dropped as
        # dependent: the generated cone got no normals and held every point
        R = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        with pytest.raises(cw.UnsupportedConeError, match="range of doubles"):
            cw.generated(c * R).normals
        with pytest.raises(cw.UnsupportedConeError, match="range of doubles"):
            cw.has_interior(cw.inequalities(c * R))


NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
ENSWS = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)]
_coord = st.integers(-3, 3) | st.floats(-3.0, 3.0, allow_nan=False, width=32)


@st.composite
def _halfspace_cases(draw):
    d = draw(st.integers(2, 3))
    u = draw(st.lists(_coord, min_size=d, max_size=d).filter(lambda v: any(v)))
    x = draw(st.lists(_coord, min_size=d, max_size=d))
    steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=d + 1, max_size=6,
                          unique=True).filter(lambda s: any(any(v) for v in s)))
    return u, x, steps, draw(st.integers(0, 2**32 - 1))


def _mc_hex(res):
    return res.estimate.hex(), res.stderr.hex()


class TestHalfspaceIsOneInequality:
    """halfspace(u) and inequalities([u]) share one code path in every
    routine, so every result must agree bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_halfspace_cases())
    # NSEW from (1, 1) below the line x + y = 0 of a non-integer normal: at
    # seed 11 one walker of five is alive at n = 40, judged alone
    @example(([0.1, 0.1], [1.0, 1.0], NSEW, 11))
    @example(([1, 1], [1.0, 0.5], ENSWS, 3))
    def test_same_results(self, case):
        u, x, steps, seed = case
        h, ineq = cw.halfspace(u), cw.inequalities([u])
        assert _same(h.normals, ineq.normals) and _same(h.rays, ineq.rays)
        assert cw.contains(h, x) == cw.contains(ineq, x)
        assert cw.strictly_contains(h, x) == cw.strictly_contains(ineq, x)
        assert cw.project(h, x).tobytes() == cw.project(ineq, x).tobytes()

        m = cw.from_step_set(steps)
        if not cw.check_h1(m):
            return
        model = cw.FiniteLaplace(m)
        try:
            cert = cw.minimize_on_dual(model, h)
        except cw.ImproperModelError as exc:
            with pytest.raises(cw.ImproperModelError) as other:
                cw.minimize_on_dual(model, ineq)
            assert other.value.witness.tobytes() == exc.witness.tobytes()
            return
        other = cw.minimize_on_dual(model, ineq)
        for field in dataclasses.fields(cert):
            a, b = getattr(other, field.name), getattr(cert, field.name)
            assert _same(a, b) if isinstance(a, np.ndarray) else a == b

        start = cw.project(h, x)
        cfg = cw.SimConfig(seed=seed, trials=5, n=40)
        assert (_mc_hex(cw.simulate_survival(m, start, h, cfg))
                == _mc_hex(cw.simulate_survival(m, start, ineq, cfg)))
        assert (_mc_hex(cw.tilted_survival(m, cert, start, h, cfg))
                == _mc_hex(cw.tilted_survival(m, cert, start, ineq, cfg)))

    def test_lone_survivor_example_keeps_one_walker(self):
        res = cw.simulate_survival(cw.from_step_set(NSEW), (1.0, 1.0), cw.halfspace((0.1, 0.1)),
                                   cw.SimConfig(seed=11, trials=5, n=40))
        assert res.estimate == 0.2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["orthant", "halfspace", "generated", "inequalities"]),
           st.lists(st.lists(_coord, min_size=2, max_size=2).filter(lambda v: any(v)),
                    min_size=1, max_size=3))
    def test_double_dual_keeps_both_descriptions(self, kind, vectors):
        cone = {"orthant": lambda: cw.orthant(2), "halfspace": lambda: cw.halfspace(vectors[0]),
                "generated": lambda: cw.generated(vectors),
                "inequalities": lambda: cw.inequalities(vectors)}[kind]()
        double = cw.dual(cw.dual(cone))
        assert double.kind == cone.kind and _same(double.vectors, cone.vectors)
        assert _same(double.normals, cone.normals) and _same(double.rays, cone.rays)


@st.composite
def _generated_cases(draw):
    """Integer rays in d = 2, 3 (spanning or not, redundant ones included),
    a step set, and a seed."""
    d = draw(st.integers(2, 3))
    rays = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d).filter(any), min_size=1, max_size=4,
                         unique=True))
    steps = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d), min_size=d + 1, max_size=6,
                          unique=True).filter(lambda s: any(any(v) for v in s)))
    return rays, steps, draw(st.integers(0, 2**32 - 1))


def _in_ray_cone(R, x):
    """HiGHS oracle: x = R^T t for some t >= 0."""
    res = linprog(np.zeros(len(R)), A_eq=np.array(R, dtype=float).T, b_eq=x,
                  bounds=[(0, None)] * len(R), method="highs")
    return res.status == 0


class TestGeneratedIsItsInequalities:
    """generated(R) and inequalities(N), with N the normals derived from R,
    are one cone: every routine must give the same results on both."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_generated_cases())
    @example(([(1, 0), (1, 1)], [(0, 1), (0, -1), (1, 0), (-1, 0)], 0))
    @example(([(1, 0, 0), (0, 1, 0)], [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], 1))
    @example(([(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 1), (1, 0), (-1, -1)], 2))
    def test_same_results(self, case):
        rays, steps, seed = case
        gen = cw.generated(rays)
        N = gen.normals
        assert np.array_equal(N, np.round(N))
        grid = [np.array(x, dtype=float) for x in itertools.product(range(-6, 7), repeat=gen.dim)]
        for x in grid[::17]:
            assert cw.contains(gen, x) == _in_ray_cone(rays, x)
        if not len(N):  # the rays span the whole space
            assert all(cw.strictly_contains(gen, x) for x in grid)
            return
        ineq = cw.inequalities(N)
        assert np.array_equal(ineq.rays, np.round(ineq.rays))
        for x in grid:
            assert cw.contains(gen, x) == cw.contains(ineq, x)
            assert cw.strictly_contains(gen, x) == cw.strictly_contains(ineq, x)

        m = cw.from_step_set(steps)
        start = np.sum(rays, axis=0)
        cfg = cw.SimConfig(seed=seed, trials=50, n=20)
        assert (_mc_hex(cw.simulate_survival(m, start, gen, cfg))
                == _mc_hex(cw.simulate_survival(m, start, ineq, cfg)))
        # H2' and the rate theorem need a cone with interior (K* then has no line)
        assert cw.has_interior(gen) == cw.has_interior(ineq)
        if not cw.has_interior(gen):
            for cone in (gen, ineq):
                with pytest.raises(cw.ConeError, match="non-empty interior"):
                    cw.check_h2prime(m, cone)
            return
        assert cw.check_h2prime(m, gen).proper == cw.check_h2prime(m, ineq).proper
        if not (cw.check_h1(m) and cw.check_h2prime(m, gen).proper):
            return
        model = cw.FiniteLaplace(m)
        cert = cw.minimize_on_dual(model, gen)
        other = cw.minimize_on_dual(model, ineq)
        assert abs(cert.rho - other.rho) <= 1e-12 * other.rho
        for c in (cert, other):
            assert c.kkt_membership_residual <= 1e-9 and abs(c.kkt_orthogonality) <= 1e-9

    def test_rays_spanning_the_space(self):
        # K = R^2 has no normals, and K* = {0} no rays: survival is certain
        gen = cw.generated([[1, 0], [-1, 0], [0, 1], [0, -1]])
        assert gen.normals.shape == (0, 2) and cw.dual(gen).rays.shape == (0, 2)
        assert cw.contains(gen, [-5.0, 3.0]) and cw.strictly_contains(gen, [-5.0, 3.0])
        model = cw.FiniteLaplace(cw.from_step_set([(1, 0), (0, 1), (-1, -1), (-1, 0)]))
        assert cw.has_global_min_on_cone(model, cw.dual(gen))
        cert = cw.minimize_on_dual(model, gen)
        assert cert.rho == 1.0 and not cert.x_star.any()


@st.composite
def _small_matrices(draw):
    """Four nonzero-row matrices in d = 1..3: integer, float, integer with a
    row and its negation (a lineality direction), float scaled by c."""
    d = draw(st.integers(1, 3))
    rows = lambda entries: st.lists(st.tuples(*[entries] * d).filter(any), min_size=1, max_size=5)
    ints = np.array(draw(rows(st.integers(-3, 3))), dtype=float)
    floats = np.array(draw(rows(st.floats(-4.0, 4.0).filter(lambda x: x == 0.0 or abs(x) > 1e-9))))
    c = draw(st.sampled_from([1e-12, 1e-6, 3.0, 1e6, 1e12]))
    return [ints, floats, np.vstack([ints, -ints[:1]]), c * floats]


class TestGeneratorsMatchReference:
    """The enumeration for every dimension returns the frozen d <= 3 closed
    forms' vectors bit for bit in d <= 3."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(_small_matrices())
    @example([np.array([[2.0, -1.0], [-1.0, 2.0]])])
    @example([np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]), np.array([[1.0, 1.0, 1.0]])])
    @example([np.array([[3.0]]), np.array([[1.0], [-1.0]])])
    def test_bit_identical(self, matrices):
        for V in matrices:
            got, want = cones._generators(V), ref_cones.generators(V)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def _higher_cases(draw):
    """Integer rays in d = 4, 5 and a few integer points to test."""
    d = draw(st.integers(4, 5))
    rays = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d).filter(any), min_size=1,
                         max_size=d + 3, unique=True))
    points = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=8, max_size=8))
    return rays, points


class TestEnumerationInHigherDimensions:
    """In d = 4, 5: integer data give integer generators, each satisfying
    V z >= 0, and generated(R) and inequalities(N) hold the points HiGHS
    puts in the cone of R."""

    def test_fraction_free_determinants_are_exact(self):
        rng = np.random.default_rng(0)
        M = rng.integers(-3, 4, size=(600, 5, 5)).astype(float)
        M[::3, :, 2] = 0.0  # a zero column
        M[1::3, 4] = 2.0 * M[1::3, 0]  # dependent rows
        got = cones._dets(M)
        assert np.array_equal(got, np.round(np.linalg.det(M)))
        assert not got[::3].any() and not got[1::3].any()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_higher_cases())
    @example(([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)], [(1, 1, 1, 0)] * 8))
    @example(([(1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)], [(-2, 1, 1, 1)] * 8))
    def test_same_cone(self, case):
        rays, points = case
        R = np.array(rays, dtype=float)
        gen = cw.generated(R)
        N = gen.normals
        assert np.array_equal(N, np.round(N)) and (R @ N.T >= 0.0).all()
        ineq = cw.inequalities(N) if len(N) else None
        if ineq is not None:
            G = ineq.rays
            assert np.array_equal(G, np.round(G)) and (N @ G.T >= 0.0).all()
        for x in np.array(points, dtype=float) + R[0]:
            want = _in_ray_cone(R, x)
            assert cw.contains(gen, x) == want
            if ineq is not None:
                assert cw.contains(ineq, x) == want == _in_ray_cone(G, x)
        if ineq is not None:
            assert cw.has_interior(gen) == cw.has_interior(ineq)
        if cw.has_interior(gen):
            assert cw.strictly_contains(gen, cw.interior_vector(gen))
