import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

import conewalks as cw
from conewalks import laplace, steps as steps_mod
from conewalks._simplex import scale_rows

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]


def _fd_gradient(model, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (cw.value(model, x + e) - cw.value(model, x - e)) / (2 * h)
    return g


def _fd_hessian(model, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    H = np.zeros((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        H[:, i] = (cw.gradient(model, x + e) - cw.gradient(model, x - e)) / (2 * h)
    return H


@pytest.fixture()
def models():
    out = [
        cw.FiniteLaplace(cw.from_step_set(NSEW)),
        cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL)),
        cw.FiniteLaplace(cw.probability_measure([(1,), (-1,)], [0.25, 0.75])),
        cw.FiniteLaplace(cw.probability_measure([(1, 0), (0, 1), (-1, -1)], [0.2, 0.3, 0.5])),
    ]
    return out


class TestValue:
    def test_unit_at_origin(self, models):
        for model in models:
            assert abs(cw.value(model, np.zeros(model.dim)) - 1.0) <= 1e-15

    def test_1d_stationary_value(self):
        model = cw.FiniteLaplace(cw.probability_measure([(1,), (-1,)], [0.25, 0.75]))
        assert abs(cw.value(model, [0.5 * np.log(3.0)]) - np.sqrt(3) / 2) <= 1e-15

    def test_gaussian_closed_form(self):
        g = cw.GaussianLaplace([-1.0, -1.0])
        assert abs(cw.value(g, [1.0, 1.0]) - np.exp(-1.0)) <= 1e-15

    def test_overflow_rejected(self):
        model = cw.FiniteLaplace(cw.from_step_set([(1,), (-1,)]))
        with pytest.raises(OverflowError):
            cw.value(model, [701.0])
        with pytest.raises(OverflowError):
            cw.value(cw.GaussianLaplace([0.0]), [50.0])

    @given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([np.nan, np.inf, -np.inf, 700.0, -700.0]),
                    min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_guard_verdict_is_that_of_np_max(self, x):
        # the guard refuses a point when max|S x| > 700 as np.max forms it, so
        # a NaN exponent passes it wherever it sits among the exponents
        model = cw.FiniteLaplace(cw.probability_measure([(1, 0), (0, 1), (-1, -1), (2, -1)],
                                                        [0.1, 0.2, 0.3, 0.4]))
        x = np.array(x)
        with np.errstate(invalid="ignore"):  # inf * 0 in S x
            refused = float(np.abs(model.measure.steps @ x).max()) > steps_mod.MAX_EXPONENT
            assert (laplace._exponents(model, x) is None) == refused


class TestNonFinitePoint:
    """A point with a NaN or an infinite coordinate is refused by name, as
    tilt refuses it, before any exponential is formed: no NaN result and no
    RuntimeWarning (an error under the tier-1 filter)."""

    MODELS = [cw.FiniteLaplace(cw.from_step_set([(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1)])),
              cw.GaussianLaplace([-1.0, 0.5])]

    @pytest.mark.parametrize("model", MODELS, ids=["finite", "gaussian"])
    @pytest.mark.parametrize("x", [[np.nan, 0.1], [np.inf, 0.0], [0.0, -np.inf]])
    def test_refused(self, model, x):
        for fn in (cw.value, cw.gradient, cw.hessian):
            with pytest.raises(ValueError, match="non-finite point"):
                fn(model, x)
        u = np.array([-1.0, -1.0]) / np.sqrt(2.0)
        with pytest.raises(ValueError, match="non-finite point"):
            cw.classify_direction(model, u, x=x)

    @pytest.mark.parametrize("model", MODELS, ids=["finite", "gaussian"])
    @pytest.mark.parametrize("u", [[np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]])
    def test_direction_refused(self, model, u):
        # a NaN direction passed the unit-norm test, as |NaN - 1| > 1e-9 is
        # False, and was classified as convergent with limit 0
        with pytest.raises(ValueError, match="non-finite point"):
            cw.classify_direction(model, u)


class TestGradient:
    def test_gradient_at_origin_is_mean(self, models):
        for model in models:
            assert np.allclose(cw.gradient(model, np.zeros(model.dim)),
                               cw.mean(model.measure), atol=1e-15)

    def test_gaussian_stationary_at_minus_drift(self):
        g = cw.GaussianLaplace([2.0, -1.0])
        assert np.allclose(cw.gradient(g, [-2.0, 1.0]), [0.0, 0.0], atol=1e-15)

    def test_nsew_axis_formula(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        for t in (0.3, 1.2, -0.7):
            expected = [(np.exp(t) - np.exp(-t)) / 4.0, 0.0]
            assert np.allclose(cw.gradient(model, [t, 0.0]), expected, atol=1e-14)

    def test_matches_finite_differences(self, models):
        rng = np.random.default_rng(10)
        for model in models + [cw.GaussianLaplace([-0.5, 1.5])]:
            for _ in range(100):
                x = rng.normal(size=model.dim)
                g = cw.gradient(model, x)
                fd = _fd_gradient(model, x)
                assert np.allclose(g, fd, rtol=1e-6, atol=1e-8)


class TestHessian:
    def test_second_moment_at_origin(self, models):
        for model in models:
            m = model.measure
            expected = (m.weights[:, None] * m.steps).T @ m.steps
            assert np.allclose(cw.hessian(model, np.zeros(model.dim)), expected, atol=1e-15)

    def test_cosh_in_1d(self):
        model = cw.FiniteLaplace(cw.from_step_set([(1,), (-1,)]))
        for x in (-1.0, 0.0, 2.5):
            assert abs(cw.hessian(model, [x])[0, 0] - np.cosh(x)) <= 1e-13

    def test_matches_finite_differences(self, models):
        rng = np.random.default_rng(11)
        for model in models + [cw.GaussianLaplace([-0.5, 1.5])]:
            for _ in range(25):
                x = rng.normal(size=model.dim)
                H = cw.hessian(model, x)
                fd = _fd_hessian(model, x)
                assert np.allclose(H, fd, rtol=1e-5, atol=1e-7)
                assert np.allclose(H, H.T)

    def test_positive_definite_under_h1(self, proper_2d_corpus):
        rng = np.random.default_rng(12)
        for steps in proper_2d_corpus[:10]:
            model = cw.FiniteLaplace(cw.from_step_set(steps))
            x = rng.normal(size=2)
            eig = np.linalg.eigvalsh(cw.hessian(model, x))
            assert eig.min() > 0.0


class TestClassifyDirection:
    def test_divergence_along_axis(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        res = cw.classify_direction(model, [1.0, 0.0])
        assert res.diverges

    def test_halfspace_model_boundary_limit(self):
        model = cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL))
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        res = cw.classify_direction(model, u, np.zeros(2))
        assert not res.diverges
        assert abs(res.limit - 2.0 / 3.0) <= 1e-15

    def test_empty_boundary_slice(self):
        model = cw.FiniteLaplace(cw.from_step_set([(-1, 0)]))
        res = cw.classify_direction(model, [1.0, 0.0], np.zeros(2))
        assert not res.diverges
        assert res.limit == 0.0

    def test_gaussian_always_diverges(self):
        g = cw.GaussianLaplace([-3.0, 0.0])
        assert cw.classify_direction(g, [0.0, 1.0]).diverges

    def test_requires_unit_direction(self):
        model = cw.FiniteLaplace(cw.from_step_set(NSEW))
        with pytest.raises(ValueError):
            cw.classify_direction(model, [1.0, 1.0])

    def test_limit_matches_sampled_values(self):
        model = cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL))
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        x = np.array([0.2, -0.1])
        res = cw.classify_direction(model, u, x)
        sampled = [cw.value(model, x + t * u) for t in (10.0, 20.0, 40.0)]
        assert abs(sampled[-1] - res.limit) <= 1e-6


class TestGlobalMinimumDichotomy:
    def test_examples(self):
        Q = cw.orthant(2)
        assert cw.has_global_min_on_cone(cw.FiniteLaplace(cw.from_step_set(NSEW)), Q)
        assert not cw.has_global_min_on_cone(cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL)), Q)
        m1 = cw.FiniteLaplace(cw.probability_measure([(1,), (-1,)], [0.25, 0.75]))
        assert cw.has_global_min_on_cone(m1, cw.orthant(1))

    def test_h1_required(self):
        bad = cw.FiniteLaplace(cw.from_step_set([(1, 1), (-1, -1)]))
        with pytest.raises(ValueError):
            cw.has_global_min_on_cone(bad, cw.orthant(2))

    def test_gaussian_rejected(self):
        with pytest.raises(TypeError):
            cw.has_global_min_on_cone(cw.GaussianLaplace([1.0]), cw.orthant(1))


def highs_min_max(G):
    """The global-minimum LP as HiGHS solves it, kept as the reference:
    min gamma s.t. G t <= gamma, t >= 0, sum t = 1."""
    k, r = G.shape
    c = np.zeros(r + 1)
    c[-1] = 1.0
    a_ub = np.hstack([G, -np.ones((k, 1))])
    a_eq = np.zeros((1, r + 1))
    a_eq[0, :r] = 1.0
    res = linprog(
        c, A_ub=a_ub, b_ub=np.zeros(k), A_eq=a_eq, b_eq=[1.0],
        bounds=[(0, None)] * r + [(None, None)], method="highs",
    )
    assert res.success, res.message
    return float(res.fun)


# inequality cones whose duals are generated by several rays
INEQ = {2: [(2, -1), (-1, 2)], 3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]}


def dual_cones(d):
    """The orthant's dual and, from d = 2, the duals of the half-space u = 1
    and an inequality cone."""
    out = [cw.dual(cw.orthant(d))]
    if d >= 2:
        out += [cw.dual(cw.halfspace(np.ones(d))), cw.dual(cw.inequalities(INEQ[d]))]
    return out


def highs_mismatches(steps):
    """The (dual cone, simplex gamma, HiGHS gamma) cases of a step set where
    the two LP values differ by more than 1e-9 or the verdicts differ."""
    m = cw.from_step_set(steps)
    h1 = cw.check_h1(m)
    bad = []
    for dual in dual_cones(m.dim):
        G = m.steps @ dual.rays.T
        gamma, fun = laplace._min_max_value(G), highs_min_max(G)
        # the public test refuses a support without H1; its LP still runs
        verdict = cw.has_global_min_on_cone(cw.FiniteLaplace(m), dual) if h1 else gamma > 1e-9
        if abs(gamma - fun) > 1e-9 or verdict != (fun > 1e-9):
            bad.append((dual.rays.tolist(), gamma, fun))
    return bad


@st.composite
def small_step_sets(draw):
    """Steps from {-1,0,1}^d for d = 1-3, or from {-3..3}^2."""
    d, span = draw(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 3)]))
    vectors = [v for v in itertools.product(range(-span, span + 1), repeat=d) if any(v)]
    return draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=8, unique=True))


class TestGlobalMinMatchesHighs:
    """The simplex route of has_global_min_on_cone against the HiGHS LP it
    replaced: the same value to 1e-9 and the same verdict."""

    def test_corpora(self, proper_2d_corpus, proper_3d_corpus, improper_2d_corpus):
        corpus = proper_2d_corpus + proper_3d_corpus + improper_2d_corpus
        assert [bad for steps in corpus for bad in highs_mismatches(steps)] == []

    @given(small_step_sets())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_step_sets(self, steps):
        assert highs_mismatches(steps) == []


def highs_h2prime_feasible(G):
    """Whether some t >= 0 with sum t = 1 has G t <= 0, as HiGHS decides it:
    the H2' feasibility LP, kept as the reference."""
    k, r = G.shape
    res = linprog(np.zeros(r), A_ub=G, b_ub=np.zeros(k), A_eq=np.ones((1, r)), b_eq=[1.0],
                  bounds=[(0, None)] * r, method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def h2prime_mismatches(steps):
    """The (dual cone, package verdict, HiGHS verdict) cases of a step set
    where the verdicts differ or an improper verdict comes with a witness
    that is not one: u in K*, unit l1 norm, every step in {<u, .> <= 0}."""
    m = cw.from_step_set(steps)
    bad = []
    for dual in dual_cones(m.dim):
        u = steps_mod.halfspace_witness(m, dual)
        improper = highs_h2prime_feasible(m.steps @ dual.rays.T)
        valid = u is None or (cw.contains(dual, u) and abs(np.abs(u).sum() - 1.0) <= 1e-12
                              and float((m.steps @ u).max()) <= 1e-12)
        if (u is not None) != improper or not valid:
            bad.append((dual.rays.tolist(), None if u is None else u.tolist(), improper))
    return bad


class TestH2PrimeMatchesHighs:
    """The explicit-basis H2' LP of `steps.halfspace_witness` against a HiGHS
    feasibility LP: the same verdict, and a valid witness when improper."""

    def test_corpora(self, proper_2d_corpus, proper_3d_corpus, improper_2d_corpus):
        corpus = proper_2d_corpus + proper_3d_corpus + improper_2d_corpus
        assert [bad for steps in corpus for bad in h2prime_mismatches(steps)] == []

    @given(small_step_sets())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_step_sets(self, steps):
        assert h2prime_mismatches(steps) == []


def shortcut_mismatches(steps):
    """The cases of a step set, against each dual cone of `dual_cones`,
    where `steps.halfspace_witness`'s interior-step shortcut fires but the
    LP it skips finds a witness or HiGHS calls the set improper, or where it
    fires differently on steps or rays scaled by 2^k; and the number of
    cones on which it fires."""
    m = cw.from_step_set(steps)
    bad, fired = [], 0
    for dual in dual_cones(m.dim):
        R = scale_rows(dual.rays)
        G = scale_rows(m.steps) @ R.T
        fires = steps_mod._has_interior_step(G)
        if fires and (steps_mod._witness_lp(G, R) is not None
                      or highs_h2prime_feasible(m.steps @ dual.rays.T)):
            bad.append((dual.rays.tolist(), "improper"))
        for k in (-300, -40, -1, 1, 40, 300):
            c = 2.0 ** k
            G_k = scale_rows(c * m.steps) @ scale_rows(c * dual.rays).T
            if steps_mod._has_interior_step(G_k) != fires:
                bad.append((dual.rays.tolist(), k))
        fired += fires
    return bad, fired


class TestInteriorStepShortcut:
    """A step with every product above INTERIOR_MARGIN settles H2' before
    the LP; wherever it does, the LP and HiGHS agree there is no witness."""

    def test_corpora(self, proper_2d_corpus, proper_3d_corpus, improper_2d_corpus):
        corpus = proper_2d_corpus + proper_3d_corpus + improper_2d_corpus
        results = [shortcut_mismatches(steps) for steps in corpus]
        assert [bad for bad, _ in results if bad] == []
        # 135 of the 189 proper (set, cone) pairs skip the LP
        assert sum(fired for _, fired in results) == 135

    @given(small_step_sets())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_random_step_sets(self, steps):
        assert shortcut_mismatches(steps)[0] == []


class TestConvexityAndTiltIdentities:
    def test_strict_midpoint_convexity(self, proper_2d_corpus):
        rng = np.random.default_rng(13)
        for steps in proper_2d_corpus[:10]:
            model = cw.FiniteLaplace(cw.from_step_set(steps))
            for _ in range(10):
                x1 = rng.normal(size=2)
                x2 = rng.normal(size=2)
                if np.allclose(x1, x2):
                    continue
                mid = cw.value(model, (x1 + x2) / 2.0)
                avg = (cw.value(model, x1) + cw.value(model, x2)) / 2.0
                assert mid < avg - 1e-12

    def test_tilted_transform_identity(self):
        rng = np.random.default_rng(14)
        m = cw.probability_measure([(1, 0), (0, 1), (-1, -1)], [0.2, 0.3, 0.5])
        model = cw.FiniteLaplace(m)
        for _ in range(30):
            z = rng.normal(size=2)
            x = rng.normal(size=2)
            tilted = cw.FiniteLaplace(cw.tilt(m, z))
            lhs = cw.value(tilted, x)
            rhs = cw.value(model, z + x) / cw.value(model, z)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
