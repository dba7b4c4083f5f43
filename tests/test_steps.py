import itertools
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import conewalks as cw
from conewalks import cones, counting

import reference_steps as ref_steps

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]


class TestConstruction:
    def test_uniform_weights(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        assert np.allclose(m.weights, [0.5, 0.5])
        m3 = cw.from_step_set(HALFSPACE_MODEL)
        assert np.allclose(m3.weights, [1 / 3] * 3)
        single = cw.from_step_set([(1, 0)])
        assert np.allclose(single.weights, [1.0])

    def test_duplicate_step_rejected(self):
        with pytest.raises(ValueError):
            cw.from_step_set([(1, 0), (1, 0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cw.from_step_set(np.zeros((0, 2)))

    @pytest.mark.parametrize("steps", [[], [[]], [[], []]],
                             ids=["empty-list", "one-empty-step", "two-empty-steps"])
    def test_steps_of_length_0_rejected(self, steps):
        # they were one step of length 0, a StepMeasure of dimension 0
        message = "need at least one step, each a vector of length >= 1"
        with pytest.raises(ValueError, match=message):
            cw.from_step_set(steps)
        with pytest.raises(ValueError, match=message):
            cw.probability_measure(steps, [1.0] * len(steps))

    def test_probability_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            cw.probability_measure([(1,), (-1,)], [0.25, 0.5])
        with pytest.raises(ValueError):
            cw.probability_measure([(1,), (-1,)], [1.25, -0.25])

    @pytest.mark.parametrize("steps, weights", [
        ([(np.nan, 0), (0, 1), (-1, -1)], None),
        ([(np.inf, 0), (0, 1), (-1, -1)], None),
        ([(1, 0), (0, 1), (-1, -1)], [np.nan, 0.5, 0.5]),
        ([(1, 0), (0, 1), (-1, -1)], [np.inf, 0.5, 0.5]),
    ])
    def test_non_finite_rejected(self, steps, weights):
        # NaN passes both the positivity and the sum check
        with pytest.raises(ValueError, match="finite"):
            if weights is None:
                cw.from_step_set(steps)
            else:
                cw.probability_measure(steps, weights)


class TestMoments:
    def test_mean_symmetry(self):
        assert np.allclose(cw.mean(cw.from_step_set(NSEW)), [0.0, 0.0])

    def test_mean_halfspace_model(self):
        assert np.allclose(cw.mean(cw.from_step_set(HALFSPACE_MODEL)), [-1 / 3, -1 / 3])

    def test_mean_weighted_1d(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        assert np.allclose(cw.mean(m), [-0.5])

    def test_covariance_pm1(self):
        m = cw.from_step_set([(1,), (-1,)])
        assert np.allclose(cw.covariance(m), [[1.0]])

    def test_covariance_nsew(self):
        assert np.allclose(cw.covariance(cw.from_step_set(NSEW)), np.diag([0.5, 0.5]))

    def test_covariance_degenerate_two_point(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        gamma = cw.covariance(m)
        assert np.allclose(gamma, [[0.25, -0.25], [-0.25, 0.25]])
        # kernel spanned by (1, 1)
        assert abs(np.linalg.det(gamma)) <= 1e-15
        assert np.allclose(gamma @ [1.0, 1.0], [0.0, 0.0])


class TestH1:
    def test_spanning(self):
        assert cw.check_h1(cw.from_step_set([(1, 0), (0, 1)]))
        assert cw.check_h1(cw.from_step_set(HALFSPACE_MODEL))

    def test_collinear(self):
        assert not cw.check_h1(cw.from_step_set([(1, 1), (2, 2)]))

    def test_covariance_route_examples(self):
        assert cw.check_h1_via_covariance(cw.from_step_set(NSEW))
        # degenerate covariance but drift escapes the kernel's orthogonal
        assert cw.check_h1_via_covariance(cw.from_step_set([(1, 0), (0, 1)]))
        assert not cw.check_h1_via_covariance(cw.from_step_set([(1, 1), (-1, -1)]))

    @pytest.mark.parametrize("steps, spans", [
        ([(0, 0)], False),                  # all zero
        ([(1,)], True),                     # zero covariance, dim 1
        ([(1, 1)], False),                  # zero covariance, dim 2
        ([(1, 0, 0), (2, 0, 0)], False),    # covariance kernel of dimension 2
    ])
    def test_routes_agree_on_degenerate_sets(self, steps, spans):
        m = cw.from_step_set(steps)
        assert cw.check_h1(m) == cw.check_h1_via_covariance(m) == spans

    def test_routes_agree_on_corpus(self, proper_2d_corpus, improper_2d_corpus, proper_3d_corpus):
        for steps in proper_2d_corpus + improper_2d_corpus + proper_3d_corpus:
            m = cw.from_step_set(steps)
            assert cw.check_h1(m) == cw.check_h1_via_covariance(m)


class TestH2Prime:
    def test_halfspace_model_witness_is_diagonal(self):
        res = cw.check_h2prime(cw.from_step_set(HALFSPACE_MODEL), cw.orthant(2))
        assert not res.proper
        # the only normalized witness direction for this model
        assert np.allclose(res.witness, [0.5, 0.5], atol=1e-9)

    def test_nsew_proper(self):
        assert cw.check_h2prime(cw.from_step_set(NSEW), cw.orthant(2)).proper

    def test_all_nonpositive_steps(self):
        res = cw.check_h2prime(cw.from_step_set([(-1, 0), (0, -1)]), cw.orthant(2))
        assert not res.proper
        assert res.witness is not None

    def test_witness_validity_on_improper_corpus(self, improper_2d_corpus):
        Q = cw.orthant(2)
        for steps in improper_2d_corpus:
            m = cw.from_step_set(steps)
            res = cw.check_h2prime(m, Q)
            assert not res.proper
            u = res.witness
            # normalized, in the dual cone, and dominating every step
            assert abs(np.abs(u).sum() - 1.0) <= 1e-12
            assert cw.contains(cw.dual(Q), u, tol=1e-9)
            assert float((m.steps @ u).max()) <= 1e-10

    def test_halfspace_cone_dual_ray(self):
        # K = upper half-plane; its dual is the vertical ray
        m = cw.from_step_set([(1, -1), (-1, -1)])
        res = cw.check_h2prime(m, cw.halfspace([0.0, 1.0]))
        assert not res.proper
        assert np.allclose(res.witness, [0.0, 1.0])

    def test_generated_cone_matches_its_inequalities(self):
        # K* of the cone generated by (1, 0) and (1, 1) is the inequality
        # cone of those rays, whose rays are derived
        for steps in (NSEW, [(1, -1), (-1, 1), (-1, -1)]):
            m = cw.from_step_set(steps)
            gen = cw.check_h2prime(m, cw.generated([[1.0, 0.0], [1.0, 1.0]]))
            ineq = cw.check_h2prime(m, cw.inequalities([[0, 1], [1, -1]]))
            assert gen.proper == ineq.proper
            if not gen.proper:
                assert gen.witness.tobytes() == ineq.witness.tobytes()
        # in 4-D the rays of K* are derived: the orthant's verdicts
        e = np.eye(4)
        for steps, proper in ((np.vstack([e, -e]), True), (np.vstack([-e[:1], e[1:], -e[1:]]), False)):
            m = cw.from_step_set(steps)
            gen = cw.check_h2prime(m, cw.generated(e))
            assert gen.proper == cw.check_h2prime(m, cw.orthant(4)).proper == proper
            assert proper or (steps @ gen.witness).max() <= 0.0


class TestH3:
    def test_nsew_two_steps(self):
        res = cw.check_h3(NSEW, 2)
        assert res.ok
        assert len(res.path) == 2
        assert sorted(res.path) == [(0, 1), (1, 0)]

    def test_sw_singleton_never(self):
        res = cw.check_h3([(-1, -1)], 10)
        assert not res.ok and res.exhausted

    def test_halfspace_model_blocked_at_origin(self):
        res = cw.check_h3(HALFSPACE_MODEL, 10)
        assert not res.ok

    def test_path_witness_is_replayable(self):
        res = cw.check_h3([(2, 0), (0, 3), (-1, -1)], 6)
        assert res.ok
        pos = np.zeros(2)
        for s in res.path:
            pos += s
            assert np.all(pos >= 0)
        assert np.all(pos > 0)

    def test_non_lattice_rejected(self):
        with pytest.raises(ValueError):
            cw.check_h3([(0.5, 1.0)], 3)

    @pytest.mark.parametrize("budget, raises", [(15, False), (14, True)])
    def test_search_budget(self, budget, raises, monkeypatch):
        # {+-e1, +-e2, -e3} never reaches the interior: by depth 4 the search
        # has visited the 15 points of {x, y >= 0, x + y <= 4, z = 0}
        monkeypatch.setattr(cw.steps, "MAX_SEARCH_POINTS", budget)
        flat = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1)]
        if raises:
            with pytest.raises(ValueError, match="budget"):
                cw.check_h3(flat, 4)
        else:
            res = cw.check_h3(flat, 4)
            assert not res.ok and not res.exhausted


class TestDefaultDepth:
    @pytest.mark.parametrize("steps", [[(1, 1), (-1, 0), (0, -1)], NSEW, [(2, 0), (0, 3), (-1, -1)]])
    def test_scale_free(self, steps):
        # the l1 norms of 2**62 (1, 1) and the like wrap in int64
        base = np.array(steps, dtype=np.int64)
        want = cw.steps.default_h3_depth(base)
        for k in range(63):
            if int(np.abs(base).max()) << k < 2**63:
                assert cw.steps.default_h3_depth(base * 2**k) == want, k

    def test_value(self):
        assert cw.steps.default_h3_depth([(1, 1), (-1, 0), (0, -1)]) == 8
        assert cw.steps.default_h3_depth(np.array([(2**62, 2**62), (-2**62, 0)])) == 8


def _search_outcome(search, *args):
    try:
        return search(*args)[:2]
    except ValueError as exc:
        return str(exc)


@st.composite
def _search_cases(draw):
    """Steps from {-2..2}^d, d = 1-3, a solid cone of any kind, a shift
    delta v on DELTA_GRID and a depth of 1-8."""
    d = draw(st.integers(1, 3))
    box = list(itertools.product(range(-2, 3), repeat=d))
    steps = draw(st.lists(st.sampled_from(box), min_size=1, max_size=6, unique=True))
    kind = draw(st.sampled_from(["orthant", "halfspace", "ineq", "rays"]))
    vectors = draw(st.lists(st.sampled_from([v for v in box if any(v)]), min_size=1, max_size=3,
                            unique=True).filter(lambda vs: cw.has_interior(_cone(kind, vs))))
    return (np.array(steps, dtype=np.int64), _cone(kind, vectors),
            draw(st.sampled_from(counting.DELTA_GRID)), draw(st.integers(1, 8)))


class TestInteriorPathMatchesReference:
    """The level-wise lattice search against the point-by-point search it
    replaced (`reference_steps`): the same path and truncation flag, or the
    same ValueError, under the default budget and under budgets just below
    and at the number of points the search admits."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_search_cases())
    @example((np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1)]),
              cw.orthant(3), 0.0, 4))
    @example((np.array([(2, 0), (0, 3), (-1, -1)]), cw.orthant(2), 1.0, 6))
    def test_same_search(self, case):
        steps, cone, delta, depth = case
        args = (steps, cone, delta * cw.interior_vector(cone), depth)
        want = _search_outcome(ref_steps.interior_path, *args)
        assert _search_outcome(cw.steps._interior_path, *args) == want
        if isinstance(want, str):
            return
        admitted = len(ref_steps.interior_path(*args)[2])
        for budget in (admitted - 1, admitted):
            with mock.patch.object(cw.steps, "MAX_SEARCH_POINTS", budget):
                want = _search_outcome(ref_steps.interior_path, *args)
                # the origin is admitted before the budget is first checked
                assert isinstance(want, str) == (budget < admitted and admitted > 1)
                assert _search_outcome(cw.steps._interior_path, *args) == want

    def test_corpora(self, proper_2d_corpus, proper_3d_corpus, improper_2d_corpus):
        # the corpora against the certify cones at the first three shifts;
        # every candidate that a level can form gets the verdicts of
        # `cones.contains` and `cones.strictly_contains` from the row tests
        ineq = {2: [(2, -1), (-1, 2)], 3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1)]}
        for steps in proper_2d_corpus + proper_3d_corpus + improper_2d_corpus:
            steps = np.array(steps, dtype=np.int64)
            d = steps.shape[1]
            depth = cw.steps.default_h3_depth(steps)
            for cone in (cw.orthant(d), cw.halfspace(np.ones(d)), cw.inequalities(ineq[d])):
                for delta in counting.DELTA_GRID[:3]:
                    shift = delta * cw.interior_vector(cone)
                    path, truncated, parents = ref_steps.interior_path(steps, cone, shift, depth)
                    assert cw.steps._interior_path(steps, cone, shift, depth) == (path, truncated)
                    X = (np.array(list(parents))[:, None, :] + steps).reshape(-1, d)
                    assert cones._contains_rows(cone, X + shift).tolist() == [
                        cw.contains(cone, x + shift) for x in X]
                    assert cones._strictly_contains_rows(cone, X.astype(float)).tolist() == [
                        cw.strictly_contains(cone, x.astype(float)) for x in X]

    def test_budget_at_depth_3000(self):
        # {+-e1, +-e2, -e3} never reaches the interior of Q: the search fills
        # the quarter plane z = 0 until it passes the budget at depth 255
        flat = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, -1)]
        with pytest.raises(ValueError, match="budget"):
            cw.check_h3(flat, 3000)


class TestSearchOverflow:
    # a = (2**62, 0) and b: the walk (a, a, b) ends inside Q, but a + a is
    # 2**63, which wrapped to -2**63 in int64; Q refused that point, and both
    # searches once answered a definitive no
    WRAPS = [(2**62, 0), (-2**62 - 2**61 + 1, 2**62)]

    def test_check_h3_refuses(self):
        with pytest.raises(ValueError, match="would reach 2"):
            cw.check_h3(self.WRAPS, 6)

    def test_find_delta_refuses(self):
        with pytest.raises(ValueError, match="would reach 2"):
            counting.find_delta(self.WRAPS, cw.orthant(2))

    def test_large_steps_inside_the_range(self):
        # max |frontier| + max |step| stays at 2**62 on each axis
        steps = [(2**61, 0), (0, 2**61), (-1, -1)]
        assert sorted(cw.check_h3(steps, 4).path) == [(0, 2**61), (2**61, 0)]
        assert counting.find_delta(steps, cw.orthant(2)).found


# each wrapped or slipped through an unchecked cast to int64
BAD_LATTICE_STEPS = {
    "past int64": [(1e19, 0), (0, 1), (-1, -1)],
    "at 2**63": [(2.0**63, 0), (0, 1), (-1, -1)],
    "python int past int64": [(10**20, 0), (0, 1), (-1, -1)],
    "unsigned past int64": np.array([(2**64 - 1, 0), (0, 1)], dtype=np.uint64),
    "infinite": [(np.inf, 0), (0, 1), (-1, -1)],
    "nan": [(np.nan, 0), (0, 1), (-1, -1)],
    "fractional": [(0.5, 0), (0, 1), (-1, -1)],
}


class TestLatticeSteps:
    """One validator serves every lattice entry point."""

    @pytest.mark.parametrize("case", sorted(BAD_LATTICE_STEPS))
    def test_refused_by_every_entry_point(self, case):
        steps = BAD_LATTICE_STEPS[case]
        calls = (lambda: cw.check_h3(steps, 4),
                 lambda: cw.find_delta(steps, cw.orthant(2)),
                 lambda: cw.count_walks(steps, (0, 0), 3),
                 lambda: cw.end_point_counts(steps, (0, 0), 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match="lattice steps"):
                    call()

    def test_int64_range_accepted(self):
        steps = [(2**62, 0), (0, 1), (-1, -1)]
        out = cw.steps.as_lattice_steps(steps)
        assert out.dtype == np.int64 and out.tolist() == [list(s) for s in steps]
        assert cw.steps.as_lattice_steps(np.array(steps, dtype=float)).tolist() == out.tolist()


class TestTilt:
    def test_identity_at_zero(self):
        m = cw.from_step_set(NSEW)
        t = cw.tilt(m, [0.0, 0.0])
        assert np.array_equal(t.weights, m.weights)

    def test_centers_the_1d_law(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        t = cw.tilt(m, [0.5 * np.log(3.0)])
        assert np.allclose(t.weights, [0.5, 0.5], atol=1e-15)
        assert abs(cw.mean(t)[0]) <= 1e-15

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        m = cw.probability_measure([(1, 0), (0, 1), (-1, -1)], [0.2, 0.3, 0.5])
        for _ in range(20):
            z = rng.normal(size=2)
            back = cw.tilt(cw.tilt(m, z), -z)
            assert np.allclose(back.weights, m.weights, atol=1e-12)
            assert np.array_equal(back.steps, m.steps)

    def test_tilted_mean_is_normalized_gradient(self):
        rng = np.random.default_rng(3)
        m = cw.from_step_set(HALFSPACE_MODEL)
        model = cw.FiniteLaplace(m)
        for _ in range(20):
            z = rng.normal(size=2)
            lhs = cw.mean(cw.tilt(m, z))
            rhs = cw.gradient(model, z) / cw.value(model, z)
            assert np.allclose(lhs, rhs, atol=1e-10)

    def test_overflow_guard(self):
        m = cw.probability_measure([(1,), (-1,)], [0.5, 0.5])
        with pytest.raises(OverflowError):
            cw.tilt(m, [800.0])
        with pytest.raises(ValueError, match="length 1"):
            cw.tilt(m, [0.0, 0.0])
        # a non-finite point is refused by name, not passed on as NaN weights
        s5 = cw.probability_measure([(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1)], [0.2] * 5)
        for z in ([np.nan, 0.1], [np.inf, 0.1], [-np.inf, 0.1], [0.0, np.inf]):
            with pytest.raises(ValueError, match="non-finite point"):
                cw.tilt(s5, z)
        with pytest.raises(ValueError, match="non-finite point"):
            cw.cramer_identity_check(s5, [np.nan, 0.1], (1, 1), 3)

    def test_weights_are_the_transform_terms(self, proper_2d_corpus):
        # w e^{S z} / sum, bit for bit, from the terms the transform reads
        rng = np.random.default_rng(5)
        for steps in proper_2d_corpus[:10]:
            m = cw.from_step_set(steps)
            z = rng.normal(size=2)
            w = m.weights * np.exp(m.steps @ z)
            assert cw.tilt(m, z).weights.tobytes() == (w / w.sum()).tobytes()

    def test_preserves_support_and_positivity(self, proper_2d_corpus):
        rng = np.random.default_rng(4)
        for steps in proper_2d_corpus[:10]:
            m = cw.from_step_set(steps)
            z = rng.normal(size=2)
            t = cw.tilt(m, z)
            assert np.array_equal(t.steps, m.steps)
            assert np.all(t.weights > 0)
            assert abs(t.weights.sum() - 1.0) <= 1e-12


def _cone(kind, vectors):
    d = len(vectors[0])
    return {"orthant": lambda: cw.orthant(d), "halfspace": lambda: cw.halfspace(vectors[0]),
            "ineq": lambda: cw.inequalities(vectors), "rays": lambda: cw.generated(vectors)}[kind]()


@st.composite
def _h2_cases(draw):
    """Steps in {-2..2}^d, a solid cone of any kind, a step order and an axis
    permutation."""
    d = draw(st.integers(1, 3))
    vector = st.sampled_from([v for v in itertools.product(range(-2, 3), repeat=d) if any(v)])
    steps = draw(st.lists(vector, min_size=2, max_size=7, unique=True))
    kind = draw(st.sampled_from(["orthant", "halfspace", "ineq", "rays"]))
    vectors = draw(st.lists(vector, min_size=1, max_size=3, unique=True).filter(
        lambda vs: cw.has_interior(_cone(kind, vs))))
    return (steps, kind, vectors, draw(st.permutations(range(len(steps)))),
            draw(st.permutations(range(d))))


def _verdicts(steps, cone):
    m = cw.from_step_set(steps)
    h2 = cw.check_h2prime(m, cone)
    gmin = cw.has_global_min_on_cone(cw.FiniteLaplace(m), cw.dual(cone)) if cw.check_h1(m) else None
    return h2.proper, gmin, h2.witness


def _valid_witness(u, steps, cone):
    """u in K*, unit l1 norm, with every step in {<u, .> <= 0}."""
    return (cw.contains(cw.dual(cone), u) and abs(np.abs(u).sum() - 1.0) <= 1e-12
            and float((np.asarray(steps) @ u).max()) <= 1e-10)


class TestH2PrimeInvariance:
    """H2' and the global-minimum test do not see the order of the steps or
    of the coordinates. The witness is a vertex of the feasibility LP, which
    Bland's rule picks by column order: it stays a valid witness under
    reordering, not the same one."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_h2_cases())
    @example((HALFSPACE_MODEL, "orthant", [(1, 0)], [2, 0, 1], [1, 0]))
    def test_permutations(self, case):
        steps, kind, vectors, order, perm = case
        cone = _cone(kind, vectors)
        proper, gmin, _ = _verdicts(steps, cone)
        reordered = [steps[i] for i in order]
        permuted_steps = np.array(steps)[:, perm]
        permuted_cone = _cone(kind, np.array(vectors)[:, perm])
        for other_steps, other_cone in ((reordered, cone), (permuted_steps, permuted_cone)):
            other = _verdicts(other_steps, other_cone)
            assert other[:2] == (proper, gmin)
            if not proper:
                assert _valid_witness(other[2], other_steps, other_cone)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_h2_cases(), st.floats(-12.0, 12.0), st.integers(-40, 40))
    @example((NSEW_SW, "orthant", [(1, 0)], [0, 1, 2, 3, 4], [0, 1]), -9.0, -30)
    @example((NSEW_SW, "ineq", [(2, -1), (-1, 2)], [0, 1, 2, 3, 4], [0, 1]), -13.0, 30)
    def test_scaling(self, case, log_c, k):
        # both LPs read steps and rays scaled into [1, 2): a positive scale
        # changes no verdict, and a power of two not even the witness's bits
        steps, kind, vectors, _, _ = case
        base = _verdicts(steps, _cone(kind, vectors))
        for c in (10.0 ** log_c, 2.0 ** k):
            for other in (_verdicts(c * np.array(steps), _cone(kind, vectors)),
                          _verdicts(steps, _cone(kind, c * np.array(vectors)))):
                assert other[:2] == base[:2]
                if c == 2.0 ** k and not base[0]:
                    assert other[2].tobytes() == base[2].tobytes()

    def test_cone_without_interior_refused(self):
        # K* of the ray (1, 0) holds a line, on which the phase-1 LP can stop
        # at u = 0; the set is then neither proper nor improper for the rate
        for cone in (cw.generated([[1, 0]]), cw.inequalities([[1, 0], [-1, 0]])):
            with pytest.raises(cw.ConeError, match="non-empty interior"):
                cw.check_h2prime(cw.from_step_set(NSEW), cone)
