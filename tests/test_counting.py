import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conewalks as cw
from conewalks import counting

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]
HS_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])


def brute_totals(steps, start, n, weights=None):
    """Independent oracle: enumerate all |S|^n step sequences."""
    steps = [np.array(s) for s in steps]
    totals = []
    for length in range(n + 1):
        total = 0.0 if weights is not None else 0
        for seq in itertools.product(range(len(steps)), repeat=length):
            pos = np.array(start)
            ok = True
            for i in seq:
                pos = pos + steps[i]
                if np.any(pos < 0):
                    ok = False
                    break
            if ok:
                if weights is None:
                    total += 1
                else:
                    w = 1.0
                    for i in seq:
                        w *= weights[i]
                    total += w
        totals.append(total)
    return totals


class TestCountWalks:
    def test_nsew_hand_counts(self):
        series = cw.count_walks(NSEW, (0, 0), 6, mode="exact")
        assert series.values == (1, 2, 6, 18, 60, 200, 700)

    def test_empty_walk_is_one(self):
        for steps in (NSEW, [(1, 1)], HALFSPACE_MODEL):
            series = cw.count_walks(steps, (0, 0), 0, mode="exact")
            assert series.values[0] == 1

    def test_halfspace_survival_dies_from_origin(self):
        series = cw.count_walks(HALFSPACE_MODEL, (0, 0), 3, weights=HS_WEIGHTS)
        assert series.float_value(1) == 0.0

    def test_halfspace_survival_pattern_from_interior(self):
        # Markov-chain oracle: survival from (1,1) equals (2/9)^k at times 2k, 2k+1
        series = cw.count_walks(HALFSPACE_MODEL, (1, 1), 11, weights=HS_WEIGHTS)
        for k in range(6):
            expected = (2.0 / 9.0) ** k
            assert abs(series.float_value(2 * k) - expected) <= 1e-14 * expected
            if 2 * k + 1 <= 11:
                assert abs(series.float_value(2 * k + 1) - expected) <= 1e-14 * expected

    @pytest.mark.parametrize("steps,start", [
        (NSEW, (0, 0)),
        (NSEW_SW, (1, 1)),
        (HALFSPACE_MODEL, (1, 1)),
        ([(2, 0), (0, 3), (-1, -1)], (0, 0)),
        ([(1,), (-1,)], (0,)),
    ])
    def test_against_brute_enumeration(self, steps, start):
        n = 7 if len(steps) <= 4 else 6
        series = cw.count_walks(steps, start, n, mode="exact")
        assert list(series.values) == brute_totals(steps, start, n)

    def test_weighted_against_brute_enumeration(self):
        weights = np.array([0.2, 0.3, 0.5])
        steps = [(1, 0), (0, 1), (-1, -1)]
        series = cw.count_walks(steps, (1, 0), 6, weights=weights)
        expected = brute_totals(steps, (1, 0), 6, weights=weights)
        for n, e in enumerate(expected):
            assert abs(series.float_value(n) - e) <= 1e-12 * max(e, 1.0)

    def test_start_outside_orthant_rejected(self):
        with pytest.raises(ValueError):
            cw.count_walks(NSEW, (-1, 0), 3)

    def test_non_lattice_steps_rejected(self):
        with pytest.raises(ValueError):
            cw.count_walks([(0.5, 1.0)], (0, 0), 3)

    def test_exact_mode_requires_unit_weights(self):
        with pytest.raises(ValueError):
            cw.count_walks(NSEW, (0, 0), 3, weights=np.full(4, 0.25), mode="exact")

    def test_exact_and_log_modes_agree(self):
        for steps, start, n in ((NSEW, (1, 1), 200), (NSEW_SW, (0, 0), 150),
                                (HALFSPACE_MODEL, (2, 2), 200)):
            exact = cw.count_walks(steps, start, n, mode="exact")
            logs = cw.count_walks(steps, start, n, mode="log_scaled")
            for m in range(n + 1):
                le, ll = exact.log_value(m), logs.log_value(m)
                if le is None:
                    assert ll is None
                else:
                    assert abs(le - ll) <= 1e-12 * max(1.0, abs(le))

    def test_probability_counting_identity(self):
        # survival under the uniform law times |S|^n equals the exact count
        for steps in (NSEW, NSEW_SW):
            k = len(steps)
            exact = cw.count_walks(steps, (1, 1), 50, mode="exact")
            prob = cw.count_walks(steps, (1, 1), 50, weights=np.full(k, 1.0 / k))
            for n in range(51):
                lhs = prob.log_value(n) + n * math.log(k)
                assert abs(lhs - exact.log_value(n)) <= 1e-10 * max(1.0, abs(lhs))

    def test_survival_monotone(self, proper_2d_corpus):
        for steps in proper_2d_corpus[:8]:
            k = len(steps)
            series = cw.count_walks(steps, (1, 1), 120, weights=np.full(k, 1.0 / k))
            prev = 1.0
            for n in range(121):
                cur = series.float_value(n)
                assert cur <= prev * (1.0 + 1e-12)
                prev = cur


class TestEndpointCounts:
    def test_binomial_paths(self):
        counts = cw.end_point_counts([(0, 1), (1, 0)], (0, 0), None, 2)
        assert counts == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_zero_steps_is_start(self):
        counts = cw.end_point_counts(NSEW, (3, 4), None, 0)
        assert counts == {(3, 4): 1}

    def test_sum_matches_totals(self, proper_2d_corpus):
        for steps in proper_2d_corpus[:20]:
            series = cw.count_walks(steps, (1, 1), 6, mode="exact")
            layer = cw.end_point_counts(steps, (1, 1), None, 6)
            assert sum(layer.values()) == series.values[6]


class TestEstimateRate:
    def test_drift_in_cone_rate_one(self):
        series = cw.count_walks(NSEW, (1, 1), 400, weights=np.full(4, 0.25))
        est = cw.estimate_rate(series)
        assert 0.995 <= est.extrapolated <= 1.0 + 1e-9

    def test_halfspace_model_proposition_rate(self):
        series = cw.count_walks(HALFSPACE_MODEL, (1, 1), 1500, weights=HS_WEIGHTS)
        est = cw.estimate_rate(series)
        assert est.period == 2
        assert abs(est.extrapolated - math.sqrt(2.0) / 3.0) <= 5e-3

    def test_dead_walk_reports_zero(self):
        series = cw.count_walks([(-1, -1)], (5, 5), 10)
        est = cw.estimate_rate(series)
        assert est.extrapolated == 0.0 and est.raw_ratio == 0.0

    def test_negative_drift_1d_rate(self):
        series = cw.count_walks([(1,), (-1,)], (0,), 2000,
                                weights=np.array([0.25, 0.75]))
        est = cw.estimate_rate(series)
        assert abs(est.extrapolated - math.sqrt(3.0) / 2.0) <= 5e-3

    def test_start_independence_for_proper_model(self):
        rates = []
        for start in ((1, 1), (2, 2), (3, 1)):  # interior starting points
            series = cw.count_walks(NSEW_SW, start, 800, weights=np.full(5, 0.2))
            rates.append(cw.estimate_rate(series).extrapolated)
        assert max(rates) - min(rates) <= 2e-2

    def test_start_dependence_for_halfspace_model(self):
        r = {}
        for start in ((1, 1), (2, 2)):
            series = cw.count_walks(HALFSPACE_MODEL, start, 1200, weights=HS_WEIGHTS)
            r[start] = cw.estimate_rate(series).extrapolated
        expected_11 = (2.0 / 3.0) * math.cos(math.pi / 4.0)
        expected_22 = (2.0 / 3.0) * math.cos(math.pi / 6.0)
        assert abs(r[(1, 1)] - expected_11) <= 5e-3
        assert abs(r[(2, 2)] - expected_22) <= 5e-3
        assert r[(1, 1)] < r[(2, 2)]

    def test_dp_rate_dominated_by_upper_bounds(self):
        rng = np.random.default_rng(31)
        m = cw.from_step_set(NSEW_SW)
        model = cw.FiniteLaplace(m)
        series = cw.count_walks(NSEW_SW, (1, 1), 800, weights=m.weights)
        rate = cw.estimate_rate(series).extrapolated
        for _ in range(100):
            z = np.abs(rng.normal(size=2))
            assert rate <= cw.upper_bound_at(model, cw.orthant(2), z) + 5e-3


class TestCramerIdentity:
    def test_zero_tilt_is_exact(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        assert cw.cramer_identity_check(m, [0.0], (0,), None, 20) == 0.0

    def test_1d_tilt_at_minimizer(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        err = cw.cramer_identity_check(m, [0.5 * math.log(3.0)], (0,), None, 20)
        assert err <= 1e-10

    def test_2d_tilt_at_minimizer(self):
        m = cw.from_step_set(NSEW_SW)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(2))
        err = cw.cramer_identity_check(m, cert.x_star, (1, 1), None, 15)
        assert err <= 1e-9

    def test_horizon_capped(self):
        m = cw.from_step_set(NSEW)
        with pytest.raises(ValueError):
            cw.cramer_identity_check(m, [0.0, 0.0], (0, 0), None, 31)


class TestFindDelta:
    def test_nsew_zero_delta(self):
        res = cw.find_delta(NSEW, cw.orthant(2))
        assert res.found and res.delta == 0.0 and res.n0 == 2
        assert sorted(res.path) == [(0, 1), (1, 0)]

    def test_diagonal_singleton(self):
        res = cw.find_delta([(1, 1)], cw.orthant(2))
        assert res.found and res.delta == 0.0 and res.n0 == 1

    def test_halfspace_model_not_found_with_witness(self):
        res = cw.find_delta(HALFSPACE_MODEL, cw.orthant(2))
        assert not res.found
        assert np.allclose(res.h2_witness, [0.5, 0.5], atol=1e-9)

    def test_positive_delta_needed(self):
        # every first step leaves Q, but K_{-1} tolerates it and the walk
        # can then climb back into the interior
        steps = [(2, -1), (-1, 2)]
        res0 = cw.check_h3(steps, 8)
        assert not res0.ok  # from the origin both steps exit Q immediately
        res = cw.find_delta(steps, cw.orthant(2), delta_grid=(0.0, 1.0, 2.0))
        assert res.found
        assert res.delta == 1.0
        # replay the witness: stays in Q - delta*(1,1), ends strictly inside Q
        pos = np.zeros(2)
        for s in res.path:
            pos += s
            assert np.all(pos + res.delta * np.ones(2) >= 0)
        assert np.all(pos > 0)

    def test_path_replay_on_corpus(self, proper_2d_corpus):
        for steps in proper_2d_corpus[:10]:
            res = cw.find_delta(steps, cw.orthant(2))
            if not res.found:
                continue
            pos = np.zeros(2)
            for s in res.path:
                pos += s
                assert np.all(pos + res.delta * np.ones(2) >= -1e-12)
            assert np.all(pos > 0)
            assert res.n0 == len(res.path)


def _small_step_sets(d):
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    return st.lists(st.sampled_from(vectors), min_size=1, max_size=6, unique=True)


INEQUALITY_CONE = {2: [[2, -1], [-1, 2]], 3: [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]]}


class TestFindDeltaProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from([2, 3]).flatmap(_small_step_sets))
    def test_h2prime_witness_and_h3_agree(self, steps):
        d = len(steps[0])
        m = cw.from_step_set(steps)
        for cone in (cw.orthant(d), cw.halfspace([1.0] * d), cw.inequalities(INEQUALITY_CONE[d])):
            h2 = cw.check_h2prime(m, cone)
            if not h2.proper:
                res = cw.find_delta(steps, cone)
                assert not res.found
                assert np.array_equal(res.h2_witness, h2.witness)
        h3 = cw.check_h3(steps)
        res = cw.find_delta(steps, cw.orthant(d))
        assert h3.ok == (res.found and res.delta == 0.0)
        if h3.ok:
            assert res.path == h3.path
