import hashlib
import itertools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import conewalks as cw
import reference_montecarlo as ref_mc
from conewalks import montecarlo as mc

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]
ENSWS = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)]
D3_DRIFT_OUT = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1), (-1, -1, -1)]
NBHD_3D = [v for v in itertools.product((-1, 0, 1), repeat=3) if any(v)]
Q2 = cw.orthant(2)


class TestPlainSurvival:
    def test_never_exits(self):
        m = cw.from_step_set([(1, 1)])
        res = cw.simulate_survival(m, (0, 0), Q2, cw.SimConfig(seed=0, trials=2000, n=25))
        assert res.estimate == 1.0 and res.stderr == 0.0

    def test_forced_exit(self):
        m = cw.from_step_set([(-1, -1)])
        res = cw.simulate_survival(m, (2, 2), Q2, cw.SimConfig(seed=0, trials=500, n=5))
        assert res.estimate == 0.0

    def test_matches_dp_oracle_1d(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        dp = cw.count_walks([(1,), (-1,)], (5,), 50, weights=np.array([0.25, 0.75]))
        truth = dp.float_value(50)
        res = cw.simulate_survival(m, (5,), cw.orthant(1),
                                   cw.SimConfig(seed=1, trials=100000, n=50))
        assert abs(res.estimate - truth) <= 4.0 * res.stderr

    def test_matches_dp_oracle_halfspace_model(self):
        # horizon kept where the survival (2/9)^4 is estimable by plain MC
        m = cw.from_step_set(HALFSPACE_MODEL)
        dp = cw.count_walks(HALFSPACE_MODEL, (1, 1), 8, weights=m.weights)
        truth = dp.float_value(8)
        res = cw.simulate_survival(m, (1, 1), Q2, cw.SimConfig(seed=3, trials=200000, n=8))
        assert res.stderr > 0.0
        assert abs(res.estimate - truth) <= 4.0 * res.stderr

    @pytest.mark.parametrize("up", [2**62, 1e19])
    def test_huge_lattice_steps_do_not_wrap(self, up):
        # a walk survives exactly when its first step is up; int64 would wrap
        # 2**62 after two up-steps and cast 1e19 to -2**63
        m = cw.probability_measure([(up,), (-1,)], [0.5, 0.5])
        res = cw.simulate_survival(m, (0,), cw.orthant(1), cw.SimConfig(seed=0, trials=4000, n=20))
        assert abs(res.estimate - 0.5) <= 4.0 * res.stderr

    def test_start_at_int64_minimum_does_not_wrap(self):
        # |-2**63| wraps to -2**63 in int64, which once passed the lattice
        # guard, so the walk ran in int64 and wrapped to large positive
        # positions: no walker can leave {x <= 0} in 3 steps from there
        res = cw.simulate_survival(cw.from_step_set([[1], [-1]]), np.array([-2**63]),
                                   cw.inequalities([[-1]]), cw.SimConfig(seed=0, trials=8, n=3))
        assert res == mc.SimResult(1.0, 0.0)

    def test_bit_identical_reproducibility(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        cfg = cw.SimConfig(seed=7, trials=5000, n=30)
        a = cw.simulate_survival(m, (5,), cw.orthant(1), cfg)
        b = cw.simulate_survival(m, (5,), cw.orthant(1), cfg)
        assert a == b
        c = cw.simulate_survival(m, (5,), cw.orthant(1), cw.SimConfig(seed=8, trials=5000, n=30))
        assert c.estimate != a.estimate


class TestTiltedSurvival:
    def test_zero_tilt_reduces_to_plain(self):
        # drift in the cone: x* = 0 and the reweighting is the constant 1
        m = cw.from_step_set(NSEW)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), Q2)
        assert np.allclose(cert.x_star, 0.0)
        cfg = cw.SimConfig(seed=5, trials=20000, n=40)
        tilted = cw.tilted_survival(m, cert, (2, 2), Q2, cfg)
        plain = cw.simulate_survival(m, (2, 2), Q2, cfg)
        assert tilted.estimate == plain.estimate
        assert tilted.stderr == plain.stderr

    def test_unbiased_and_tighter_than_plain(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(1))
        dp = cw.count_walks([(1,), (-1,)], (3,), 60, weights=np.array([0.25, 0.75]))
        truth = dp.float_value(60)
        cfg = cw.SimConfig(seed=1, trials=100000, n=60)
        tilted = cw.tilted_survival(m, cert, (3,), cw.orthant(1), cfg)
        plain = cw.simulate_survival(m, (3,), cw.orthant(1), cfg)
        assert abs(tilted.estimate - truth) <= 4.0 * tilted.stderr
        assert tilted.stderr < plain.stderr

    def test_seeded_repetitions_cover_truth(self):
        m = cw.probability_measure([(1,), (-1,)], [0.4, 0.6])
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(1))
        dp = cw.count_walks([(1,), (-1,)], (2,), 40, weights=np.array([0.4, 0.6]))
        truth = dp.float_value(40)
        hits = 0
        reps = 100
        for seed in range(reps):
            res = cw.tilted_survival(m, cert, (2,), cw.orthant(1),
                                     cw.SimConfig(seed=seed, trials=4000, n=40))
            if abs(res.estimate - truth) <= 4.0 * res.stderr:
                hits += 1
        assert hits >= 95

    def test_plain_and_tilted_agree(self, proper_2d_corpus):
        for steps in proper_2d_corpus[:10]:
            m = cw.from_step_set(steps)
            cert = cw.minimize_on_dual(cw.FiniteLaplace(m), Q2)
            cfg = cw.SimConfig(seed=11, trials=30000, n=30)
            a = cw.tilted_survival(m, cert, (1, 1), Q2, cfg)
            b = cw.simulate_survival(m, (1, 1), Q2, cfg)
            band = 4.0 * math.hypot(a.stderr, b.stderr)
            assert abs(a.estimate - b.estimate) <= max(band, 1e-12)


class TestBandSurvival:
    def test_degenerate_diagonal_band_always_inside(self):
        m = cw.from_step_set([(1, 1)])
        res = cw.band_survival(m, (0, 0), Q2, (1, -1), 4.0,
                               cw.SimConfig(seed=0, trials=200, n=12))
        assert res.estimate == 1.0
        res0 = cw.band_survival(m, (0, 0), Q2, (1, -1), 0.0,
                                cw.SimConfig(seed=0, trials=200, n=12))
        assert res0.estimate == 1.0 and res0.alpha_flagged

    def test_zero_alpha_flagged_and_collapsing(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        res = cw.band_survival(m, (0, 0), Q2, (1, -1), 0.0,
                               cw.SimConfig(seed=0, trials=20000, n=400))
        assert res.alpha_flagged
        assert res.estimate < 0.1

    def test_requires_drift_in_cone(self):
        m = cw.from_step_set(HALFSPACE_MODEL)  # drift (-1/3, -1/3) leaves Q
        with pytest.raises(ValueError):
            cw.band_survival(m, (1, 1), Q2, (1, -1), 4.0, cw.SimConfig(seed=0, trials=10, n=5))

    def test_requires_orthogonal_direction(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        with pytest.raises(ValueError):
            cw.band_survival(m, (0, 0), Q2, (1, 1), 4.0, cw.SimConfig(seed=0, trials=10, n=5))

    def test_fitted_decay_near_one_for_degenerate_diagonal_walk(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        fit = cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 4.0, range(100, 401, 100),
                                cw.SimConfig(seed=0, trials=20000, n=400))
        assert fit.per_step_decay >= 0.99

    def test_zero_estimate_reports_zero_decay(self):
        # {(1,0),(0,1)} ends on x = y only at even horizons, so the alpha = 0
        # band is empty at horizon 3
        m = cw.from_step_set([(1, 0), (0, 1)])
        fit = cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 0.0, (2, 3),
                                cw.SimConfig(seed=0, trials=100, n=3))
        assert fit.per_step_decay == 0.0
        assert fit.series[0][1] > 0.0 and fit.series[1][1] == 0.0

    def test_band_statistic_matches_exact_law(self):
        # {(1,0),(0,1)} never leaves the orthant, so the band probability at
        # k is the endpoint mass of |x - y| <= sqrt(k), about 0.7 at alpha = 1
        m = cw.from_step_set([(1, 0), (0, 1)])
        horizons = (50, 100, 200, 400)
        exact = {}
        for k in horizons:
            ends = cw.end_point_counts(m.steps, (0, 0), k, weights=m.weights)
            exact[k] = sum(p for (x, y), p in ends.items() if abs(x - y) <= math.sqrt(k))
        trials = 4096
        for seed in range(5):
            fit = cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 1.0, horizons,
                                    cw.SimConfig(seed=seed, trials=trials, n=400))
            for k, est, _ in fit.series:
                p = exact[k]
                assert abs(trials * est - trials * p) <= 6.0 * math.sqrt(trials * p * (1 - p)) + 1

    def test_alpha_default_scale(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        # covariance eigenvalues are 0 and 1/2
        assert abs(cw.default_band_alpha(m) - 4.0 * math.sqrt(0.5)) <= 1e-12

    def test_alpha_sensitivity_report(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        out = cw.band_alpha_sensitivity(m, (0, 0), Q2, (1, -1), range(50, 201, 50),
                                        cw.SimConfig(seed=0, trials=5000, n=200))
        assert set(out) == {2.0, 4.0, 8.0}
        assert out[8.0].per_step_decay >= out[2.0].per_step_decay - 0.05


class TestConfigValidation:
    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            cw.SimConfig(seed=0, trials=0, n=5)
        with pytest.raises(ValueError):
            cw.SimConfig(seed=0, trials=10, n=0)

    @pytest.mark.parametrize("field", [{"trials": 10.0}, {"n": 5.5}, {"trials": "10"},
                                       {"seed": 1.5}, {"seed": -1}, {"seed": 2**128}, {"n": True}])
    def test_non_integer_or_out_of_range_config_rejected(self, field):
        kwargs = {"seed": 0, "trials": 10, "n": 5, **field}
        with pytest.raises(ValueError):
            cw.SimConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = cw.SimConfig(seed=np.int64(3), trials=np.int32(10), n=np.int64(5))
        res = cw.simulate_survival(cw.from_step_set(NSEW), (1, 1), Q2, cfg)
        assert res == cw.simulate_survival(cw.from_step_set(NSEW), (1, 1), Q2,
                                           cw.SimConfig(seed=3, trials=10, n=5))

    @pytest.mark.parametrize("start, cone", [((-1, 3), Q2), ((-1, 0), cw.halfspace((1, 1))),
                                             ((0, 3), cw.inequalities([[2, -1], [-1, 2]]))])
    def test_start_outside_cone_rejected(self, start, cone):
        m = cw.from_step_set([(1, 0), (0, 1)])
        cfg = cw.SimConfig(seed=0, trials=100, n=5)
        with pytest.raises(ValueError, match="outside the cone"):
            cw.simulate_survival(m, start, cone, cfg)
        with pytest.raises(ValueError, match="outside the cone"):
            cw.band_survival(m, start, cone, (1, -1), 4.0, cfg)

    @pytest.mark.parametrize("start", [(1e6, -1e-4), (np.inf, -1.0), (np.nan, 1.0)])
    def test_far_or_non_finite_start_rejected(self, start):
        # the start tolerance is absolute: a large first coordinate does not
        # excuse a second one well outside
        with pytest.raises(ValueError):
            cw.simulate_survival(cw.from_step_set(NSEW), start, Q2, cw.SimConfig(seed=0, trials=10, n=5))

    def test_generated_cone_matches_its_inequalities(self):
        # the normals of the cone generated by (1, 0) and (1, 1) are derived
        cfg, m = cw.SimConfig(seed=0, trials=200, n=15), cw.from_step_set(NSEW)
        gen = cw.simulate_survival(m, (3, 1), cw.generated([[1, 0], [1, 1]]), cfg)
        ineq = cw.simulate_survival(m, (3, 1), cw.inequalities([[0, 1], [1, -1]]), cfg)
        assert (gen.estimate, gen.stderr) == (ineq.estimate, ineq.stderr)
        assert 0.0 < gen.estimate < 1.0
        # in 4-D the normals are derived: the orthant's walk, draw for draw
        m4 = cw.from_step_set(np.vstack([np.eye(4), -np.eye(4)]))
        gen = cw.simulate_survival(m4, (1, 1, 1, 1), cw.generated(np.eye(4)), cfg)
        orth = cw.simulate_survival(m4, (1, 1, 1, 1), cw.orthant(4), cfg)
        assert (gen.estimate.hex(), gen.stderr.hex()) == (orth.estimate.hex(), orth.stderr.hex())

    def test_start_outside_cone_rejected_by_tilted(self):
        m = cw.from_step_set(ENSWS)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), Q2)
        with pytest.raises(ValueError, match="outside the cone"):
            cw.tilted_survival(m, cert, (1, -1), Q2, cw.SimConfig(seed=0, trials=100, n=5))

    @pytest.mark.parametrize("start", [(1,), (1, 1, 1), 1])
    def test_start_of_wrong_length_rejected(self, start):
        m = cw.from_step_set(NSEW)
        with pytest.raises(ValueError, match="length 2"):
            cw.simulate_survival(m, start, Q2, cw.SimConfig(seed=0, trials=10, n=5))

    @pytest.mark.parametrize("checkpoints", [(0, 5), (6,), (-1,), (2.5,)])
    def test_checkpoint_outside_horizon_rejected(self, checkpoints):
        m = cw.from_step_set([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="checkpoints"):
            cw.band_survival(m, (0, 0), Q2, (1, -1), 4.0, cw.SimConfig(seed=0, trials=10, n=5),
                             checkpoints=checkpoints)

    @pytest.mark.parametrize("horizons", [(0, 100), (100,), (100, 100), (), (-100, 100)])
    def test_band_decay_fit_needs_two_positive_horizons(self, horizons):
        m = cw.from_step_set([(1, 0), (0, 1)])
        with pytest.raises(ValueError, match="horizons"):
            cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 4.0, horizons,
                              cw.SimConfig(seed=0, trials=10, n=5))



def _hex(res):
    return res.estimate.hex(), res.stderr.hex()


def _tilted_hex(steps, weights, start, config):
    m = cw.probability_measure(steps, weights) if weights else cw.from_step_set(steps)
    cone = cw.orthant(len(steps[0]))
    cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cone)
    return _hex(cw.tilted_survival(m, cert, start, cone, config))


class TestGoldenStream:
    """Seeded outputs pinned bit for bit: draw (step k, trial t) is Philox
    stream position k*T + t, so any change to the stream or to the order of
    float operations on a walker shows up here."""

    def test_band_decay_fit(self):
        m = cw.from_step_set([(1, 0), (0, 1)])
        fit = cw.band_decay_fit(m, (0, 0), Q2, (1, -1), 1.0, range(100, 801, 100),
                                cw.SimConfig(seed=3, trials=2000, n=800))
        assert fit.per_step_decay.hex() == "0x1.fff60a1e772c8p-1"
        assert [(k, e.hex(), s.hex()) for k, e, s in fit.series] == [
            (100, "0x1.80c49ba5e353fp-1", "0x1.3cb7863b3899ap-7"),
            (200, "0x1.722d0e5604189p-1", "0x1.47fbe31dfeb4ap-7"),
            (300, "0x1.57ced916872b0p-1", "0x1.5837f0f22c341p-7"),
            (400, "0x1.74bc6a7ef9db2p-1", "0x1.4621d7d5419ccp-7"),
            (500, "0x1.6c083126e978dp-1", "0x1.4c389c679da6ap-7"),
            (600, "0x1.64189374bc6a8p-1", "0x1.5146b7f6fe37dp-7"),
            (700, "0x1.604189374bc6ap-1", "0x1.538f10caa61cfp-7"),
            (800, "0x1.67ae147ae147bp-1", "0x1.4f0ce95d1ea4cp-7"),
        ]

    def test_tilted_most_walkers_die(self):
        got = _tilted_hex(ENSWS, None, (1, 1), cw.SimConfig(seed=5, trials=4000, n=60))
        assert got == ("0x1.839d6f9428c0dp-12", "0x1.0e5c56d1bac6ep-15")

    def test_tilted_1d(self):
        got = _tilted_hex([(1,), (-1,)], [0.25, 0.75], (3,), cw.SimConfig(seed=1, trials=4000, n=40))
        assert got == ("0x1.637f4c23f6c3cp-11", "0x1.f4c64ac216265p-16")

    def test_tilted_3d(self):
        got = _tilted_hex(D3_DRIFT_OUT, None, (1, 1, 1), cw.SimConfig(seed=2, trials=3000, n=30))
        assert got == ("0x1.af843dbc145ffp-8", "0x1.ce6d7227c915fp-12")

    def test_plain_halfspace_float_start(self):
        res = cw.simulate_survival(cw.from_step_set(ENSWS), (1.5, 0.25), cw.halfspace((0.3, 0.7)),
                                   cw.SimConfig(seed=4, trials=3000, n=25))
        assert _hex(res) == ("0x1.8ead65b7a3284p-6", "0x1.70c8f4bec3261p-9")

    def test_plain_inequalities_float_start(self):
        cone = cw.inequalities([[2, -1], [-1, 2]])
        res = cw.simulate_survival(cw.from_step_set(ENSWS), (1.5, 1.25), cone,
                                   cw.SimConfig(seed=6, trials=3000, n=6))
        assert _hex(res) == ("0x1.89374bc6a7efap-6", "0x1.6e501ac6589c8p-9")

    def test_plain_3d_neighbourhood_unequal_weights(self):
        w = np.arange(1.0, 27.0)
        w[5] = 1e-9
        m = cw.probability_measure(NBHD_3D, w / w.sum())
        res = cw.simulate_survival(m, (1, 1, 1), cw.orthant(3), cw.SimConfig(seed=7, trials=3000, n=20))
        assert _hex(res) == ("0x1.1ba5e353f7ceep-2", "0x1.0bc682fac3c4bp-7")

    def test_plain_only_one_coordinate_can_fall(self):
        m = cw.from_step_set([(1, 0), (0, 1), (0, -1)])
        res = cw.simulate_survival(m, (0, 2), Q2, cw.SimConfig(seed=8, trials=3000, n=50))
        assert _hex(res) == ("0x1.a32846ff513ccp-2", "0x1.263832c50ce0fp-7")

    def test_plain_start_negative_within_tolerance(self):
        # no step decreases y, but y starts at -1e-13: a walker whose first
        # step leaves y there is outside, as with every coordinate tested
        m = cw.from_step_set([(1, 0), (0, 1), (-1, 1)])
        res = cw.simulate_survival(m, (2.0, -1e-13), Q2, cw.SimConfig(seed=12, trials=3000, n=10))
        assert _hex(res) == ("0x1.c5f92c5f92c60p-2", "0x1.2940766cd091ep-7")

    def test_plain_cumulative_weight_reaches_one_early(self):
        m = cw.probability_measure([(1,), (-1,), (-5,)], [0.5, 0.5, 1e-13])
        res = cw.simulate_survival(m, (3,), cw.orthant(1), cw.SimConfig(seed=9, trials=3000, n=30))
        assert _hex(res) == ("0x1.17619f0fb38a9p-1", "0x1.29edd01203d60p-7")

    def test_tilted_20000_walkers(self):
        got = _tilted_hex(ENSWS, None, (2, 1), cw.SimConfig(seed=10, trials=20000, n=50))
        assert got == ("0x1.cfab72dd5133ap-10", "0x1.cee6114929746p-15")

    def test_float_start_that_cannot_exit_moves_step_by_step(self):
        # no walker can leave, but a float start keeps the per-step loop: its
        # positions are running sums, which here round otherwise than
        # start + the integer displacement the counting path would add
        start = np.array([1 / 3, 1 / 3])

        def stat(_k, pos, alive):
            counted = start + np.round(pos - start)
            digest = hashlib.sha256(pos.tobytes()).hexdigest()[:16]
            return digest, alive.all(), np.array_equal(pos, counted)

        m = cw.probability_measure([(1, 0), (0, 1)], [0.25, 0.75])
        got = mc._simulate(m, start, Q2, cw.SimConfig(seed=13, trials=50, n=30), {10, 30}, stat)
        assert got == {10: ("f58609440eab6a99", True, False), 30: ("d05aeb48ab55e800", True, False)}

    @pytest.mark.parametrize("seed, trials, pinned", [
        (11, 5, ("0x1.999999999999ap-3", "0x1.999999999999ap-3")),
        (93, 8, ("0x0.0p+0", "0x0.0p+0")),
    ])
    def test_lone_walker_on_non_integer_boundary(self, seed, trials, pinned):
        # walkers on the line x + y = 0 of a non-integer normal are judged by
        # the sign of a rounding error; the last walker alive must be judged
        # as it was among all T rows
        res = cw.simulate_survival(cw.from_step_set(NSEW), (1, 1), cw.halfspace((0.1, 0.1)),
                                   cw.SimConfig(seed=seed, trials=trials, n=40))
        assert _hex(res) == pinned


def _searchsorted_steps(raw, weights):
    """The step rule on doubles that the raw-word thresholds replace."""
    u = (raw >> np.uint64(11)) * 2**-53
    idx = np.searchsorted(np.cumsum(weights), u, side="right")
    return np.minimum(idx, len(weights) - 1)


def _unequal_26():
    w = np.arange(1.0, 27.0)
    w[5] = 1e-9
    return w / w.sum()


SELECTION_LAWS = [
    [1.0],
    [0.5, 0.5],
    [1 / 7] * 7,
    [1 / 26] * 26,
    list(_unequal_26()),
    [1e-12, 0.5 - 1e-12, 0.5],
    [0.5, 0.5, 1e-13],
    [0.25, 0.75],
    [1 / 300] * 300,  # a uint16 step index
]
SELECTION_IDS = ["1", "2", "7", "26", "26-unequal", "1e-12-first", "sum-1-early", "quarter", "300"]


class TestStepSelection:
    @pytest.mark.parametrize("weights", SELECTION_LAWS, ids=SELECTION_IDS)
    def test_thresholds_match_searchsorted_on_boundary_words(self, weights):
        top = 2**64 - 1
        thresholds = mc._step_thresholds(np.array(weights))
        words = {0, top}
        for t in thresholds.tolist():
            words.update(t + d for d in (-2048, -1, 0, 1, 2048))
        # the words around each cumulative weight, found without the thresholds
        for c in np.cumsum(weights).tolist():
            base = int(c * 2**53)
            words.update(((base + j) << 11) + low for j in (-1, 0, 1, 2) for low in (0, 2047))
        raw = np.array(sorted(w for w in words if 0 <= w <= top), dtype=np.uint64)
        got = mc._choose_steps(raw, thresholds)
        assert got.tolist() == _searchsorted_steps(raw, weights).tolist()
        assert got.max() <= len(weights) - 1

    @pytest.mark.parametrize("weights", SELECTION_LAWS, ids=SELECTION_IDS)
    def test_thresholds_match_searchsorted_on_random_words(self, weights):
        raw = np.random.Philox(key=len(weights)).random_raw(50000)
        got = mc._choose_steps(raw, mc._step_thresholds(np.array(weights)))
        assert got.tolist() == _searchsorted_steps(raw, weights).tolist()

    @pytest.mark.parametrize("key", [0, 1, 2**64 + 3, 2**128 - 1])
    def test_generator_double_is_the_top_53_bits_of_the_raw_word(self, key):
        # the selection rule rests on this identity of numpy's Philox stream
        gen = np.random.Generator(np.random.Philox(key=key))
        bits = np.random.Philox(key=key)
        for trials in (1000, 7, 4096):
            u = gen.random(trials)
            raw = bits.random_raw(trials)
            assert u.tobytes() == ((raw >> np.uint64(11)) * 2**-53).tobytes()


@st.composite
def _walk_cases(draw):
    d = draw(st.sampled_from([2, 3]))
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=6, unique=True))
    coord = st.one_of(st.integers(0, 3), st.floats(0.0, 3.0, allow_nan=False))
    start = tuple(draw(st.lists(coord, min_size=d, max_size=d)))
    perm = draw(st.permutations(range(d)))
    seed = draw(st.integers(0, 2**32 - 1))
    return steps, start, perm, seed


class TestSimulationProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_walk_cases())
    def test_orthant_path_and_coordinate_permutation(self, case):
        steps, start, perm, seed = case
        d = len(start)
        cfg = cw.SimConfig(seed=seed, trials=300, n=20)
        res = cw.simulate_survival(cw.from_step_set(steps), start, cw.orthant(d), cfg)
        # the per-coordinate orthant test against the generic inequality one
        generic = cw.simulate_survival(cw.from_step_set(steps), start, cw.inequalities(np.eye(d)), cfg)
        assert _hex(generic) == _hex(res)
        # the orthant is symmetric under permuting coordinates
        permuted = cw.simulate_survival(cw.from_step_set([[s[i] for i in perm] for s in steps]),
                                        [start[i] for i in perm], cw.orthant(d), cfg)
        assert _hex(permuted) == _hex(res)


@st.composite
def _cannot_exit_cases(draw):
    d = draw(st.integers(1, 3))
    vectors = [v for v in itertools.product((0, 1), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=len(vectors), unique=True))
    k = len(steps)
    if k > 1 and draw(st.booleans()):
        # halves, quarters, ... reach 1 exactly before the last step's weight
        weights = [2.0 ** -min(i + 1, k - 2) for i in range(k - 1)] + [1e-13]
    else:
        raw = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        weights = [w / sum(raw) for w in raw]
    start = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    trials = draw(st.sampled_from([1, 7, 300, 4097]))
    checkpoints = draw(st.sets(st.integers(1, 40), min_size=1, max_size=4))
    seed = draw(st.integers(0, 2**32 - 1))
    return steps, weights, start, trials, checkpoints, seed


class _Words:
    """Stands in for the Philox bit generator, returning the given words."""

    def __init__(self, words):
        self.words, self.at = words, 0

    def random_raw(self, size):
        self.at += size
        return self.words[self.at - size:self.at]


class TestCountingPath:
    @pytest.mark.parametrize("weights", SELECTION_LAWS, ids=SELECTION_IDS)
    def test_boundary_words_counted_as_chosen(self, weights):
        # unit steps make a position the count of each step taken
        thresholds = mc._step_thresholds(np.array(weights))
        near = {t + d for t in thresholds.tolist() for d in (-1, 0, 1)} | {0, 2**64 - 1}
        words = np.array(sorted(near), dtype=np.uint64)
        k, trials = len(weights), words.size
        raw = np.concatenate([np.roll(words, j) for j in range(3)])
        eye = np.eye(k, dtype=np.int64)
        got = mc._count_steps(np.zeros(k, dtype=np.int64), eye, thresholds, _Words(raw), trials, [3],
                              lambda _k, pos, _alive: pos)
        want = eye[mc._choose_steps(raw, thresholds)].reshape(3, trials, k).sum(axis=0)
        assert np.array_equal(got[3], want)

    def test_block_counts_do_not_wrap(self):
        # one walker reaching every threshold at each step: a uint8 count of
        # the 300-step block would wrap to 44, a uint16 one of a 65536-step
        # block to 0
        thresholds = mc._step_thresholds(np.array([0.25, 0.25, 0.5]))
        words = _Words(np.full(70000, 2**64 - 1, dtype=np.uint64))
        got = mc._count_steps(np.zeros(3, dtype=np.int64), np.eye(3, dtype=np.int64), thresholds, words, 1,
                              [300, 70000], lambda _k, pos, _alive: pos.tolist())
        assert got == {300: [[0, 0, 300]], 70000: [[0, 0, 70000]]}

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_cannot_exit_cases())
    def test_counts_give_the_per_step_positions(self, case):
        # the orthant takes the counting path; the same cone written as
        # inequalities moves every walker each step
        steps, weights, start, trials, checkpoints, seed = case
        m = cw.probability_measure(steps, weights)
        cfg = cw.SimConfig(seed=seed, trials=trials, n=max(checkpoints))

        def positions(cone):
            return mc._simulate(m, start, cone, cfg, checkpoints,
                                lambda _k, pos, alive: (pos.dtype, pos.tobytes(), alive.all()))

        stepwise = positions(cw.inequalities(np.eye(len(start))))
        for block in (1, 7, mc.DRAW_BLOCK, 2**20):
            with mock.patch.object(mc, "DRAW_BLOCK", block), \
                    mock.patch.object(mc, "_count_steps", wraps=mc._count_steps) as counting:
                assert positions(cw.orthant(len(start))) == stepwise
            assert counting.called


@st.composite
def _reference_cases(draw):
    """A walk in d = 1-3 with steps from {-1, 0, 1}^d, the orthant or an
    `inequalities` or `generated` cone holding a lattice or float start, and
    T in {1, 2, 7, 300} walkers."""
    d = draw(st.integers(1, 3))
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=6, unique=True))
    small = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    kind = draw(st.sampled_from(["orthant", "inequalities", "generated"]))
    if kind == "generated":
        rays = np.array(draw(st.lists(small, min_size=1, max_size=3)))
        scale = st.one_of(st.integers(0, 3), st.floats(0.0, 2.0, allow_nan=False))
        start = draw(st.lists(scale, min_size=len(rays), max_size=len(rays))) @ rays
        cone = cw.generated(rays)
    else:
        coord = st.one_of(st.integers(0, 3), st.floats(0.0, 3.0, allow_nan=False))
        start = np.array(draw(st.lists(coord, min_size=d, max_size=d)))
        cone = cw.orthant(d)
        if kind == "inequalities":
            # a normal that the start falls below is turned around
            normals = np.array(draw(st.lists(small, min_size=1, max_size=3)), dtype=float)
            normals[normals @ start < 0] *= -1
            cone = cw.inequalities(normals)
    # hypothesis leans to the first of a list: many walkers let some of them
    # leave at each step while others stay
    trials = draw(st.sampled_from([300, 7, 2, 1]))
    n = draw(st.integers(1, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    return steps, start, cone, cw.SimConfig(seed=seed, trials=trials, n=n)


def _against_reference(run):
    """`run()` with the package's walker loop and with the frozen reference
    loop, as reprs, which show every bit of a float."""
    got = repr(run())
    with mock.patch.object(mc, "_simulate", ref_mc.simulate):
        return got, repr(run())


def _all_statistics(steps, start, cone, cfg, tilt, checkpoints=()):
    """Plain, tilted at ``tilt`` and band survival of the walk; the band uses
    the steps and their negatives, whose drift 0 lies in every cone."""
    m = cw.from_step_set(steps)
    x = np.asarray(tilt, dtype=float)
    cert = types.SimpleNamespace(x_star=x, rho=float(m.weights @ np.exp(m.steps @ x)))
    both = cw.from_step_set(sorted(set(map(tuple, steps)) | {tuple(-v for v in s) for s in steps}))
    v = np.ones(m.dim)
    return (cw.simulate_survival(m, start, cone, cfg),
            cw.tilted_survival(m, cert, start, cone, cfg),
            cw.band_survival(both, start, cone, v, 1.5, cfg, checkpoints=checkpoints))


class TestReferenceLoop:
    """The walker loop gives the statistics of the frozen per-step loop in
    reference_montecarlo.py, which removed exited walkers by boolean masks,
    bit for bit."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_reference_cases(), st.data())
    def test_statistics_match_the_reference(self, case, data):
        steps, start, cone, cfg = case
        tilt = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=cone.dim, max_size=cone.dim))
        checkpoints = data.draw(st.sets(st.integers(1, cfg.n), max_size=3))
        got, want = _against_reference(
            lambda: _all_statistics(steps, start, cone, cfg, tilt, checkpoints))
        assert got == want

    @pytest.mark.parametrize("trials", [1, 2, 7, 300])
    @pytest.mark.parametrize("cone", [Q2, cw.inequalities([[1, 0], [1, 1]]),
                                      cw.generated([[1, 0], [1, 1]])],
                             ids=["orthant", "inequalities", "generated"])
    def test_every_walker_exits_at_step_one(self, cone, trials):
        cfg = cw.SimConfig(seed=4, trials=trials, n=6)
        got, want = _against_reference(
            lambda: _all_statistics([(-1, -1)], (0, 0), cone, cfg, (0.3, -0.2), {1, 3}))
        assert got == want
        assert cw.simulate_survival(cw.from_step_set([(-1, -1)]), (0, 0), cone, cfg).estimate == 0.0

    @pytest.mark.parametrize("seed, trials", [(11, 5), (93, 8), (0, 2), (5, 2)])
    def test_lone_survivor(self, seed, trials):
        # the last walker alive on a non-orthant cone is tested as two rows
        cone = cw.halfspace((0.1, 0.1))
        cfg = cw.SimConfig(seed=seed, trials=trials, n=40)
        with mock.patch.object(mc, "_row_membership", wraps=mc._row_membership) as member:
            got, want = _against_reference(
                lambda: _all_statistics(NSEW, (1, 1), cone, cfg, (0.1, 0.2), {10, 20}))
        assert got == want
        assert any(c.args[1].shape[0] == 1 < c.args[2] for c in member.call_args_list)


@pytest.mark.parametrize("start", [(1, 1), (1.5, 1.0)], ids=["int64", "float"])
def test_statistic_sees_dead_walkers_at_the_start(start):
    # only live positions are kept, so a dead walker's row holds the start;
    # a live one holds what the frozen per-step loop gives it
    m = cw.from_step_set(ENSWS)
    cfg = cw.SimConfig(seed=3, trials=2000, n=20)
    seen = lambda _k, pos, alive: (pos.copy(), alive.copy())
    got = mc._simulate(m, start, Q2, cfg, {5, 20}, seen)
    want = ref_mc.simulate(m, start, Q2, cfg, {5, 20}, seen)
    for k in (5, 20):
        (pos, alive), (ref_pos, ref_alive) = got[k], want[k]
        assert np.array_equal(alive, ref_alive) and 0 < alive.sum() < cfg.trials
        assert np.array_equal(pos[alive], ref_pos[alive])
        assert (pos[~alive] == start).all()
