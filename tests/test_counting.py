import hashlib
import itertools
import math
import mmap
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import conewalks as cw
from conewalks import counting

import reference_counting as ref_counting

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
NSEW_SW = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]
HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]
HS_WEIGHTS = np.array([1 / 3, 1 / 3, 1 / 3])
S5 = [(0, 1), (0, -1), (1, 0), (-1, 0), (1, 1)]
D3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
# {E,N,W,S,SW} in the step order of the `verify` benchmark's step file
ENSWS = [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)]
# the log of the largest double: a mass or total past it reads inf
LOG_MAX = math.log(sys.float_info.max)


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

    def test_prefix_is_the_shorter_series(self):
        weights = np.full(5, 0.2)
        long = cw.count_walks(NSEW_SW, (1, 1), 90, weights=weights)
        short = cw.count_walks(NSEW_SW, (1, 1), 40, weights=weights)
        assert (long.prefix(40).n_max, long.prefix(40).values) == (40, short.values)
        for n in (-1, 91):
            with pytest.raises(ValueError):
                long.prefix(n)

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


# Inputs both DP entry points must refuse: (steps, weights, n, message).
BAD_DP_INPUTS = {
    "nan weight": (NSEW_SW, [0.2, 0.2, np.nan, 0.2, 0.2], 5, "weight"),
    "inf weight": (NSEW_SW, [0.2, 0.2, np.inf, 0.2, 0.2], 5, "weight"),
    "negative weight": (HALFSPACE_MODEL, [0.5, 0.5, -0.1], 5, "weight"),
    "zero weight": (HALFSPACE_MODEL, [0.5, 0.5, 0.0], 5, "weight"),
    "too few weights": (HALFSPACE_MODEL, [0.5, 0.5], 5, "weight"),
    "too many weights": (HALFSPACE_MODEL, [0.2, 0.2, 0.2, 0.4], 5, "weight"),
    # divided by the largest, the smallest weight would underflow to 0
    "weight quotient underflows to 0": ([(-1,), (1,)], [1e308, 1e-20], 1, "double range"),
    "weight quotient subnormal": ([(-1,), (1,)], [1e300, 1e-10], 1, "double range"),
    "negative horizon": (NSEW, None, -2, "horizon"),
    "bool horizon": (NSEW, None, True, "horizon"),
    "float horizon": (NSEW, None, 3.0, "horizon"),
    "horizon over the cap": (NSEW, None, 10**6, "cap"),
    "3-D horizon over its cap": (D3, None, 121, "cap"),
    "no steps": ([], None, 3, "at least one step"),
    "steps of length 0": ([[], []], None, 3, "at least one step"),
    "infinite step": ([(np.inf, 0.0), (0.0, 1.0)], None, 3, "lattice"),
}


@pytest.mark.parametrize("start", [(10**20, 1), (2**63, 1), (np.inf, 1), (np.nan, 1),
                                   (1.5, 1), ("1", 1), (None, 1)])
def test_start_not_an_int64_lattice_point_raises(start):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="lattice point"):
            cw.count_walks(NSEW, start, 3)
        with pytest.raises(ValueError, match="lattice point"):
            cw.end_point_counts(NSEW, start, 3)


def test_integral_float_and_unsigned_starts_accepted():
    base = cw.count_walks(NSEW, (2, 1), 6, mode="exact").values
    for start in ((2.0, 1.0), np.array([2, 1], dtype=np.uint8), (np.int64(2), 1)):
        assert cw.count_walks(NSEW, start, 6, mode="exact").values == base


@pytest.mark.parametrize("case", sorted(BAD_DP_INPUTS))
def test_bad_dp_inputs_raise(case):
    steps, weights, n, message = BAD_DP_INPUTS[case]
    start = (1,) * (len(steps[0]) if len(steps) and len(steps[0]) else 2)
    with pytest.raises(ValueError, match=message):
        cw.count_walks(steps, start, n, weights=weights)
    with pytest.raises(ValueError, match=message):
        cw.end_point_counts(steps, start, n, weights=weights)


def test_unknown_mode_and_start_of_another_length_raise():
    with pytest.raises(ValueError, match="unknown mode"):
        cw.count_walks(NSEW, (1, 1), 3, mode="float")
    with pytest.raises(ValueError, match="start must have length 2"):
        cw.count_walks(NSEW, (1, 1, 1), 3)


def test_float_value_past_the_overflow_guard_is_infinite():
    # log 4^600 = 831.8 passes the guard (700): the total is reported as inf,
    # never as an overflowing exp
    for series in (counting.CountSeries(0, counting.EXACT, (4**600,)),
                   counting.CountSeries(0, counting.LOG_SCALED, ((1.5, 831.0),))):
        assert series.float_value(0) == math.inf
    assert counting.CountSeries(0, counting.EXACT, (0,)).float_value(0) == 0.0


def test_float_value_past_the_laplace_guard_is_finite_in_the_double_range():
    # log totals near 705 pass the Laplace guard (700) but not the double
    # range: the total is the finite double, not inf
    for series, want in ((counting.CountSeries(0, counting.EXACT, (4**508,)), 2.0**1016),
                         (counting.CountSeries(0, counting.LOG_SCALED, ((1.0, 705.0),)),
                          math.exp(705.0))):
        assert math.isfinite(series.float_value(0))
        assert abs(series.float_value(0) / want - 1.0) <= 1e-12


def test_large_finite_weights_scale_out():
    # the weights are divided by their maximum and its log is added back per
    # layer, so 1e308 weights neither overflow nor lose the unit-weight layers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = cw.count_walks([(1,), (-1,)], (0,), 5, weights=[1e308] * 2)
    unit = cw.count_walks([(1,), (-1,)], (0,), 5)
    for n in range(6):
        want = unit.log_value(n) + n * math.log(1e308)
        assert math.isfinite(big.log_value(n))
        assert abs(big.log_value(n) - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("n, weight", [(5, 1e308), (3, 1e200), (10, math.exp(70.6))])
def test_endpoint_masses_past_the_double_range_are_infinite(n, weight):
    # the layer's scale passes the double range, so exp(log_scale) would
    # overflow; each mass is count * weight^n, inf where that passes the
    # double range, as float_value reads such a total, and finite otherwise:
    # at e^70.6 the masses with counts 1, 9, 35 and 42 are finite doubles,
    # though past the Laplace guard (e^700)
    masses = cw.end_point_counts([(1,), (-1,)], (0,), n, weights=[weight] * 2)
    counts = cw.end_point_counts([(1,), (-1,)], (0,), n)
    assert masses.keys() == counts.keys()
    finite = 0
    for z, c in counts.items():
        log_mass = math.log(c) + n * math.log(weight)
        if log_mass > LOG_MAX:
            assert masses[z] == math.inf
        else:
            finite += 1
            assert abs(masses[z] / math.exp(log_mass) - 1.0) <= 1e-12
    assert finite == (4 if n == 10 else 0)


def test_endpoint_masses_below_the_guard_stay_finite_past_the_layer_scale():
    # weights e^71 and 1e-8 e^71: the layer's scale is about e^710, past the
    # double range; the all-up endpoint passes it too and reads inf, and
    # every other mass is exp(log v + scale), within rounding of the true one
    w = math.exp(71.0)
    masses = cw.end_point_counts([(1,), (-1,)], (0,), 10, weights=[w, 1e-8 * w])
    counts = cw.end_point_counts([(1,), (-1,)], (0,), 10)
    assert masses.keys() == counts.keys()
    finite = 0
    for (z,), c in counts.items():
        log_mass = math.log(c) + 10 * 71.0 + (10 - z) // 2 * math.log(1e-8)
        if log_mass > LOG_MAX:
            assert masses[(z,)] == math.inf
        else:
            finite += 1
            assert abs(masses[(z,)] / math.exp(log_mass) - 1.0) <= 1e-12
    assert finite == 5


def test_weights_at_the_double_range_apart_scale_out():
    # the quotient by the largest weight is still a normal double
    tiny = np.finfo(float).tiny
    series = cw.count_walks([(-1,), (1,)], (0,), 1, weights=[2.0, 2.0 * tiny])
    assert abs(series.log_value(1) - math.log(2.0 * tiny)) <= 1e-12 * abs(math.log(tiny))


def test_exact_endpoint_layer_capped():
    cw.end_point_counts([(1, 0), (0, 1)], (0, 0), counting.MAX_HORIZON_EXACT)
    with pytest.raises(ValueError):
        cw.end_point_counts([(1, 0), (0, 1)], (0, 0), counting.MAX_HORIZON_EXACT + 1)


@st.composite
def _dp_cases(draw):
    """A step set from {-1,0,1}^d (d = 1-3), a start near the apex and a short horizon."""
    d = draw(st.integers(1, 3))
    vectors = [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=6, unique=True))
    start = tuple(draw(st.lists(st.integers(0, 2), min_size=d, max_size=d)))
    return steps, start, draw(st.integers(0, 12))


class TestDPProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dp_cases())
    def test_exact_and_log_modes_agree(self, case):
        steps, start, n = case
        exact = cw.count_walks(steps, start, n, mode="exact")
        logs = cw.count_walks(steps, start, n, mode="log_scaled")
        for m in range(n + 1):
            le, ll = exact.log_value(m), logs.log_value(m)
            if le is None:
                assert ll is None
            else:
                assert abs(le - ll) <= 1e-12 * max(1.0, abs(le))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dp_cases(), st.randoms(use_true_random=False))
    def test_counts_invariant_under_step_order_and_axis_permutation(self, case, rnd):
        steps, start, n = case
        d = len(start)
        order = rnd.sample(range(len(steps)), len(steps))
        axes = rnd.sample(range(d), d)
        moved = [tuple(steps[i][a] for a in axes) for i in order]
        base = cw.count_walks(steps, start, n, mode="exact").values
        assert cw.count_walks(moved, tuple(start[a] for a in axes), n, mode="exact").values == base

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_dp_cases(), st.booleans())
    def test_box_is_tight_after_every_step(self, case, exact):
        # unit weights and n <= 12 keep every cell above FLOAT_TRIM of the
        # maximum (at most 6^12 walks), so the float box is tight as well
        steps, start, n = case
        steps, start, w, _ = counting._dp_inputs(steps, start, n, None, exact)
        dp = counting._LayerDP(steps, w, start, n, exact=exact)
        for _ in range(n):
            dp.advance()
            if dp.dead:
                break
            for ax in range(dp.d):
                cut = np.moveaxis(dp.layer, ax, 0)
                assert np.any(cut[0] != 0) and np.any(cut[-1] != 0)


class TestEndpointCounts:
    def test_binomial_paths(self):
        counts = cw.end_point_counts([(0, 1), (1, 0)], (0, 0), 2)
        assert counts == {(2, 0): 1, (1, 1): 2, (0, 2): 1}

    def test_zero_steps_is_start(self):
        counts = cw.end_point_counts(NSEW, (3, 4), 0)
        assert counts == {(3, 4): 1}

    def test_sum_matches_totals(self, proper_2d_corpus):
        for steps in proper_2d_corpus[:20]:
            series = cw.count_walks(steps, (1, 1), 6, mode="exact")
            layer = cw.end_point_counts(steps, (1, 1), 6)
            assert sum(layer.values()) == series.values[6]


HS_STEPS = cw.families.HALFSPACE_STEPS


def _hs_weights(p):
    return tuple(cw.families.halfspace_weights(p))


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _log_digest(series):
    """SHA-256 of float.hex of every log_value ('-' for a zero total)."""
    return _sha256(",".join("-" if (lv := series.log_value(n)) is None else lv.hex()
                            for n in range(series.n_max + 1)))


class TestGoldenLayers:
    """DP outputs pinned bit for bit. The order of float operations in a
    layer is fixed (step adds in step order, trim, max-normalisation, cut
    below FLOAT_TRIM), and the total is summed over the trimmed box; any
    change to that order shows up here."""

    @pytest.mark.parametrize("steps, start, n, weights, digest, last", [
        (S5, (0, 0), 1200, None,
         "662764e538169d2ca46bfbc9fa3d30ba023218cdd63a82ede2cfb30bc70f0cec", "0x1.e281d2bbbc759p+10"),
        (D3, (0, 0, 0), 120, None,
         "c93768fa9c7fbadbfefc18ad1cb0de9035970b5f4999c9a87fd2a5c207f0d3e8", "0x1.44a43c38d35a1p+7"),
        (D3, (0, 0, 0), 120, (0.1, 0.2, 0.3, 0.4),
         "b97dc71a86579ba6ea43754151dd6e57045cd9dc7d599c15e502dda81784372d", "-0x1.301bd2f69c52dp+4"),
        ([(1,), (-1,)], (0,), 2000, (0.25, 0.75),
         "c7f536a48494f8bb1c2594cb52545e7dfae6afd0542264a3464238a15d25fe06", "-0x1.2985e9cc1a8a7p+8"),
        (HS_STEPS, (1, 1), 1500, _hs_weights(1 / 3),
         "4e7dc93254b824cec5039b3e7954d905d425ea07a4901389a82a145a9cf9c707", "-0x1.1a03b70d34d32p+10"),
        (HS_STEPS, (1, 1), 1500, _hs_weights(0.4),
         "090f01f62f93fe708c6f278c6f7ed455320a1f9e011568e40d4837a3051b16bc", "-0x1.418653159ad0dp+10"),
        (HS_STEPS, (1, 1), 1500, _hs_weights(0.3),
         "a2c47a03b61b7297a0929e9eb9c11633411d2ba18d372dcc2908776e0047c4dc", "-0x1.07b7dbfa19f83p+10"),
        # series whose layers fall into a two-layer cycle late (see TestLayerCycle)
        (HS_STEPS, (2, 2), 400, _hs_weights(0.4),
         "cb6fa9341ce845434aea24cfccce15661f5be0597223d186f19f9e28bbd9cb78", "-0x1.03c4d4e1b4b81p+8"),
        (HS_STEPS, (4, 0), 400, _hs_weights(0.4),
         "6ff4588747674263ec44a3732d22bedcac958d06abab8d9fb52afc27cd993bae", "-0x1.047646f9ac89fp+8"),
        (HS_STEPS, (0, 4), 1500, _hs_weights(1 / 3),
         "123a48f461182d9d3fa913d30d027d422ee05bb281f1f81b39823ab6d2ec0bc1", "-0x1.9b6e28476198fp+9"),
        (HS_STEPS, (1, 1), 400, HS_WEIGHTS,
         "fce6884cd12489b16cbc9220196b3d9dda9087e6ad22226dfb748d40628f01c1", "-0x1.2cd0c3414960ep+8"),
        (HS_STEPS, (2, 2), 400, HS_WEIGHTS,
         "607d6607a6effaaf4a8cd0e573d431ddcb9b2652050c80ee3bbe5e044b606892", "-0x1.b3dc847ba00c9p+7"),
        (HS_STEPS, (3, 3), 400, HS_WEIGHTS,
         "8033ba70fd8465d506ecb9e25578623192bf75699266a5e78e926ca0ad98ed48", "-0x1.7d941cc69eafbp+7"),
    ], ids=["s5", "d3", "d3-weighted", "d1", "halfspace-1/3", "halfspace-0.4", "halfspace-0.3",
            "halfspace-0.4-from-2-2", "halfspace-0.4-from-4-0", "halfspace-1/3-from-0-4",
            "uniform-from-1-1", "uniform-from-2-2", "uniform-from-3-3"])
    def test_log_values(self, steps, start, n, weights, digest, last):
        series = cw.count_walks(steps, start, n, weights=weights)
        assert series.log_value(n).hex() == last
        assert _log_digest(series) == digest

    def test_exact_counts(self):
        series = cw.count_walks(S5, (0, 0), 150, mode="exact")
        assert _sha256(",".join(str(v) for v in series.values)) == (
            "7da92e0c0bc226a35bd31bd829fce3cb43c64f2a6b1c77cd52f38d3582858ddd")

    def test_end_point_counts(self):
        masses = cw.end_point_counts(NSEW_SW, (1, 1), 25, weights=[0.2] * 5)
        counts = cw.end_point_counts(NSEW_SW, (1, 1), 25)
        assert len(masses) == len(counts) == 377
        assert sum(counts.values()) == 4012701354324432
        assert _sha256(",".join(f"{p}:{v.hex()}" for p, v in sorted(masses.items()))) == (
            "643278714675251ff10cad4be7f77347ac1e3772bffbcc3249be40dba1c41131")
        assert _sha256(",".join(f"{p}:{v}" for p, v in sorted(counts.items()))) == (
            "5a0d12a23df949a9d912cf77811471a4cec4b1196df21350a4c790a11df86f20")


class _BoxLayerDP:
    """The layer DP on unpadded boxes, kept as the reference of the flat
    layout: each new layer is a zeroed C-ordered box (in one of two buffers
    used in turn) and each step is one strided N-D slice add."""

    def __init__(self, steps, weights, start, exact, trim_threshold=counting.FLOAT_TRIM):
        self.exact = exact
        self.d = steps.shape[1]
        self.trim_threshold = trim_threshold
        self.step_min = [int(v) for v in steps.min(axis=0)]
        self.step_max = [int(v) for v in steps.max(axis=0)]
        # (shift, weight) per step in step order; weight None adds unscaled
        weights = [1.0] * len(steps) if exact else weights
        self.plan = [(tuple(int(v) for v in s), None if w == 1.0 else float(w))
                     for s, w in zip(steps, weights)]
        dtype = object if exact else float
        self._buffers = [np.empty(0, dtype=dtype), np.empty(0, dtype=dtype)]
        self.lo = [int(v) for v in start]
        self.log_scale = 0.0
        self.layer = np.empty((1,) * self.d, dtype=dtype)
        self.layer.fill(1)

    @property
    def dead(self):
        return self.layer.size == 0

    def total(self):
        if self.exact:
            return int(self.layer.sum()) if self.layer.size else 0
        return (float(self.layer.sum()) if self.layer.size else 0.0, self.log_scale)

    def _fresh(self, shape):
        """A zeroed C-ordered array of ``shape`` in the buffer not read last."""
        size = math.prod(shape)
        if self._buffers[0].size < size:
            self._buffers[0] = None  # freed before its successor is allocated
            self._buffers[0] = np.empty(size, dtype=self.layer.dtype)
        buf = self._buffers.pop(0)
        self._buffers.append(buf)
        new = buf[:size].reshape(shape)
        new.fill(0)
        return new

    def advance(self):
        if self.dead:
            return
        lo, layer = self.lo, self.layer
        old_shape = layer.shape
        new_lo = [max(a + m, 0) for a, m in zip(lo, self.step_min)]
        shape = tuple(a + n - b + m for a, n, b, m in zip(lo, old_shape, new_lo, self.step_max))
        if min(shape) <= 0:
            self._kill()
            return
        new = self._fresh(shape)
        for shift, w in self.plan:
            dst, src = [], []
            for a, n, b, s in zip(lo, old_shape, new_lo, shift):
                # cells y - s of the old box with y >= 0 land on y
                cut = max(-(a + s), 0)
                if cut >= n:
                    break
                dst.append(slice(a + s + cut - b, a + s + n - b))
                src.append(slice(cut, n))
            else:
                view = new[tuple(dst)]
                if w is None:
                    view += layer[tuple(src)]
                else:
                    view += w * layer[tuple(src)]
        self.lo, self.layer = new_lo, new
        self._trim()
        if not self.exact and not self.dead:
            mx = float(self.layer.max())
            if mx > 0.0:
                self.layer /= mx
                self.log_scale += math.log(mx)
                if self.trim_threshold > 0.0:
                    np.copyto(self.layer, 0.0, where=self.layer < self.trim_threshold)

    def _kill(self):
        self.layer = np.zeros((0,) * self.d, dtype=self.layer.dtype)

    def _trim(self):
        """Shrink the box to its nonzero cells, reading inward from each face."""
        layer = self.layer
        for ax in range(self.d):
            def occupied(i):
                # cells are never negative, so a positive maximum means a nonzero cell
                return layer[(slice(None),) * ax + (slice(i, i + 1),)].max() > 0

            first, last = 0, layer.shape[ax] - 1
            while first <= last and not occupied(first):
                first += 1
            if first > last:
                self._kill()
                return
            while not occupied(last):
                last -= 1
            layer = layer[(slice(None),) * ax + (slice(first, last + 1),)]
            self.lo[ax] += first
        self.layer = layer

    def endpoint_items(self):
        """(lattice point, mass) pairs of the current layer."""
        if self.dead:
            return []
        cells = np.argwhere(self.layer != 0 if self.exact else self.layer > 0.0)
        values = self.layer[tuple(cells.T)].tolist()
        if self.exact:
            values = [int(v) for v in values]
        else:
            scale = math.exp(self.log_scale)
            values = [v * scale for v in values]
        return [(tuple(p), v) for p, v in zip((cells + self.lo).tolist(), values)]


def _count_replays(dp):
    """Wrap ``dp._plan`` so that ``dp.replayed`` counts the layers that
    replayed a plan: the layers that ran one, less the plans built."""
    built, find = {}, dp._plan  # the plans built, kept alive so that no id recurs
    dp.replayed = 0

    def plan(key, limbs):
        found = find(key, limbs)
        if found is not None:
            dp.replayed += id(found) in built
            built[id(found)] = found
        return found

    dp._plan = plan
    return dp


def _layouts_agree(steps, start, n, weights, exact, trim):
    """Run the flat-layout DP and the box-layout reference side by side and
    compare every layer bit for bit: every cell of a float layer, the
    endpoint counts of an exact one, and the endpoint masses of the last
    layer; returns the flat DP, whose ``replayed`` counts the layers that
    replayed a plan."""
    steps, start, w, _ = counting._dp_inputs(steps, start, n, weights, exact)
    flat = _count_replays(counting._LayerDP(steps, w, start, n, exact=exact, trim_threshold=trim))
    ref = _BoxLayerDP(steps, w, start, exact=exact, trim_threshold=trim)
    for k in range(n + 1):
        if k:
            flat.advance()
            ref.advance()
        got, want = flat.total(), ref.total()
        if exact:
            assert got == want, k
        else:
            assert (got[0].hex(), got[1].hex()) == (want[0].hex(), want[1].hex()), k
        assert flat.lo == ref.lo, k
        assert flat.layer.shape == ref.layer.shape, k
        if exact:
            assert flat.endpoint_items() == ref.endpoint_items(), k
        else:
            assert flat.layer.tobytes() == ref.layer.tobytes(), k
    assert flat.endpoint_items() == ref.endpoint_items()
    return flat


@st.composite
def _layout_cases(draw):
    """Steps from {-2..2}^d (d = 1-3), a start in 0..3 or 4..30, n <= 40 (16 in 3-D),
    exact or float mode, weights in (0, 1] with exact 1.0 among them, and the
    FLOAT_TRIM cut on or off."""
    # hypothesis leans to its simplest draws, here 2-D and the longest walks
    d = draw(st.sampled_from([2, 3, 1]))
    vectors = list(itertools.product(range(-2, 3), repeat=d))
    if d > 1 and draw(st.booleans()):
        # every step lowers axis 0: the layer is pushed onto that wall
        vectors = [v for v in vectors if v[0] < 0]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=5, unique=True))
    # starts away from the apex let a wide layer meet the wall it walks toward
    coordinate = st.one_of(st.integers(0, 3), st.integers(4, 30))
    start = tuple(draw(st.lists(coordinate, min_size=d, max_size=d)))
    n_max = 40 if d < 3 else 16
    n = n_max - draw(st.integers(0, n_max))
    exact = draw(st.booleans())
    weights = None
    if not exact and draw(st.booleans()):
        weight = st.one_of(st.just(1.0), st.floats(1e-3, 1.0, exclude_min=True))
        weights = draw(st.lists(weight, min_size=len(steps), max_size=len(steps)))
    trim = draw(st.sampled_from([counting.FLOAT_TRIM, 0.0]))
    return steps, start, n, weights, exact, trim


class TestFlatLayoutMatchesBoxLayout:
    """The padded flat layout changes no bit: totals, boxes and endpoint
    masses after every step equal those of the box-layout reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_layout_cases())
    def test_random_cases(self, case):
        _layouts_agree(*case)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("steps, start, n", [
        ([(2, 0), (0, 2), (-1, -1), (1, 2)], (0, 3), 40),
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, -1, -1)], (1, 0, 2), 14),
    ], ids=["2d", "3d"])
    def test_box_outgrows_its_padding(self, steps, start, n, exact):
        # boxes that widen by two cells a step on every axis outrun the
        # padding of each layout, so the layers are laid out anew many times
        steps_arr, start_arr, w, _ = counting._dp_inputs(steps, start, n, None, exact)
        dp = counting._LayerDP(steps_arr, w, start_arr, n, exact=exact)
        layouts = set()
        for _ in range(n):
            dp.advance()
            layouts.add(tuple(dp._extents))
        assert len(layouts) >= 4
        _layouts_agree(steps, start, n, None, exact, counting.FLOAT_TRIM)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("steps, start, n", [
        ([(-1, 1), (-1, -1), (-2, 0)], (7, 10), 8),
        ([(-1, 1), (-2, -1), (-2, 0), (-1, -2)], (18, 7), 40),
        ([(-1, 2, -1), (-2, -1, 2), (-1, 0, 0)], (20, 2, 2), 14),
    ], ids=["2d", "2d-long", "3d"])
    def test_layer_against_the_wall_outgrows_its_padding(self, steps, start, n, exact):
        # every step lowers axis 0, so a layer on the wall there has more rows
        # than the box it advances to, while its rows outgrow their padding
        _layouts_agree(steps, start, n, None, exact, counting.FLOAT_TRIM)

    @pytest.mark.parametrize("exact", [False, True])
    def test_large_buffers_are_mappings_of_their_own(self, exact, monkeypatch):
        # a large buffer, float or uint64 limbs, never comes from malloc's
        # heap; a small one does
        monkeypatch.setattr(counting, "MAPPED_BYTES", 4096)
        kinds = set()
        # the buffers are sized once, for horizon 2 below 4096 bytes and for
        # horizon 30 above
        for n in (2, 30):
            steps_arr, start_arr, w, _ = counting._dp_inputs(S5, (0, 0), n, None, exact)
            dp = counting._LayerDP(steps_arr, w, start_arr, n, exact=exact)
            for buf in dp._buffers:
                mapped = isinstance(buf.base, mmap.mmap)
                assert mapped == (buf.nbytes >= 4096)
                assert buf.flags.writeable and buf.dtype == (np.uint64 if exact else float)
                kinds.add(mapped)
        assert kinds == {False, True}
        _layouts_agree(S5, (0, 0), 30, None, exact, counting.FLOAT_TRIM)

    @pytest.mark.parametrize("steps, start, n, weights, relayouts", [
        (ENSWS, (1, 1), 300, (0.2,) * 5, 38),
        (D3, (1, 1, 1), 60, (0.25,) * 4, 20),
        (NSEW, (1, 1), 200, None, 39),
    ], ids=["ensws", "d3", "nsew"])
    def test_verify_shapes_at_their_horizons(self, steps, start, n, weights, relayouts,
                                             monkeypatch):
        # the DPs of `verify` and `enumerate` on growing boxes; a box lays
        # its layer out anew when its rows outgrow their padding (counted
        # with the layout of the first layer)
        calls = []
        relayout = counting._LayerDP._relayout

        def counted(dp):
            calls.append(dp.lo)
            relayout(dp)

        monkeypatch.setattr(counting._LayerDP, "_relayout", counted)
        _layouts_agree(steps, start, n, weights, False, counting.FLOAT_TRIM)
        assert len(calls) == relayouts

    @pytest.mark.parametrize("trim", [counting.FLOAT_TRIM, 0.0], ids=["cut", "no-cut"])
    @pytest.mark.parametrize("start", range(4))
    def test_bench_1d_shapes(self, start, trim):
        # the 1-D walks of the `enumerate` benchmark, whose one-cell faces
        # are tested by their truth value, and the exact 1-D walk, whose
        # faces hold limbs and keep count_nonzero's C function
        steps_arr, start_arr, w, _ = counting._dp_inputs([(1,), (-1,)], (start,), 0, None, False)
        assert counting._LayerDP(steps_arr, w, start_arr, 0, exact=False)._occupied is bool
        assert (counting._LayerDP(steps_arr, None, start_arr, 0, exact=True)._occupied
                is counting._count_nonzero)
        _layouts_agree([(1,), (-1,)], (start,), 2000, (0.25, 0.75), False, trim)
        _layouts_agree([(1,), (-1,)], (start,), 200, None, True, trim)

    @pytest.mark.parametrize("block", [counting.PRODUCT_BLOCK, 7])
    def test_weights_and_no_trim(self, block, monkeypatch):
        # a 7-cell block splits each weighted product into many pieces
        monkeypatch.setattr(counting, "PRODUCT_BLOCK", block)
        _layouts_agree(S5, (0, 2), 40, (1.0, 0.3, 0.5, 1.0, 0.05), False, 0.0)
        _layouts_agree(D3, (0, 1, 0), 16, (0.1, 1.0, 0.3, 0.4), False, counting.FLOAT_TRIM)

    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("steps, start, n", [
        (S5, (0, 0), 40),
        (S5, (3, 1), 30),
        (D3, (0, 1, 0), 16),
        (NSEW, (1, 1), 40),
        # boxes that outgrow their padding, laid out anew many times
        ([(2, 0), (0, 2), (-1, -1), (1, 2)], (0, 3), 40),
        ([(2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, -1, -1)], (1, 0, 2), 14),
        # layers against the axis-0 wall, with more rows than their next box
        ([(-1, 1), (-2, -1), (-2, 0), (-1, -2)], (18, 7), 40),
        ([(-1, 2, -1), (-2, -1, 2), (-1, 0, 0)], (20, 2, 2), 14),
        # the second step, clipped at the buffer's start, adds to the cells
        # before the first writer's range, which the writer zeroed
        ([(1,), (-1,), (2,)], (0,), 40),
        ([(0, 1), (-1, -1), (1, 0), (0, -1)], (0, 0), 30),
        # the first step moves no cell, on a one-row box or from the apex, so
        # the second writes; from (5,), the later steps' one-cell ranges lie
        # after the first writer's one cell, in the cells it zeroed
        ([(-1, 0), (0, 1), (0, -1)], (0, 3), 40),
        ([(-1,), (1,), (-2,)], (0,), 40),
        ([(-1,), (1,), (3,)], (5,), 40),
    ], ids=["s5", "s5-inside", "d3", "nsew", "2d-relayout", "3d-relayout", "2d-wall", "3d-wall",
            "1d-add-before-writer", "2d-add-before-writer", "2d-one-row", "1d-apex",
            "1d-add-after-writer"])
    def test_unit_steps_in_small_blocks(self, steps, start, n, exact, block, monkeypatch):
        # a block of 7 or 64 cells splits every multi-cell layer into many
        # blocks, each of them cut by the ranges of the steps, so the step
        # that first reaches a block and writes it, the zeroed rest of the
        # block and the blocks that no step reaches meet every block boundary
        monkeypatch.setattr(counting, "PRODUCT_BLOCK", block)
        _layouts_agree(steps, start, n, None, exact, counting.FLOAT_TRIM)
        if not exact:
            _layouts_agree(steps, start, n, None, exact, 0.0)


@st.composite
def _apex_cases(draw):
    """Steps from {-2..2}^d (d = 1, 2) and weights whose drift points into
    the apex on every axis, a start in 0..3, n <= 200 and the FLOAT_TRIM cut
    on or off: the box stays small, so its layouts repeat."""
    d = draw(st.integers(1, 2))
    vectors = [v for v in itertools.product(range(-2, 3), repeat=d) if any(v)]
    steps = draw(st.lists(st.sampled_from(vectors), min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.sampled_from([1.0, 0.5, 0.25, 0.1]),
                            min_size=len(steps), max_size=len(steps)))
    drift = np.asarray(weights) @ np.asarray(steps)
    assume(np.all(drift < 0))
    start = tuple(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)))
    trim = draw(st.sampled_from([counting.FLOAT_TRIM, 0.0]))
    # hypothesis leans to its simplest draws, here the longest walks
    return steps, start, 200 - draw(st.integers(0, 200)), weights, False, trim


class TestPlanReplay:
    """A layer whose layout was seen before since the last relayout replays
    the stored plan of that layout, and changes no bit: totals, boxes and
    endpoint masses equal those of the box-layout reference."""

    @pytest.mark.parametrize("block", [counting.PRODUCT_BLOCK, 7])
    @pytest.mark.parametrize("trim", [counting.FLOAT_TRIM, 0.0])
    @pytest.mark.parametrize("steps, start, n, weights", [
        ([(1,), (-1,)], (0,), 500, (0.25, 0.75)),
        ([(1,), (-1,)], (3,), 400, (0.25, 0.75)),
        (HS_STEPS, (1, 1), 300, _hs_weights(1 / 3)),
        (HS_STEPS, (0, 2), 400, _hs_weights(0.4)),
        (HS_STEPS, (3, 1), 500, _hs_weights(0.3)),
    ], ids=["d1-0", "d1-3", "halfspace-1/3", "halfspace-0.4", "halfspace-0.3"])
    def test_float(self, steps, start, n, weights, trim, block, monkeypatch):
        # a 7-cell block splits each weighted product into pieces
        monkeypatch.setattr(counting, "PRODUCT_BLOCK", block)
        dp = _layouts_agree(steps, start, n, weights, False, trim)
        # without the cut the 1-D box grows until its tail underflows
        if len(steps[0]) == 2 or trim:
            assert dp.replayed > n // 2

    @pytest.mark.parametrize("steps, start, n, weights, trim", [
        # the cut can leave zero faces, so one layout meets two trim outcomes
        ([(2,), (-1,), (-2,), (1,)], (5,), 300, (0.01, 0.25, 1.0, 0.1), counting.FLOAT_TRIM),
        # one lowest point and shape, at two offsets from the buffer's start
        ([(2, 0), (-2, -1), (2, 2)], (0, 0), 150, (0.1, 0.25, 0.01), 1e-3),
    ], ids=["two-trim-outcomes", "two-first-cells"])
    def test_layouts_alike_in_part(self, steps, start, n, weights, trim):
        assert _layouts_agree(steps, start, n, weights, False, trim).replayed

    @pytest.mark.parametrize("start", [(1, 1), (2, 2), (0, 3)])
    def test_exact(self, start):
        # the limbs grow every 38 or so layers, each time with a new layout
        dp = _layouts_agree(HS_STEPS, start, 200, None, True, counting.FLOAT_TRIM)
        assert dp.replayed > 150

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(_apex_cases())
    def test_drift_into_the_apex(self, case):
        _layouts_agree(*case)

    def test_plans_stay_few_on_a_growing_box(self):
        # the S5 box grows nearly every step, and every few steps a relayout
        # clears the plans: 15 of 400 layers replay one
        steps, start, w, _ = counting._dp_inputs(S5, (0, 0), 400, None, False)
        dp = _count_replays(counting._LayerDP(steps, w, start, 400, exact=False))
        for _ in range(400):
            dp.advance()
            # the last plan built from each buffer
            assert len(dp._plans) == 2
        assert dp.replayed == 15

    def test_seen_layouts_stay_two_on_a_growing_1d_box(self):
        # the 1-D box is never laid out anew; the layouts seen were once one
        # per layer (546 at once by n = 2000), and each buffer keeps one plan
        steps, start, w, _ = counting._dp_inputs([(1,), (2,), (-1,)], (0,), 2000, None, False)
        dp = counting._LayerDP(steps, w, start, 2000, exact=False)
        for _ in range(2000):
            dp.advance()
            assert len(dp._plans) == 2

    @pytest.mark.parametrize("steps, start, n, weights, replayed, built", [
        ([(1,), (-1,)], (2,), 2000, (0.25, 0.75), 1878, 122),
        (HS_STEPS, (1, 1), 1500, _hs_weights(1 / 3), 1497, 3),
        (HS_STEPS, (4, 0), 1500, _hs_weights(0.4), 1494, 6),
        (HS_STEPS, (3, 1), 1500, _hs_weights(0.3), 1495, 5),
        # the DP of `verify` on {E,N,W,S,SW} at n = 300
        ([(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)], (1, 1), 300, (0.2,) * 5, 126, 174),
    ], ids=["d1-from-2", "halfspace-1/3", "halfspace-0.4", "halfspace-0.3", "ensws"])
    def test_replays_with_two_seen_layouts(self, steps, start, n, weights, replayed, built,
                                           monkeypatch):
        # the counts of a DP that remembered every layout met since the last
        # relayout: a layout recurs two layers after it was planned, and then
        # keeps the plan built the first time, so only the other layers build
        plans, plan = [], counting._Plan
        monkeypatch.setattr(counting, "_Plan", lambda *args: plans.append(plan(*args)) or plans[-1])
        steps, start, w, _ = counting._dp_inputs(steps, start, n, weights, False)
        dp = _count_replays(counting._LayerDP(steps, w, start, n, exact=False))
        for _ in range(n):
            dp.advance()
        assert dp.replayed == replayed
        assert len(plans) == built


class TestTrimBounds:
    """After every step the trim's bounds equal the bounding box of the
    untrimmed box's nonzero cells (``np.nonzero``), whether the plan was built
    for that layer, replayed, or built again after a relayout."""

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("steps, start, n, weights, replays", [
        # checkerboard walks, whose faces empty by lattice parity
        (NSEW, (1, 1), 120, None, ()),
        (HS_STEPS, (2, 2), 200, _hs_weights(0.4), (False, True)),
        (HS_STEPS, (0, 3), 200, _hs_weights(1 / 3), (False, True)),
        (D3, (1, 1, 1), 24, None, ()),
        # the cut leaves a face of a replayed plan zero in one layer, not in
        # another, so a replayed face must see each layer's cells
        ([(2, 0), (-1, 0), (-2, 0), (1, 0), (0, 1), (0, -1)], (5, 0), 120,
         (0.01, 0.25, 1.0, 0.1, 0.05, 0.3), (False,)),
        # a 1-D float face is a scalar copy, tested by its truth value; the
        # float box is held small by the FLOAT_TRIM cut, the exact one grows
        ([(1,), (-1,)], (2,), 200, (0.25, 0.75), (False,)),
    ], ids=["nsew", "halfspace-0.4", "halfspace-1/3", "d3", "two-trim-outcomes", "d1"])
    def test_bounds_are_the_nonzero_box(self, steps, start, n, weights, replays, exact,
                                        monkeypatch):
        trim, relayout = counting._LayerDP._trim, counting._LayerDP._relayout
        plans, relayouts = [], []

        def checked(dp, plan):
            bounds = trim(dp, plan)
            cells = np.any(plan.box, axis=0) if dp.exact else plan.box
            nonzero = [(int(i.min()), int(i.max())) for i in np.nonzero(cells)]
            assert bounds == (tuple(itertools.chain(*nonzero)) if nonzero[0] else None)
            plans.append(plan)
            return bounds

        monkeypatch.setattr(counting._LayerDP, "_trim", checked)
        monkeypatch.setattr(counting._LayerDP, "_relayout",
                            lambda dp, *args: relayouts.append(args) or relayout(dp, *args))
        steps, start, w, _ = counting._dp_inputs(steps, start, n, None if exact else weights,
                                                  exact)
        dp = counting._LayerDP(steps, w, start, n, exact=exact)
        for _ in range(n):
            dp.advance()
        assert len(plans) == n
        if exact in replays:
            assert n - len(set(map(id, plans))) > n // 4
        else:
            # a growing box outgrows its padding and is laid out anew, which
            # drops every plan (the first layout is the DP's); a 1-D box has
            # no padded axis, so it keeps its first layout
            assert len(relayouts) == 1 if dp.d == 1 else len(relayouts) > 2


class TestBuffersSizedOnce:
    """The DP allocates its two buffers once, at ``_box_bound``'s size, and
    keeps them to its horizon; a relayout only re-pads a layer."""

    @pytest.mark.parametrize("steps, start, n, exact", [
        (S5, (0, 0), 400, False), (D3, (0, 0, 0), 120, False), (S5, (0, 0), 200, True),
    ], ids=["s5", "d3", "s5-exact"])
    def test_buffers_are_the_same_arrays_to_the_horizon(self, steps, start, n, exact):
        steps, start, w, _ = counting._dp_inputs(steps, start, n, None, exact)
        dp = counting._LayerDP(steps, w, start, n, exact=exact)
        first = list(dp._buffers)
        for _ in range(n):
            dp.advance()
            assert {id(b) for b in dp._buffers} == {id(b) for b in first}
        assert not dp.dead

    @pytest.mark.parametrize("n, exact", [(2000, False), (200, True)], ids=["float", "exact"])
    def test_1d_box_keeps_its_first_layout(self, n, exact, monkeypatch):
        relayouts, relayout = [], counting._LayerDP._relayout
        monkeypatch.setattr(counting._LayerDP, "_relayout",
                            lambda dp: relayouts.append(dp.lo) or relayout(dp))
        steps, start, w, _ = counting._dp_inputs([(1,), (2,), (-1,)], (0,), n, None, exact)
        dp = counting._LayerDP(steps, w, start, n, exact=exact)
        for _ in range(n):
            dp.advance()
        assert len(relayouts) == 1 and not dp.dead


def _advance_loop(steps, start, n, weights):
    """The float series of one ``advance`` and ``total`` per layer, as the
    hex of each mantissa and log scale."""
    steps, start, w, _ = counting._dp_inputs(steps, start, n, weights, False)
    dp = counting._LayerDP(steps, w, start, n, exact=False)
    values = [dp.total()]
    for _ in range(n):
        dp.advance()
        values.append(dp.total())
    return [(m.hex(), s.hex()) for m, s in values]


def _hex_values(series):
    return [(m.hex(), s.hex()) for m, s in series.values]


def _count_dp_calls(monkeypatch):
    """Count the calls of ``_LayerDP.advance`` and ``_LayerDP.snapshot``."""
    calls = {"advance": 0, "snapshot": 0}
    for name in calls:
        method = getattr(counting._LayerDP, name)

        def counted(dp, method=method, name=name):
            calls[name] += 1
            return method(dp)

        monkeypatch.setattr(counting._LayerDP, name, counted)
    return calls


@st.composite
def _bounded_cases(draw):
    """2-D steps from {-2..2}^2 with s_x + s_y <= 0, so every walk stays in a
    bounded triangle, among them (k, -k) and (-k, k), so that walks can stay
    alive on a diagonal; weights on both sides of 1, a start in 0..4 and n <= 400."""
    vectors = [v for v in itertools.product(range(-2, 3), repeat=2) if any(v) and sum(v) <= 0]
    k = draw(st.integers(1, 2))
    steps = draw(st.lists(st.sampled_from(vectors), max_size=4, unique=True))
    steps = [(k, -k), (-k, k)] + [v for v in steps if v not in ((k, -k), (-k, k))]
    steps = draw(st.permutations(steps))
    weights = draw(st.lists(st.sampled_from([0.05, 0.25, 1 / 3, 0.5, 1.0, 1.5, 3.0]),
                            min_size=len(steps), max_size=len(steps)))
    start = tuple(draw(st.lists(st.integers(0, 4), min_size=2, max_size=2)))
    # hypothesis leans to its simplest draws, here the longest walks
    return steps, start, 400 - draw(st.integers(0, 400)), weights


class TestLayerCycle:
    """A float series whose layer equals the layer two back stops running
    the DP and repeats the last two layers, every bit as ``advance`` would
    have left them."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(_bounded_cases())
    def test_bounded_support_matches_the_advance_loop(self, case):
        steps, start, n, weights = case
        series = cw.count_walks(steps, start, n, weights=weights)
        assert _hex_values(series) == _advance_loop(steps, start, n, weights)

    def test_cells_that_move_are_no_cycle(self):
        # a lone cell stepping to the wall repeats its bytes and its total at
        # every layer, but not its lowest point, and dies at the wall
        series = cw.count_walks([(-1,)], (10,), 20, weights=[0.5])
        assert [series.log_value(n) is None for n in range(21)] == [False] * 11 + [True] * 10
        assert _hex_values(series) == _advance_loop([(-1,)], (10,), 20, [0.5])

    @pytest.mark.parametrize("start, p, cycle, stop", [
        ((1, 1), 0.3, 2, 5), ((0, 2), 0.4, 3, 5), ((0, 4), 1 / 3, 177, 177),
    ], ids=["halfspace-0.3", "halfspace-0.4", "halfspace-1/3"])
    def test_enumerate_halfspace_ops_stop_once_cycled(self, start, p, cycle, stop, monkeypatch):
        # the half-space series of the `enumerate` benchmark at seed 0: layer
        # `cycle` is the first to equal the layer two back, and the cycle is
        # found when a snapshot equals one taken two layers back, at most
        # three layers later
        steps, start_arr, w, _ = counting._dp_inputs(HS_STEPS, start, 1500, _hs_weights(p), False)
        dp = counting._LayerDP(steps, w, start_arr, 1500, exact=False)
        layers = [(dp.lo, dp.layer.shape, dp.snapshot())]
        while len(layers) < 3 or layers[-1] != layers[-3]:
            dp.advance()
            layers.append((dp.lo, dp.layer.shape, dp.snapshot()))
        assert len(layers) - 1 == cycle
        calls = _count_dp_calls(monkeypatch)
        series = cw.count_walks(HS_STEPS, start, 1500, weights=_hs_weights(p))
        assert calls["advance"] == stop
        assert _hex_values(series) == _advance_loop(HS_STEPS, start, 1500, _hs_weights(p))

    @pytest.mark.parametrize("steps, start, n, weights", [
        *[([(1,), (-1,)], (a,), 2000, (0.25, 0.75)) for a in range(4)],
        (S5, (0, 0), 400, None), (S5, (1, 1), 400, None),
    ], ids=["d1-0", "d1-1", "d1-2", "d1-3", "s5-0", "s5-1"])
    def test_series_that_never_cycle_take_no_snapshot(self, steps, start, n, weights,
                                                      monkeypatch):
        # the 1-D and S5 series of the `enumerate` benchmark: the layout key
        # and max often match two layers back, the total mantissa never does,
        # so their cells are never compared
        calls = _count_dp_calls(monkeypatch)
        cw.count_walks(steps, start, n, weights=weights)
        assert calls == {"advance": n, "snapshot": 0}


STEPS_25 = list(itertools.product(range(-2, 3), repeat=2))


def _box_reference(steps, start, n):
    """The object-dtype box-layout reference run exactly to n: its totals for
    0..n and its endpoint counts at n."""
    steps, start, _, _ = counting._dp_inputs(steps, start, n, None, True)
    ref = _BoxLayerDP(steps, None, start, exact=True)
    totals = [ref.total()]
    for _ in range(n):
        ref.advance()
        totals.append(ref.total())
    return totals, dict(ref.endpoint_items())


class TestExactLimbs:
    """Exact counts on uint64 limbs equal the object-dtype box-layout
    reference, past 2^64 and 2^128 and across limb boundaries."""

    def test_25_steps(self):
        # r = 58, so 25^40 takes four limbs
        dp = _layouts_agree(STEPS_25, (1, 2), 40, None, True, counting.FLOAT_TRIM)
        assert dp._limbs == 4

    def test_1d_counts_pass_2_64_and_2_128(self):
        steps = [(-1,), (0,), (1,), (2,)]
        series = cw.count_walks(steps, (0,), 120, mode="exact")
        totals, layer = _box_reference(steps, (0,), 120)
        assert list(series.values) == totals
        assert any(2**64 < v < 2**128 for v in totals) and totals[-1] > 2**128
        assert cw.end_point_counts(steps, (0,), 120) == layer

    def test_3d(self):
        # r = 60, so 4^36 takes two limbs
        series = cw.count_walks(D3, (1, 0, 2), 36, mode="exact")
        totals, layer = _box_reference(D3, (1, 0, 2), 36)
        assert list(series.values) == totals and totals[-1] > 2**60
        assert cw.end_point_counts(D3, (1, 0, 2), 36) == layer

    def test_end_point_counts(self):
        counts = cw.end_point_counts(STEPS_25, (0, 3), 30)
        assert counts == _box_reference(STEPS_25, (0, 3), 30)[1]
        assert max(counts.values()) > 2**64

    @pytest.mark.parametrize("copies", [8, 31, 64, 1000])
    def test_counts_at_the_bound(self, copies):
        # every walk ends on the one cell, so its count is |S|^n, the bound
        # the limbs are sized by; 8^n = 2^(3n) fills its limbs exactly
        # (r = 59) at n = 59, 118 and 177, and 64^n (r = 56) at every n = 28k
        series = cw.count_walks([(0,)] * copies, (0,), 200, mode="exact")
        assert series.values == tuple(copies**k for k in range(201))

    def test_past_one_block_at_the_exact_cap(self):
        # at n = 200 the S5 layer spans 41,001 cells of its flat range on 8
        # limbs, past one block, so every block after the first is written
        # by the step that first reaches it
        steps, start, _, _ = counting._dp_inputs(S5, (0, 0), 200, None, True)
        dp = counting._LayerDP(steps, None, start, 200, exact=True)
        for _ in range(200):
            dp.advance()
        assert dp._end - dp._first > counting.PRODUCT_BLOCK and dp._limbs == 8
        exact = cw.count_walks(S5, (0, 0), 200, mode="exact")
        logs = cw.count_walks(S5, (0, 0), 200)
        assert exact.values[-1] == dp.total()
        for m in range(201):
            le, ll = exact.log_value(m), logs.log_value(m)
            assert abs(le - ll) <= 1e-12 * max(1.0, abs(le))

    def test_values_are_python_ints(self):
        series = cw.count_walks(S5, (0, 0), 60, mode="exact")
        counts = cw.end_point_counts(S5, (0, 0), 60)
        assert all(type(v) is int for v in series.values)
        assert all(type(v) is int and all(type(c) is int for c in p) for p, v in counts.items())
        assert sum(counts.values()) == series.values[60] > 2**64


def _sub_box(rng):
    """A box of 1-3 axes and up to about 40,000 cells, a sub-box of it that
    often holds most of it and spans some axes whole, and pads for the box's
    axes k >= 1."""
    d = int(rng.integers(1, 4))
    side = {1: 20000, 2: 200, 3: 34}[d]
    box = [int(v) for v in rng.integers(1, side + 1, d)]
    cut = [0 if rng.random() < 0.3 else int(rng.integers(0, min(4, k))) for k in box]
    shape = [k - c - int(rng.integers(0, (k - c + 1) // 2)) for k, c in zip(box, cut)]
    pads = [int(v) for v in rng.integers(0, 5, d - 1)]
    return box, cut, shape, pads


class TestPaddedSum:
    """A float layer's total is summed in the padded layout unless its box
    spans the whole untrimmed box on some axis k >= 1: only there can numpy
    merge axes, which changes the pairwise sum's rounding."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1))
    def test_padded_sum_is_the_unpadded_sum(self, seed):
        rng = np.random.default_rng(seed)
        box, cut, shape, pads = _sub_box(rng)
        values = rng.random(shape) * 10.0 ** rng.uniform(-3, 3, shape)
        index = tuple(slice(c, c + k) for c, k in zip(cut, shape))
        padded = np.zeros([box[0]] + [k + p for k, p in zip(box[1:], pads)])
        unpadded = np.zeros(box)
        padded[index] = unpadded[index] = values
        if not any(k == b for k, b in zip(shape[1:], box[1:])):
            assert padded[index].sum().hex() == unpadded[index].sum().hex()

    def test_a_whole_axis_is_summed_unpadded(self):
        # the rows span the box, so numpy sums the unpadded box as one run
        values = np.random.default_rng(1).random((40, 250))
        padded = np.zeros((40, 252))
        padded[:, :250] = values
        assert padded[:, :250].sum().hex() != values.sum().hex()


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


@st.composite
def _rate_series(draw):
    """A count series for the rate fit: exact or float, n_max in 0..80, log
    totals a noisy line (or exact powers past the double range), and zeros
    at odd or even lengths (parity), in a dead tail, or at a few lengths in
    the middle."""
    n_max = draw(st.integers(0, 80))
    exact = draw(st.booleans())
    slope = math.log(draw(st.floats(0.05, 8.0)))
    noise = draw(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3, 2.0]))
    wiggle = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_max + 1, max_size=n_max + 1))
    logs = [draw(st.floats(-5.0, 5.0)) + n * slope + noise * e for n, e in enumerate(wiggle)]
    if exact and draw(st.booleans()):
        # counts past 2^1024, as exact mode reaches them
        base, c = draw(st.integers(2, 40)), draw(st.integers(1, 10**6))
        values = [c * base ** (4 * n) + n for n in range(n_max + 1)]
    elif exact:
        values = [max(1, round(math.exp(min(lv, 600.0)))) for lv in logs]
    else:
        mantissas = draw(st.lists(st.floats(1e-3, 1e3), min_size=n_max + 1, max_size=n_max + 1))
        values = [(m, lv - math.log(m)) for m, lv in zip(mantissas, logs)]
    zeros = draw(st.sampled_from(["none", "odd", "even", "tail", "inside"]))
    if zeros == "odd":
        dead = set(range(1, n_max + 1, 2))
    elif zeros == "even":
        dead = set(range(2, n_max + 1, 2))
    elif zeros == "tail":
        dead = set(range(draw(st.integers(0, n_max)), n_max + 1))
    elif zeros == "inside":
        dead = set(draw(st.lists(st.integers(0, max(0, n_max - 1)), max_size=4))) - {n_max}
    else:
        dead = set()
    zero = 0 if exact else (0.0, 0.0)
    values = tuple(zero if n in dead else v for n, v in enumerate(values))
    return counting.CountSeries(n_max=n_max, mode=counting.EXACT if exact else counting.LOG_SCALED,
                                values=values)


def _rate_bits(est):
    assert type(est.raw_ratio) is float and type(est.extrapolated) is float
    return est.raw_ratio.hex(), est.period, est.extrapolated.hex()


class TestEstimateRateMatchesReference:
    """``estimate_rate`` on one array of logs gives the list-based reference
    copy's raw ratio, period and extrapolation bit for bit."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_rate_series())
    def test_random_series(self, series):
        assert _rate_bits(cw.estimate_rate(series)) == _rate_bits(ref_counting.estimate_rate(series))

    @pytest.mark.parametrize("values", [
        (1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 5.0, 0.0, 14.0),
        (1.0, 2.0, 0.0, 8.0, 16.0, 32.0, 0.0, 128.0, 256.0, 512.0),
        (1.0, 3.0, 9.0, 0.0, 0.0, 0.0, 729.0, 2187.0, 6561.0, 19683.0),
        (0.0, 1.0, 3.0, 9.0, 27.0),
        (1.0, 1.0, 0.0),
        (2.0, 3.0, 5.0),
        (4.0,),
    ], ids=["parity", "one-zero", "zero-run", "zero-first", "dead-last", "n_max-2", "n_max-0"])
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_hand_built_series(self, values, exact):
        values = tuple(int(v) for v in values) if exact else tuple((v, 0.0) for v in values)
        series = counting.CountSeries(n_max=len(values) - 1,
                                      mode=counting.EXACT if exact else counting.LOG_SCALED,
                                      values=values)
        assert _rate_bits(cw.estimate_rate(series)) == _rate_bits(ref_counting.estimate_rate(series))

    @pytest.mark.parametrize("steps, start, n, weights, mode", [
        *[([(1,), (-1,)], (a,), 2000, (0.25, 0.75), "log_scaled") for a in range(4)],
        *[(HALFSPACE_MODEL, start, 1500, _hs_weights(p), "log_scaled")
          for start, p in (((1, 1), 0.3), ((0, 2), 0.4), ((0, 4), 1 / 3), ((2, 2), 0.4))],
        (S5, (0, 0), 400, None, "log_scaled"), (S5, (1, 1), 1200, None, "log_scaled"),
        (S5, (0, 1), 150, None, "exact"), (D3, (1, 1, 1), 120, None, "log_scaled"),
        (NSEW, (1, 1), 200, None, "log_scaled"), (ENSWS, (1, 1), 300, (0.2,) * 5, "log_scaled"),
    ])
    def test_bench_series(self, steps, start, n, weights, mode):
        series = cw.count_walks(steps, start, n, weights=weights, mode=mode)
        assert _rate_bits(cw.estimate_rate(series)) == _rate_bits(ref_counting.estimate_rate(series))


class TestCramerIdentity:
    def test_zero_tilt_is_exact(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        assert cw.cramer_identity_check(m, [0.0], (0,), 20) == 0.0

    def test_1d_tilt_at_minimizer(self):
        m = cw.probability_measure([(1,), (-1,)], [0.25, 0.75])
        err = cw.cramer_identity_check(m, [0.5 * math.log(3.0)], (0,), 20)
        assert err <= 1e-10

    def test_2d_tilt_at_minimizer(self):
        m = cw.from_step_set(NSEW_SW)
        cert = cw.minimize_on_dual(cw.FiniteLaplace(m), cw.orthant(2))
        err = cw.cramer_identity_check(m, cert.x_star, (1, 1), 15)
        assert err <= 1e-9

    def test_horizon_capped(self):
        m = cw.from_step_set(NSEW)
        with pytest.raises(ValueError):
            cw.cramer_identity_check(m, [0.0, 0.0], (0, 0), 31)

    @pytest.mark.parametrize("start", [(1.5, 1), (2**63, 1)])
    def test_start_not_an_int64_lattice_point_raises(self, start):
        # checked before any cast: neither truncated to (1, 1) nor an OverflowError
        m = cw.from_step_set(NSEW)
        with pytest.raises(ValueError, match="lattice point"):
            cw.cramer_identity_check(m, [0.1, 0.2], start, 5)


class TestFindDelta:
    def test_nsew_zero_delta(self):
        res = cw.find_delta(NSEW, cw.orthant(2))
        assert res.found and res.delta == 0.0 and res.n0 == 2
        assert sorted(res.path) == [(0, 1), (1, 0)]

    def test_cone_of_another_dimension_raises(self):
        with pytest.raises(ValueError, match="cone dimension"):
            cw.find_delta(NSEW, cw.orthant(3))

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
        res = cw.find_delta(steps, cw.orthant(2))
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


class TestLatticeReduction:
    """The DP runs on steps / g per axis and the lattice search on steps / g
    for the global gcd g, so spreading the steps apart costs nothing."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 3).flatmap(lambda d: st.tuples(
        st.lists(st.sampled_from([v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]),
                 min_size=1, max_size=6, unique=True),
        st.lists(st.integers(0, 3), min_size=d, max_size=d),
        st.lists(st.sampled_from([2, 3, 1000]), min_size=d, max_size=d),
        st.lists(st.integers(0, 999), min_size=d, max_size=d))))
    def test_spread_steps_count_the_same(self, case):
        steps, start, g, r = case
        g, r = np.array(g), np.array(r) % np.array(g)
        n = {1: 30, 2: 20, 3: 8}[len(g)]
        spread_steps, spread_start = np.array(steps) * g, np.array(start) * g + r
        series = cw.count_walks(spread_steps, spread_start, n, mode="exact")
        assert series.values == cw.count_walks(steps, start, n, mode="exact").values
        layer = cw.end_point_counts(spread_steps, spread_start, n)
        assert layer == {tuple((np.array(z) * g + r).tolist()): v
                         for z, v in cw.end_point_counts(steps, start, n).items()}

    def test_thousand_spaced_steps(self):
        # a dense box over the spread lattice would hold about 10^13 cells
        steps = np.array(NSEW_SW) * 1000
        for mode in ("exact", "log_scaled"):
            assert (cw.count_walks(steps, (1, 1), 60, mode=mode).values
                    == cw.count_walks(NSEW_SW, (0, 0), 60, mode=mode).values)

    def test_scaled_lattice_search(self):
        steps = np.array(NSEW_SW) * 10**9
        res = cw.check_h3(steps)
        unit = cw.check_h3(NSEW_SW).path
        assert res.ok and res.path == tuple(tuple(int(v) * 10**9 for v in s) for s in unit)
        fd = cw.find_delta(steps, cw.orthant(2))
        assert fd.found and fd.path == res.path

    def test_generated_cone_not_found_with_witness(self):
        cone = cw.generated([[1.5, 0.5], [0.5, 1.5]])
        res = cw.find_delta(HALFSPACE_MODEL, cone)
        assert not res.found
        h2 = cw.check_h2prime(cw.from_step_set(HALFSPACE_MODEL), cone)
        assert res.h2_witness.tobytes() == h2.witness.tobytes()


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
