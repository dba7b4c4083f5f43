import math

import numpy as np
import pytest

import conewalks as cw

HALFSPACE_MODEL = [(1, -1), (-1, 1), (-1, -1)]


def segment_dp_rate(N, n=2000):
    """Independent 1-d oracle: survival of the +-1 walk on {0..2N} by direct
    transfer-matrix iteration with absorbing exits, period-2 tail ratio."""
    size = 2 * N + 1
    T = np.zeros((size, size))
    for i in range(size):
        if i > 0:
            T[i - 1, i] = 0.5
        if i < size - 1:
            T[i + 1, i] = 0.5
    v = np.zeros(size)
    v[min(1, size - 1)] = 1.0
    log_scale = 0.0
    prev_log = None
    ratio = None
    for step in range(1, n + 1):
        v = T @ v
        mx = v.max()
        if mx == 0.0:
            return 0.0
        v /= mx
        log_scale += math.log(mx)
        if step == n - 2:
            prev_log = math.log(v.sum()) + log_scale
        if step == n:
            ratio = math.exp((math.log(v.sum()) + log_scale - prev_log) / 2.0)
    return ratio


class TestHalfspaceRate:
    def test_proposition_value(self):
        assert abs(cw.halfspace_rate(1 / 3, 1) - math.sqrt(2.0) / 3.0) <= 1e-15

    def test_monotone_in_n_toward_2q(self):
        p = 1 / 3
        q = (1 - p) / 2
        rates = [cw.halfspace_rate(p, N) for N in range(1, 12)]
        assert all(b > a for a, b in zip(rates, rates[1:]))
        assert all(r < 2 * q for r in rates)
        assert 2 * q - rates[-1] < 0.02

    def test_degenerate_p_near_one(self):
        assert cw.halfspace_rate(0.999, 5) < 1e-3

    def test_p_out_of_range(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                cw.halfspace_rate(p, 1)

    def test_weights(self):
        assert np.allclose(cw.families.halfspace_weights(1 / 3), [1 / 3, 1 / 3, 1 / 3])


class TestSegmentRate:
    def test_small_segments(self):
        assert abs(cw.segment_rate(1) - math.sqrt(2.0) / 2.0) <= 1e-15
        assert abs(cw.segment_rate(2) - math.sqrt(3.0) / 2.0) <= 1e-15

    def test_matches_spectral_oracle(self):
        for N in range(1, 41):
            assert abs(cw.segment_operator_eigenvalue(N) - cw.segment_rate(N)) <= 1e-14

    def test_matches_segment_dp(self):
        for N in (1, 2, 3):
            assert abs(segment_dp_rate(N) - cw.segment_rate(N)) <= 1e-3


class TestHalfspaceVerify:
    def test_n1_matches_closed_form(self):
        check = cw.halfspace_verify(1 / 3, 1, (1, 1), 1500)
        assert check.abs_error <= 5e-3
        assert abs(check.closed_form - math.sqrt(2.0) / 3.0) <= 1e-15

    def test_same_diagonal_same_rate(self):
        a = cw.halfspace_verify(1 / 3, 2, (2, 2), 1500)
        b = cw.halfspace_verify(1 / 3, 2, (3, 1), 1500)
        assert abs(a.dp_estimate - b.dp_estimate) <= 5e-3
        # the verify call itself reports an alternate same-diagonal start
        assert abs(a.dp_estimate - a.alt_estimate) <= 5e-3
        assert a.alt_start == (4, 0)

    def test_rates_scale_with_cosine_factor(self):
        r1 = cw.halfspace_verify(1 / 3, 1, (1, 1), 1500).dp_estimate
        r2 = cw.halfspace_verify(1 / 3, 2, (2, 2), 1500).dp_estimate
        expected = math.cos(math.pi / 6.0) / math.cos(math.pi / 4.0)
        assert abs(r2 / r1 - expected) <= 1e-2

    def test_off_diagonal_start_rejected(self):
        with pytest.raises(ValueError):
            cw.halfspace_verify(1 / 3, 1, (2, 1), 100)
        with pytest.raises(ValueError):
            cw.halfspace_verify(1 / 3, 1, (-1, 3), 100)

    @pytest.mark.parametrize("start", [(2.9, 2.9), (2.5, 2.5), (2, 2.5)])
    def test_fractional_start_rejected(self, start):
        # int() truncated (2.9, 2.9) to (2, 2) and reported that start's rate
        with pytest.raises(ValueError, match="lattice point"):
            cw.halfspace_verify(0.4, 2, start, 50)

    def test_integral_float_start_accepted(self):
        assert cw.halfspace_verify(0.4, 2, (2.0, 2.0), 50) == cw.halfspace_verify(0.4, 2, (2, 2), 50)

    def test_other_bias(self):
        # heavier diagonal jump shrinks q and the rate with it
        check = cw.halfspace_verify(0.6, 1, (1, 1), 1200)
        assert check.abs_error <= 5e-3
        assert abs(check.closed_form - 2 * 0.2 * math.cos(math.pi / 4.0)) <= 1e-15


class TestModelSitsOutsideTheoremScope:
    def test_h2prime_fails_with_diagonal_witness(self):
        res = cw.check_h2prime(cw.from_step_set(HALFSPACE_MODEL), cw.orthant(2))
        assert not res.proper
        assert np.allclose(res.witness, [0.5, 0.5], atol=1e-9)

    def test_solver_refuses(self):
        with pytest.raises(cw.ImproperModelError):
            cw.minimize_on_dual(cw.FiniteLaplace(cw.from_step_set(HALFSPACE_MODEL)),
                                cw.orthant(2))
