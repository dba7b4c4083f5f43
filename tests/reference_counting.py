"""Frozen reference copy of `counting.estimate_rate` as it was when it formed
each lag's ratios in Python lists: the logs of ``CountSeries.log_value``, the
lengths where both totals of a lag are nonzero, and one Python division per
ratio.

`test_counting.TestEstimateRateMatchesReference` requires `estimate_rate` to
give this copy's ``raw_ratio``, ``period`` and ``extrapolated`` bit for bit.
Keep this file unchanged while that is the claim.
"""

import math

import numpy as np

from conewalks.counting import RateEstimate

STABLE_SPREAD = 1e-2

_PERIODS = (1, 2, 3, 4, 6)


def estimate_rate(series):
    logs = [series.log_value(n) for n in range(series.n_max + 1)]
    alive = [n for n, lv in enumerate(logs) if lv is not None]
    if not alive or alive[-1] == 0:
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)
    n_last = alive[-1]
    if n_last < series.n_max:
        # zeros are absorbing for confined walks: the walk died out
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)

    best = None
    chosen = None
    for p in _PERIODS:
        ms = [m for m in range(p, n_last + 1) if logs[m] is not None and logs[m - p] is not None]
        if len(ms) < 2:
            continue
        ratio_logs = [(logs[m] - logs[m - p]) / p for m in ms]
        window = ratio_logs[-max(3, len(ratio_logs) // 4):]
        spread = max(window) - min(window)
        if best is None or spread < best[0]:
            best = (spread, p, ms, ratio_logs)
        if chosen is None and spread <= STABLE_SPREAD:
            chosen = (spread, p, ms, ratio_logs)
            break
    if best is None:
        return RateEstimate(raw_ratio=0.0, period=1, extrapolated=0.0)
    spread, period, ms, ratio_logs = chosen if chosen is not None else best
    raw = math.exp(ratio_logs[-1])
    if chosen is None or len(ms) < 3:
        # no lag in {1,2,3,4,6} stabilizes the tail: report raw ratios only
        return RateEstimate(raw_ratio=raw, period=period, extrapolated=raw)

    k = max(4, len(ms) // 4)
    tail_ms = ms[-k:]
    tail_r = [math.exp(r) for r in ratio_logs[-k:]]
    x = np.array([1.0 / m for m in tail_ms])
    y = np.array(tail_r)
    slope_intercept = np.polyfit(x, y, 1)
    extrapolated = max(0.0, float(slope_intercept[1]))
    return RateEstimate(raw_ratio=raw, period=period, extrapolated=extrapolated)
