"""Seeded Monte Carlo estimation of cone non-exit probabilities.

Randomness comes from a counter-based Philox stream keyed on the seed. Step k
draws all T = config.trials uniforms at once, so the draw of (step k, trial t)
sits at stream position (k-1)*T + t whether or not trial t is still inside:
results are a pure function of (seed, model, start, config) and cannot depend
on how trials would be scheduled. Only walkers still inside the cone move,
and only their positions are kept: the walkers that leave at a step are
removed by index, one `nonzero` of the survivors whose rows are then taken,
so the survivors' positions stay one C-ordered (L, d) array. A statistic
receives a (T, d) position array, built at the checkpoint from the start with
the live rows written in, and the `alive` mask; a dead walker's row holds the
start, not where it left, so a statistic must mask it.

Steps are chosen from the raw 64-bit Philox words, not from doubles. numpy's
uniform double is `(raw >> 11) * 2**-53`, so `u >= c` holds exactly when
`raw >= ceil(c * 2**53) << 11`; the step index is the number of such integer
thresholds a word reaches, one per cumulative weight below 1, which is what
`searchsorted(cumsum(weights), u, side="right")` clipped to the last step
gives, counted in the smallest integer type that holds it. On the orthant
only the coordinates that some step decreases, or that start negative within
the membership tolerance, are tested: a nonnegative coordinate plus a
nonnegative step stays nonnegative, in int64 and in floats. Lattice walks run
in int64 unless |start| + n |step| could reach 2**63.

A lattice walk that cannot leave its cone (the orthant, with no step that
decreases a coordinate and no negative start) is not moved step by step: only
the checkpoints read positions, and a position is start plus the number of
times each step was taken times that step. Those numbers come from counts: C_j
counts the words at or above threshold t_j, so step i was taken
C_i - C_{i+1} times (step 0: k - C_1; the last: C_m). The words of up to
DRAW_BLOCK // T steps (DRAW_BLOCK = 2**16 words, 512 KiB) are drawn in one
`random_raw` call, which returns the same words as that many calls of T
words, and no block crosses a checkpoint. A block of b steps adds each
threshold's mask as bytes, summed per walker in the smallest unsigned type
that holds b, since a block's count is at most b; that row is then added to
the int64 counts. Every count is at most k, so every partial sum stays within
|start| + k |step|, below the 2**63 bound the int64 test already checks, and
the integer result equals the per-step one exactly. Float walks keep the
per-step loop, since their sums round in the order the steps were taken.

The tilted estimator simulates under the exponentially changed measure at the
rate minimizer and reweights back, which is unbiased for the original
survival probability and much tighter when the drift points out of the cone.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import cones, laplace, steps as steps_mod


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    trials: int = 10000
    n: int = 100

    def __post_init__(self):
        for name in ("seed", "trials", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be in 0..2**128 - 1, the Philox key range")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.n < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class SimResult:
    estimate: float
    stderr: float


def _row_membership(cone, pos, trials, coords):
    """Which rows of `pos`, walkers out of `trials`, lie in the cone.

    The orthant is tested one coordinate at a time, on the non-empty list
    `coords` only; the other cones ignore it. Their matrix products round a
    row the same way for any number of rows but one: numpy takes a single row
    through another BLAS routine, which can put a boundary point on the other
    side, so a lone survivor is tested as two copies, as it was among all the
    trials.
    """
    if cone.kind == cones.ORTHANT:
        inside = pos[:, coords[0]] >= 0
        for c in coords[1:]:
            inside &= pos[:, c] >= 0
        return inside
    if pos.shape[0] == 1 < trials:
        return _row_membership(cone, np.repeat(pos, 2, axis=0), trials, coords)[:1]
    return (pos @ cone.normals.T >= 0).all(axis=1)


def _mean_stderr(samples):
    est = float(samples.mean())
    if samples.size < 2:
        return est, 0.0
    return est, float(samples.std(ddof=1) / math.sqrt(samples.size))


# Philox words drawn per `random_raw` call on the counting path (512 KiB).
# Larger blocks spend fewer Python-level calls per word. On the `simulate`
# bench 2**15 and 2**16 ran within noise of each other (2**15 used 0.7 MB
# less peak RSS), both well ahead of 2**14; 2**17 was slower.
DRAW_BLOCK = 2**16


def _step_thresholds(weights):
    """The uint64 words at or above which the step index goes up by one.

    A cumulative weight at or above 1 is never reached and gets no threshold.
    """
    cumw = np.cumsum(weights)[:-1].tolist()
    return np.array([math.ceil(c * 2**53) << 11 for c in cumw if c < 1.0], dtype=np.uint64)


def _choose_steps(raw, thresholds):
    """The step index of each raw word: how many thresholds it reaches, in
    the smallest integer type that holds the count."""
    idx = np.zeros(raw.size, dtype=np.min_scalar_type(thresholds.size))
    for t in thresholds:
        idx += (raw >= t).view(np.uint8)  # a bool mask adds as its bytes
    return idx


def _count_steps(start, steps, thresholds, bitgen, trials, checkpoints, statistic):
    """The per-step loop's statistics for a lattice walk that cannot exit,
    with positions formed at each checkpoint from counts of the words that
    reach each threshold (see the module docstring). A block of
    b <= DRAW_BLOCK // trials steps sums each mask as bytes in the smallest
    unsigned type that holds b, as a walker's count in a block is at most b."""
    counts = np.zeros((thresholds.size, trials), dtype=np.int64)
    steps = steps[:thresholds.size + 1]  # the steps past a cumulative weight of 1 are never taken
    alive = np.ones(trials, dtype=bool)
    per_block = max(1, DRAW_BLOCK // trials)
    out, k = {}, 0
    for stop in checkpoints:
        while k < stop:
            b = min(per_block, stop - k)
            raw = bitgen.random_raw(b * trials).reshape(b, trials)
            tally = np.min_scalar_type(b)
            for row, t in zip(counts, thresholds):
                row += np.add.reduce((raw >= t).view(np.uint8), axis=0, dtype=tally)
            k += b
        taken = -np.diff(counts, axis=0, prepend=k, append=0)  # C_i - C_{i+1}, C_0 = k
        out[k] = statistic(k, start + taken.T @ steps, alive)
    return out


def _simulate(m, start, cone, config, checkpoints, statistic):
    """Drive the walk ensemble and evaluate `statistic` at each checkpoint."""
    start = np.asarray(start)
    if start.shape != (m.dim,):
        raise ValueError(f"start must have length {m.dim}, got shape {start.shape}")
    # an absolute tolerance: a far start must not excuse a coordinate outside
    if cones._membership_violation(cone, cones._check_dim(cone, start)) > cones.DEFAULT_TOL:
        raise ValueError("start lies outside the cone")
    wanted = set(checkpoints)
    if not all(isinstance(k, numbers.Integral) and 1 <= k <= config.n for k in wanted):
        raise ValueError(f"checkpoints must be integers in 1..{config.n}")
    top_step = np.abs(m.steps).max()
    lattice = (m.is_lattice() and np.all(start == np.round(start))
               and np.isfinite(top_step)
               # no coordinate can wrap in int64 before n steps; the start's
               # magnitudes are Python ints, as abs(-2**63) wraps in int64
               and max(abs(int(v)) for v in start.tolist()) + config.n * int(top_step) < 2**63)
    if lattice:
        steps = m.steps.astype(np.int64)
        start = start.astype(np.int64)
    else:
        steps = m.steps
        start = start.astype(float)
    coords = np.flatnonzero((steps.min(axis=0) < 0) | (start < 0)).tolist()
    can_exit = cone.kind != cones.ORTHANT or bool(coords)
    trials = config.trials
    thresholds = _step_thresholds(m.weights)
    bitgen = np.random.Philox(key=config.seed)
    if lattice and not can_exit:
        return _count_steps(start, steps, thresholds, bitgen, trials, sorted(wanted), statistic)
    live = np.arange(trials)  # trial numbers of the walkers still inside
    live_pos = np.tile(start, (trials, 1))
    out = {}
    for k in range(1, config.n + 1):
        raw = bitgen.random_raw(trials)
        if live.size < trials:
            raw = raw.take(live)
        live_pos += steps.take(_choose_steps(raw, thresholds), axis=0)
        if can_exit:
            inside = _row_membership(cone, live_pos, trials, coords)
            keep = inside.nonzero()[0]
            if keep.size < live.size:
                live = live.take(keep)
                live_pos = live_pos.take(keep, axis=0)
        if k in wanted:
            pos = np.tile(start, (trials, 1))
            pos[live] = live_pos
            alive = np.zeros(trials, dtype=bool)
            alive[live] = True
            out[k] = statistic(k, pos, alive)
    return out


def simulate_survival(m, start, cone, config):
    """Plain Monte Carlo estimate of P[walk stays in the cone through n]."""

    def stat(_k, _pos, alive):
        return _mean_stderr(alive.astype(float))

    est, se = _simulate(m, start, cone, config, {config.n}, stat)[config.n]
    return SimResult(est, se)


def tilted_survival(m, cert, start, cone, config):
    """Importance-sampling estimate of the same survival probability.

    Simulates under the measure tilted at the certificate's minimizer x* and
    reweights by rho^n e^{<x*, start - S_n>}; exact reweighting makes the
    estimator unbiased for the original law.
    """
    x_star = np.asarray(cert.x_star, dtype=float)
    tilted = laplace.tilt(m, x_star)
    log_rho = math.log(cert.rho)
    base = float(x_star @ np.asarray(start, dtype=float))

    def stat(k, pos, alive):
        logw = k * log_rho + base - pos @ x_star
        contrib = np.where(alive, np.exp(logw), 0.0)
        return _mean_stderr(contrib)

    est, se = _simulate(tilted, start, cone, config, {config.n}, stat)[config.n]
    return SimResult(est, se)


@dataclass(frozen=True)
class BandResult:
    estimate: float
    stderr: float
    alpha_flagged: bool
    series: tuple = ()


def band_survival(m, start, cone, v, alpha, config, checkpoints=()):
    """Estimate of P[stay in the cone through n, |<v, S_n>| <= alpha sqrt(n)].

    Requires the drift inside the cone and v orthogonal to the drift; under
    a full-dimensional support this is the regime where the band-restricted
    non-exit probability decays subexponentially. alpha <= 0 is flagged (the
    statement needs some positive alpha).
    """
    drift = steps_mod.mean(m)
    if not cones.contains(cone, drift, tol=1e-10):
        raise ValueError("band check requires the drift inside the cone")
    v = np.asarray(v, dtype=float)
    if abs(float(v @ drift)) > 1e-10 * max(1.0, float(np.linalg.norm(v)) * float(np.linalg.norm(drift))):
        raise ValueError("band direction v must be orthogonal to the drift")
    flagged = alpha <= 0.0

    def stat(k, pos, alive):
        inband = alive & (np.abs(pos @ v) <= alpha * math.sqrt(k))
        return _mean_stderr(inband.astype(float))

    wanted = sorted(set(checkpoints) | {config.n})
    stats = _simulate(m, start, cone, config, wanted, stat)
    series = tuple((k, stats[k][0], stats[k][1]) for k in wanted)
    est, se = stats[config.n]
    return BandResult(est, se, flagged, series)


def default_band_alpha(m, scale=4.0):
    """scale times the square root of the largest covariance eigenvalue."""
    eig = np.linalg.eigvalsh(steps_mod.covariance(m))
    return float(scale * math.sqrt(max(eig[-1], 0.0)))


@dataclass(frozen=True)
class BandDecay:
    per_step_decay: float
    series: tuple


def band_decay_fit(m, start, cone, v, alpha, horizons, config):
    """Fitted per-step decay of the band survival over a range of horizons.

    Runs one simulation to the largest horizon, records the band estimate at
    each checkpoint, and regresses log-estimate on n; a per-step decay close
    to one is the non-exponential-decay signature. Any zero estimate reports
    decay zero.
    """
    horizons = sorted(set(horizons))
    if len(horizons) < 2 or horizons[0] < 1:
        raise ValueError("band_decay_fit needs at least two distinct positive horizons")
    cfg = SimConfig(seed=config.seed, trials=config.trials, n=horizons[-1])
    result = band_survival(m, start, cone, v, alpha, cfg, checkpoints=horizons)
    pts = [(k, est) for k, est, _ in result.series]
    if any(est <= 0.0 for _, est in pts):
        return BandDecay(0.0, result.series)
    x = np.array([k for k, _ in pts], dtype=float)
    y = np.array([math.log(est) for _, est in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    return BandDecay(math.exp(slope), result.series)


def band_alpha_sensitivity(m, start, cone, v, horizons, config, scales=(2.0, 4.0, 8.0)):
    """Per-step band decay across alpha = scale * sqrt(top covariance eig)."""
    out = {}
    for scale in scales:
        alpha = default_band_alpha(m, scale=scale)
        out[scale] = band_decay_fit(m, start, cone, v, alpha, horizons, config)
    return out
