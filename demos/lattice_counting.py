"""Counting orthant-confined lattice walks and their growth constants.

The number of walks with steps from a finite set S that stay in the first
orthant grows like K_S^n, where K_S = |S| times the decay rate of the uniform
random walk on S. Exact dynamic programming provides the counts; the n-th
root of the count series converges to K_S, and scanning the hyperplanes
through the origin reproduces the same constant.
"""

import numpy as np

import conewalks as cw

NSEW = [(0, 1), (0, -1), (1, 0), (-1, 0)]
FIVE = [(1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1)]

# --- exact counts: big integers, no precision loss --------------------------
series = cw.count_walks(NSEW, (0, 0), 20, mode="exact")
print("N/S/E/W walks from the origin staying in the quarter plane:")
print(" ", list(series.values[:9]), "...")
print(f"  f(20) = {series.values[20]}")

# --- growth constant from the solver vs the n-th root of the counts ---------
growth = cw.growth_constant(FIVE)
print(f"\nfive-step model: K_S from the solver = {growth.k_s:.10f}")

counted = cw.count_walks(FIVE, (0, 0), 150, mode="exact")
est = cw.estimate_rate(counted)
print(f"n-th-root estimate from exact counts to n=150: raw {est.raw_ratio:.10f}, "
      f"extrapolated {est.extrapolated:.10f} (lag {est.period})")

# the same series in renormalized-double mode handles much longer horizons
logs = cw.count_walks(FIVE, (0, 0), 1500, mode="log_scaled")
est_long = cw.estimate_rate(logs)
print(f"log-scaled DP to n=1500: extrapolated {est_long.extrapolated:.10f}")

# --- survival probabilities are counts divided by |S|^n ---------------------
prob = cw.count_walks(FIVE, (0, 0), 150, weights=np.full(5, 0.2))
n = 100
lhs = prob.log_value(n) + n * np.log(5.0)
print(f"\ncounting/probability identity at n={n}: "
      f"|log f - (log P + n log|S|)| = {abs(lhs - counted.log_value(n)):.2e}")

# --- the minimum over hyperplane-confined relaxations is the same constant --
scan = cw.hyperplane_scan(FIVE, 2001)
print(f"\nhyperplane scan (2001 directions): min = {scan.k_min:.10f} "
      f"at direction {np.round(scan.direction, 6)}")
print(f"gap vs K_S: {scan.k_min - growth.k_s:.2e} (scan can only overshoot)")

# --- the per-endpoint layer: where do the walks end? ------------------------
layer = cw.end_point_counts([(0, 1), (1, 0)], (0, 0), 4)
print("\nendpoints of 4-step N/E walks (binomial, as they never leave Q):")
for point in sorted(layer):
    print(f"  {point}: {layer[point]}")

# --- a start shift certifying validity of the rate from every orthant point -
res = cw.find_delta(FIVE, cw.orthant(2))
print(f"\ndelta search: delta = {res.delta}, witness path {res.path} "
      f"(reaches the open orthant in {res.n0} steps)")
