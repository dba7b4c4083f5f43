"""A walk family whose decay rate depends on the starting point.

The three-step walk with jumps (1,-1), (-1,1), (-1,-1) and probabilities
q, q, p never increases the coordinate sum, so its support sits in the
half-space cut out by the diagonal: the universal dual-cone rate theorem
does not apply. Started on the diagonal i + j = 2N the quarter-plane
survival decays at 2 q cos(pi / (2N + 2)) -- a different constant on every
diagonal, approaching 2q from below as the diagonal recedes.
"""

import math

import numpy as np

import conewalks as cw

P = 1 / 3  # diagonal jump probability; q = (1 - p) / 2 = 1/3

# --- the model is improper: a witness direction proves it --------------------
measure = cw.probability_measure(cw.families.HALFSPACE_STEPS,
                                 cw.families.halfspace_weights(P))
res = cw.check_h2prime(measure, cw.orthant(2))
print(f"proper: {res.proper}; witness u = {res.witness} "
      "(every step has <u, s> <= 0)")

# the delta search confirms no shifted cone ever certifies a universal rate
fd = cw.find_delta(cw.families.HALFSPACE_STEPS, cw.orthant(2))
print(f"delta search: found = {fd.found} (no path ever re-enters the interior)")

# --- rate ladder across diagonals, exact DP vs closed form ------------------
print(f"\nclosed form vs enumeration (p = q = 1/3), horizon 1500:")
print(f"{'N':>3} {'start':>8} {'closed form':>14} {'DP estimate':>14} {'error':>10}")
for N in (1, 2, 3):
    check = cw.halfspace_verify(P, N, (N, N), 1500)
    print(f"{N:>3} {str((N, N)):>8} {check.closed_form:>14.10f} "
          f"{check.dp_estimate:>14.10f} {check.abs_error:>10.2e}")

# --- the rate is a function of the diagonal alone ----------------------------
check = cw.halfspace_verify(P, 2, (3, 1), 1500)
print(f"\nstart (3,1) on the same diagonal as (2,2): "
      f"DP estimate {check.dp_estimate:.10f} (closed {check.closed_form:.10f})")

# --- the segment factor has its own spectral identity ------------------------
print("\nsegment factor cos(pi/(2N+2)) vs the tridiagonal operator's top "
      "eigenvalue (np.linalg.eigvalsh):")
for N in (1, 2, 3, 4):
    spectral = cw.segment_operator_eigenvalue(N)
    print(f"  N={N}: formula {cw.segment_rate(N):.12f}, spectral {spectral:.12f}")

# --- the limit 2q: conditioned on never jumping south-west, the walk is a
#     segment-confined simple walk, and cos -> 1 as the segment widens -------
q = (1 - P) / 2
widths = [1, 2, 5, 10, 25]
print(f"\n2q = {2 * q:.6f}; rates approach it from below:")
print("  " + ", ".join(f"N={N}: {cw.halfspace_rate(P, N):.6f}" for N in widths))
