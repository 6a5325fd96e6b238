#!/usr/bin/env python3
"""The product tower and the combinatorial engine behind recurrence.

Tower: each stage turns a measure beta (transform vanishing on the
stage's set R, atom at 0 above eps') into a positive polynomial with
unit mean, then multiplies it into the running product after dilating
frequencies by 2*N_j.  The running product's transform freezes below
each new dilation scale and pins the value -eps' at 2*N_j*r for r in R.

Digit lemma: inside any dense subset of [Q^P], quantitative Poincare
recurrence for the shift-by-4 map plus an agreement-pair search produce
a difference whose base-Q digits land in prescribed windows.
"""

import numpy as np

from vdcset import combinatorics as cb
from vdcset import measures as ms
from vdcset import tower

print("=== A two-stage tower ===")
eps_prime = 0.3
beta = ms.AtomicMeasure(2, np.array([0.5, 0.5]))  # kills frequency 1, atom 1/2
stages = [
    tower.TowerStage(r_set=(1,), n=1, eps_prime=eps_prime, max_freq=7, dilation=7),
    tower.TowerStage(r_set=(1,), n=1, eps_prime=eps_prime, max_freq=7, dilation=113),
]
c1, c2 = tower.build_tower(stages, [beta, beta])
print(f"stage polynomials dilated by 2*7 and 2*113; degrees {c1.degree}, {c2.degree}")
print(f"unit mean: c1_hat(0) = {c1.coeff(0).real:.12f}, c2_hat(0) = {c2.coeff(0).real:.12f}")
print(f"marked frequency stage 1: c1_hat(2*7*1)  = {c1.coeff(14).real:+.12f} (pins -eps')")
print(f"frozen window:            c2_hat(2*7*1)  = {c2.coeff(14).real:+.12f} (unchanged)")
print(f"marked frequency stage 2: c2_hat(2*113*1) = {c2.coeff(226).real:+.12f}")
tail = max((abs(m) for m in c1.coeffs), default=0)
print(f"stage-1 spectrum dies before the next dilation: max |m| = {tail} < 113")

print("\n=== Quantitative Poincare recurrence ===")
mask = np.zeros(8, dtype=bool)
mask[[0, 4]] = True  # E = {0, 4} as a bool mask of the 8 points
n, overlap = cb.strong_poincare([(x + 1) % 8 for x in range(8)], mask)
print(f"rotation by 1 on 8 points, E = {{0,4}}: returns n={n} with overlap {overlap} "
      f">= density^2/2 = {(2 / 8) ** 2 / 2}")

print("\n=== Agreement pairs in dense subsets of Z_Q^P ===")
rng = np.random.default_rng(7)
space = 4**4
members = np.zeros(space, dtype=bool)  # B as a bool mask of the Q^P cells
members[rng.choice(space, size=space // 2 + 30, replace=False)] = True
pair = cb.find_agreement_pair(members, ell=2, q=4, p=4)
print(f"|B| = {members.sum()} > Q^P/ell = {space // 2} with P > Q log ell: pair found")
print(f"  x  = {pair.x}")
print(f"  x' = {pair.x_prime}")
print(f"  agreeing below s={pair.s}, x_s=0 vs x'_s=Q/2, distance <= 2 above")

print("\n=== Digit differences of dense sets ===")
space = 64**2
members = np.zeros(space, dtype=bool)
members[rng.choice(space, size=int(0.97 * space), replace=False)] = True
y = cb.digit_difference(members, j=1, q=64, p=2)
digits = cb.int_to_digits(y, 64, 2)
print(f"dense E of size {members.sum()} in [64^2]: difference y = {y}, digits {digits}")
print("  one digit in [32, 40), the other in [1, 8) - a guaranteed witness zero")
print(f"  y really is a difference: {(members[: space - y] & members[y:]).any()}")  # e + y in E
