#!/usr/bin/env python3
"""The witness measure and its guaranteed digit-pattern zeros.

Convolving blocks for k = 0..P-1 (all with ell = 8j) produces a measure
sigma on the Q^P-th roots of unity whose transform is a product of block
transforms.  At any integer y whose base-Q digits lie in [1, 8j) except
one digit in [Q/2, Q/2 + 8j), exactly one factor contributes -1 and the
rest contribute +1, so sigma_hat(y) = -1 and the normalised measure
mu = (sigma + dirac_0)/(mass + 1) has mu_hat(y) = 0 while keeping a
positive atom at 0.  Such a y exists inside E - E for every dense E,
which is the recurrence half of the story.
"""

import numpy as np

from vdcset import blocks, combinatorics

j, q, p = 1, 64, 2
params = blocks.WitnessParams(j=j, epsilon=0.01, q=q, p=p)
print(f"witness parameters: j={j}, Q={q}, P={p} "
      f"(canonical P would be {params.canonical_p}; this run is relaxed={params.relaxed})")

mu, sigma = blocks.build_witness(params)
print(f"sigma order {sigma.order}, mass {sigma.mass():.6f}")
print(f"mu is a probability measure: mass = {mu.mass():.12f}")
print(f"atom of mu at 0: {float(mu.weights[0]):.9f} "
      f"(guaranteed >= {params.atom_lower_bound():.9f})")

members = blocks.digit_pattern_members(j, q, p)
print(f"\ndigit patterns: {len(members)} integers "
      f"(P * 8j * (8j-1)^(P-1) = {p * 8 * j * (8 * j - 1) ** (p - 1)})")
print("first few members with their digits:")
for y in members[:5]:
    print(f"  y = {y:5d}, base-{q} digits {combinatorics.int_to_digits(y, q, p)}")

worst = max(abs(mu.fourier(y)) for y in members)
print(f"\nmax |mu_hat(y)| over all {len(members)} patterns: {worst:.3e}")

print("\nthe transform is a product of block transforms (spot check):")
parts = [blocks.build_block(blocks.BlockParams(8 * j, q, k)) for k in range(p)]
rng = np.random.default_rng(0)
for y in sorted(int(v) for v in rng.integers(0, q**p, size=4)):
    digits = combinatorics.int_to_digits(y, q, p)
    partial, predicted = 0, 1.0 + 0.0j
    for k in range(p):
        partial += digits[k] * q**k
        predicted *= parts[k].fourier(partial)
    print(f"  y={y:5d}: sigma_hat={sigma.fourier(y).real:+.6f} "
          f"product={predicted.real:+.6f}")

zeros = blocks.zero_set(mu, 200)
print(f"\nzeros of mu_hat up to 200: {sorted(zeros)}")
print("(patterns are guaranteed zeros; reflections of the -1 band add more)")
