#!/usr/bin/env python3
"""Classical kernels and the positivity toolbox.

Walks through the Dirichlet and Fejer kernels, the multiplicative
factorisation F_n(t) * F_m(n t) = F_{nm}(t), the unit-coefficient
domination kernel 2*F_{2RL} - F_{RL}, and non-negative polynomials built
from convex coefficient profiles.
"""

import numpy as np

from vdcset import trigpoly as tp

print("=== Dirichlet and Fejer kernels ===")
for n in (1, 3, 8):
    d = tp.dirichlet(n)
    f = tp.fejer(n)
    print(f"n={n}: D_n(0) = {tp.evaluate(d, 0.0).real:.1f} (equals 2n+1), "
          f"F_n(0) = {tp.evaluate(f, 0.0).real:.1f} (equals n)")

print("\nFejer coefficients are the triangle 1 - |k|/n:")
print("  F_4 coefficients:", {m: round(tp.fejer(4).coeff(m).real, 3) for m in range(-4, 5)})

print("\n=== Product factorisation ===")
grid = 1000
for n, m in ((2, 3), (4, 5), (7, 8)):
    fn = tp.sample_values(tp.fejer(n), grid).real
    fm = tp.sample_values(tp.fejer(m), grid).real
    fnm = tp.sample_values(tp.fejer(n * m), grid).real
    worst = np.abs(fn * fm[(n * np.arange(grid)) % grid] - fnm).max()
    print(f"max |F_{n}(t) F_{m}({n}t) - F_{n*m}(t)| over {grid} points = {worst:.2e}")

print("\n=== Domination kernel ===")
big_r, big_l = 2, 3
kernel = tp.domination_kernel(big_r, big_l)
rl = big_r * big_l
print(f"2 F_{2*rl} - F_{rl} has coefficient exactly 1 on |m| <= {rl}:")
print("  deviations:", max(abs(kernel.coeff(m) - 1) for m in range(-rl, rl + 1)))

rng = np.random.default_rng(0)
half = [rng.normal()] + [complex(rng.normal(), rng.normal()) for _ in range(rl // 2)]
g = tp.TrigPoly.from_half(range(rl // 2 + 1), half)  # real: c_-m = conj(c_m)
f = tp.multiply(g, g)  # g^2 = |g|^2 >= 0, degree <= RL
dominated = tp.add(tp.scale(tp.convolve(f, tp.fejer(big_l)), 4 * big_r), tp.scale(f, -1))
print(f"for random f = |g|^2 of degree {f.degree}: "
      f"min of 4R*(f conv F_L) - f on a 1024 grid = {tp.grid_min(dominated, 1024):.3e}")

print("\n=== Convex profiles give non-negative polynomials ===")
profile = tp.ConvexProfile((1.0, 0.25, 0.0))
poly = tp.convex_poly(profile)
print("profile (1, 1/4, 0) ->", {m: round(poly.coeff(m).real, 3) for m in sorted(poly.coeffs)})
print("grid minimum:", round(tp.grid_min(poly, 512), 6), "(1 + 0.5 cos attains 0.5)")

drops = np.sort(rng.random(12))[::-1]
values = tuple(np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]]))
random_poly = tp.convex_poly(tp.ConvexProfile(values))
print(f"random convex profile of length {len(values)}: "
      f"grid minimum {tp.grid_min(random_poly, 2048):.3e} (never below -1e-9)")
