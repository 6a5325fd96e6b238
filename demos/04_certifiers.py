#!/usr/bin/env python3
"""Independent certification of the two defining properties.

Recurrence at horizon n: an exact Russian-doll search computes the
largest subset of {0..n-1} avoiding all differences in R; the set is
certified epsilon-recurrent when that maximum is at most epsilon*n.  A
shifted avoiding set still avoids R, so the search finds the maxima of
the prefixes {0..k-1} in turn, k = 1..n, and each bounds every interval
of its length that a later search meets.  The witness printed is some
maximum set, not a fixed one.

Failure of the vdC property: a from-scratch simplex maximises the atom
at 0 over probability measures on the order-N roots of unity whose
transform vanishes on R; an atom above epsilon is a concrete witness
that R is not epsilon-vdC.  The LP dual, a trigonometric polynomial at
least [j = 0] at every root, bounds that atom from above; its bound
matching the atom proves the atom optimal.  Both certificates are
re-verified outside the solvers that produced them.
"""

from vdcset import blocks, certify

print("=== Recurrence certificates ===")
cert = certify.certify_recurrence(range(1, 8), 0.2, 8)
print(f"R = {{1..7}}, eps=0.2, n=8: alpha={cert.alpha}, certified={cert.certified}")
print(f"  witness avoiding set: {list(cert.witness)}")

cert = certify.certify_recurrence([2, 4], 0.5, 6)
print(f"R = {{2,4}}, eps=0.5, n=6: alpha={cert.alpha}, certified={cert.certified}")
cert = certify.certify_recurrence([2, 4], 0.2, 6)
print(f"R = {{2,4}}, eps=0.2, n=6: alpha={cert.alpha}, certified={cert.certified} "
      "(2 > 1.2: horizon too small)")

cert = certify.certify_recurrence([*range(1, 8), 1000], 0.2, 8)
print(f"R = {{1..7, 1000}}, eps=0.2, n=8: alpha={cert.alpha}, certified={cert.certified} "
      "(r >= n is no difference of {0..7})")

print("\n=== vdC-failure witnesses (LP) ===")
for order in (4, 8, 16):
    witness = certify.max_atom_lp(range(1, order), order)
    print(f"R = {{1..{order - 1}}}, order {order}: best atom = {witness.atom:.9f} "
          f"(= 1/{order}), residual {witness.residual:.1e}")

witness = certify.certify_not_vdc([2], 0.3, 4)
print(f"R = {{2}}, order 4: atom {witness.atom:.3f}, weights {witness.measure.weights}, "
      f"not-0.3-vdC: {witness.not_vdc}")

for order in (128, 512):
    checks = certify.reverify_witness(certify.certify_not_vdc(range(1, 9), 0.1, order))
    print(f"R = {{1..8}}, order {order}: dual bound {checks['dual_bound']:.12f}, "
          f"duality gap {checks['duality_gap']:.1e}, least dual slack {checks['dual_min_slack']:.1e}")

try:
    certify.max_atom_lp([8], 8)
except certify.LpInfeasibleError as exc:
    print(f"R = {{8}} at order 8 is infeasible (transform at 0 mod 8 must be 1): {exc}")

print("\n=== End-to-end: construction meets certification ===")
mu, _ = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 1))
zeros = sorted(blocks.zero_set(mu, 63))
print(f"zero set of the relaxed witness at order 64: {zeros}")
lp = certify.certify_not_vdc(zeros, 0.05, 64)
print(f"constructive atom {float(mu.weights[0]):.9f} <= LP optimum {lp.atom:.9f}")
cert = certify.certify_recurrence(zeros, 0.5, 64)
print(f"avoiding-set size of the zero set at horizon 64: alpha = {cert.alpha}")
lifted = certify.certify_not_vdc([3 * r for r in zeros], 0.05, 192)
print(f"3*R at order {lifted.order} keeps the atom: {lifted.atom:.9f}, "
      f"residual {lifted.residual:.1e}")
