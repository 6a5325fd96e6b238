"""Pinned optimal values for the certifier cases, and their cross-check.

The LP atoms are optima of  max w_0  s.t.  w >= 0, sum w = 1,
fourier(w, r) = 0 for r in R  on the N-th roots of unity.  Atoms at
N = 32 and 64 agree between the library's simplex and scipy's HiGHS to
1e-14; from N = 96 on the library's simplex stalls, so the HiGHS value,
polished to its vertex, is the pin.  Multiplying R by a unit c mod N
relabels the roots of unity and leaves the atom unchanged, which is why
one pin covers every seed-chosen c.  The alphas are maximum sizes of
R-difference-avoiding subsets of {0..n-1}.

The benchmark never imports scipy.  Run this file to recompute every pin
with scipy (LP by HiGHS, alpha by HiGHS MILP) and compare:

    python3 perfbench/pins.py
"""

R1TO8 = tuple(range(1, 9))
SQUARES = tuple(k * k for k in range(1, 9))

# max_atom_lp(R1TO8, N)
LP_R1TO8 = {
    32: 0.10469359760592363,
    64: 0.1103589202142816,
    96: 0.11043755052021464,
    128: 0.11080467576061785,
    256: 0.1110170089643073,
    512: 0.11109541399772631,
}
# max_atom_lp(base, 64); seed-chosen cases use {c*r mod 64} for odd c
LP_BASES_N64 = {
    (1, 2, 3): 0.25,
    (1, 3, 4): 0.30007356052844725,
    (1, 2, 5): 0.33272917119438195,
    (2, 3, 7): 0.4442972285854478,
    (1, 4, 6): 0.44053472409783057,
}
LP_R12_N8 = 0.29289321881345254  # max_atom_lp((1, 2), 8)

# max_avoiding_set(SQUARES, n)
ALPHA_SQUARES = {40: 12, 60: 16, 80: 20}
# max_avoiding_set(SQUARES + (t,), 70); t ranges over the non-squares up
# to 12 whose branch-and-bound cost is close to that of the squares at
# n=60 (0.10-0.13 s at the seed), so the seed moves no timing much
ALPHA_SQUARES_PLUS_N70 = {5: 15, 7: 17, 10: 17, 11: 18, 12: 18}


def _lp_atom_highs(r_set, order):
    import numpy as np
    from scipy.optimize import linprog

    j = np.arange(order)
    rows, rhs = [np.ones(order)], [1.0]
    for r in r_set:
        angle = 2.0 * np.pi * (r % order) * j / order
        rows += [np.cos(angle), np.sin(angle)]
        rhs += [0.0, 0.0]
    matrix, rhs = np.array(rows), np.array(rhs)
    costs = np.zeros(order)
    costs[0] = -1.0
    res = linprog(costs, A_eq=matrix, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on R={r_set}, N={order}: {res.message}")
    # polish: solve the equality system on the optimal support exactly
    support = np.flatnonzero(res.x > 1e-9)
    x, *_ = np.linalg.lstsq(matrix[:, support], rhs, rcond=None)
    full = np.zeros(order)
    full[support] = x
    return float(full[0]) if 0 in support else float(-res.fun)


def _alpha_milp(r_set, n):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    edges = [(v, v + r) for v in range(n) for r in set(r_set) if 0 < r and v + r < n]
    matrix = np.zeros((len(edges), n))
    for row, (a, b) in enumerate(edges):
        matrix[row, a] = matrix[row, b] = 1.0
    res = milp(
        -np.ones(n),
        constraints=LinearConstraint(matrix, -np.inf, 1.0),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    return int(round(-res.fun))


def main() -> int:
    try:
        import scipy  # noqa: F401
    except ImportError:
        print("scipy is not importable; nothing to cross-check")
        return 0
    worst = 0.0
    rows = [(R1TO8, n, atom) for n, atom in LP_R1TO8.items()]
    rows += [(base, 64, atom) for base, atom in LP_BASES_N64.items()]
    rows.append(((1, 2), 8, LP_R12_N8))
    for r_set, order, pinned in rows:
        atom = _lp_atom_highs(r_set, order)
        worst = max(worst, abs(atom - pinned))
        print(f"LP R={r_set} N={order}: pinned {pinned!r}, HiGHS {atom!r}, diff {abs(atom - pinned):.2e}")
    mismatches = 0
    cases = [(SQUARES, n, a) for n, a in ALPHA_SQUARES.items()]
    cases += [(SQUARES + (t,), 70, a) for t, a in ALPHA_SQUARES_PLUS_N70.items()]
    for r_set, n, pinned in cases:
        alpha = _alpha_milp(r_set, n)
        mismatches += alpha != pinned
        print(f"alpha R={r_set} n={n}: pinned {pinned}, MILP {alpha}")
    print(f"largest LP difference {worst:.2e}; alpha mismatches {mismatches}")
    return 0 if worst <= 1e-9 and not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
