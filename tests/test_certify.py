import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from vdcset import blocks, certify


def brute_force_alpha(r_set, n):
    """Enumerate all subsets of [n] with numpy bit tricks (n <= 20)."""
    masks = np.arange(1 << n, dtype=np.uint32)
    valid = np.ones(masks.shape, dtype=bool)
    for r in r_set:
        if 0 < r < n:
            valid &= (masks & (masks >> np.uint32(r))) == 0
    table = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)
    counts = (
        table[masks & 0xFF]
        + table[(masks >> np.uint32(8)) & 0xFF]
        + table[(masks >> np.uint32(16)) & 0xFF]
    )
    return int(counts[valid].max())


def reference_max_avoiding_set(r_set, n):
    """The degree-ordered branch and bound the Russian-doll search replaced:
    densest vertices first, lowest-index branching, best-so-far pruning by
    popcount and a greedy clique cover (n <= 80)."""
    diffs = sorted({int(r) for r in r_set if 0 < int(r) < n})
    adjacency = [0] * n
    for v in range(n):
        for r in diffs:
            if v + r < n:
                adjacency[v] |= 1 << (v + r)
            if v - r >= 0:
                adjacency[v] |= 1 << (v - r)
    order = sorted(range(n), key=lambda v: (-adjacency[v].bit_count(), v))
    relabel = {old: new for new, old in enumerate(order)}
    adj = [sum(1 << relabel[u] for u in range(n) if adjacency[old] >> u & 1) for old in order]

    def cover(candidates):
        cliques = 0
        remaining = candidates
        while remaining:
            v = (remaining & -remaining).bit_length() - 1
            compat = adj[v]
            remaining &= remaining - 1
            cliques += 1
            scan = remaining & compat
            while scan:
                u = (scan & -scan).bit_length() - 1
                remaining &= ~(1 << u)
                compat &= adj[u]
                scan = remaining & compat
        return cliques

    best = [0, 0]

    def explore(candidates, chosen, size):
        if size + candidates.bit_count() <= best[0]:
            return
        if not candidates:
            best[:] = [size, chosen]
            return
        if size + cover(candidates) <= best[0]:
            return
        v = (candidates & -candidates).bit_length() - 1
        bit = 1 << v
        explore(candidates & ~(bit | adj[v]), chosen | bit, size + 1)
        explore(candidates & ~bit, chosen, size)

    explore((1 << n) - 1, 0, 0)
    return best[0], sorted(order[v] for v in range(n) if best[1] >> v & 1)


def assert_avoiding(witness, r_set, n):
    assert witness == sorted(set(witness)) and all(0 <= v < n for v in witness)
    assert not {b - a for a, b in itertools.combinations(witness, 2)} & set(r_set)


def test_avoiding_set_known_values():
    alpha, witness = certify.max_avoiding_set(range(1, 8), 8)
    assert alpha == 1 and len(witness) == 1
    alpha, witness = certify.max_avoiding_set([], 6)
    assert alpha == 6 and witness == [0, 1, 2, 3, 4, 5]
    alpha, witness = certify.max_avoiding_set([2, 4], 6)
    assert alpha == 2
    diffs = {abs(a - b) for a in witness for b in witness if a != b}
    assert not diffs & {2, 4}


def test_avoiding_set_exhaustive_brute_force():
    assert certify.max_avoiding_set([2, 4], 6)[0] == brute_force_alpha({2, 4}, 6)
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(1, 17))
        count = int(rng.integers(0, 9))
        r_set = set(int(v) for v in rng.integers(1, 9, size=count))
        alpha, witness = certify.max_avoiding_set(r_set, n)
        assert alpha == brute_force_alpha(r_set, n)
        assert len(witness) == alpha
        diffs = {abs(a - b) for a in witness for b in witness if a != b}
        assert not diffs & r_set


def test_avoiding_set_monotone_in_r():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        base = set(int(v) for v in rng.integers(1, 9, size=3))
        extra = base | {int(rng.integers(1, 9))}
        assert certify.max_avoiding_set(extra, n)[0] <= certify.max_avoiding_set(base, n)[0]


def test_avoiding_set_scaling():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        factor = int(rng.integers(2, 5))
        r_set = set(int(v) for v in rng.integers(1, 6, size=2))
        alpha, _ = certify.max_avoiding_set(r_set, n)
        scaled_alpha, _ = certify.max_avoiding_set({factor * r for r in r_set}, factor * n)
        assert scaled_alpha >= factor * alpha - factor


def test_avoiding_set_matches_reference_search():
    # the reference search takes about 4 s of this draw on a 2-vCPU x86 VM
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(40, 81))
        r_set = {int(v) for v in rng.choice(np.arange(1, 85), int(rng.integers(1, 9)), replace=False)}
        alpha, witness = certify.max_avoiding_set(r_set, n)
        assert alpha == reference_max_avoiding_set(r_set, n)[0] == len(witness)
        assert_avoiding(witness, r_set, n)


SQUARES = tuple(k * k for k in range(1, 9))


@pytest.mark.parametrize(
    "r_set, n, alpha",
    [(SQUARES, 40, 12), (SQUARES, 60, 16), (SQUARES, 80, 20)]
    + [(SQUARES + (t,), 70, a) for t, a in {5: 15, 7: 17, 10: 17, 11: 18, 12: 18}.items()]
    + [((4, 16), 80, 32)]
    # most prefixes of these must prove alpha_k = alpha_{k-1} exhaustively; pinned from
    # reference_max_avoiding_set
    + [((8, 30, 38, 65, 68, 79, 80), 73, 24), ((7, 36, 43, 74), 69, 25), ((9, 12, 17, 20, 61), 79, 28)],
)
def test_avoiding_set_pinned_alpha(r_set, n, alpha):
    found, witness = certify.max_avoiding_set(r_set, n)
    assert found == alpha == len(witness)
    assert_avoiding(witness, r_set, n)


def test_avoiding_set_extends_the_last_witness():
    # no difference below n: every prefix extends the last witness by its top vertex
    for n in range(1, 81):
        assert certify.max_avoiding_set({n, n + 3, 2 * n}, n) == (n, list(range(n)))
    for n in range(2, 81):
        assert certify.max_avoiding_set({n - 1}, n) == (n - 1, list(range(n - 1)))


def test_avoiding_set_reads_negative_differences():
    # a pair that differs by -r also differs by r; 0 and |r| >= n are ignored
    assert certify.max_avoiding_set([-3], 6) == certify.max_avoiding_set([3], 6)
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 41))
        r_set = {int(v) for v in rng.integers(-45, 46, size=int(rng.integers(0, 6)))}
        alpha, witness = certify.max_avoiding_set(r_set, n)
        assert alpha == certify.max_avoiding_set({-r for r in r_set}, n)[0] == len(witness)
        assert alpha == certify.max_avoiding_set({abs(r) for r in r_set}, n)[0]
        assert_avoiding(witness, {abs(r) for r in r_set}, n)


def test_avoiding_set_horizon_guard():
    with pytest.raises(ValueError, match="cap"):
        certify.max_avoiding_set({1}, 81)
    with pytest.raises(ValueError):
        certify.max_avoiding_set({1}, 0)


def test_certify_recurrence_examples():
    cert = certify.certify_recurrence(range(1, 8), 0.2, 8)
    assert cert.certified and cert.alpha == 1 and cert.extends_to_multiples
    assert certify.certify_recurrence([2, 4], 0.5, 6).certified
    assert not certify.certify_recurrence([2, 4], 0.2, 6).certified


def test_certificate_json_schema():
    cert = certify.certify_recurrence(range(1, 8), 0.2, 8)
    obj = json.loads(cert.to_json())
    assert set(obj) >= {"R", "epsilon", "n", "alpha", "witness", "certified"}
    assert obj["R"] == list(range(1, 8))
    assert obj["certified"] is True


def test_truncate_preserving():
    r_set = set(range(1, 8)) | {1000}
    truncated = certify.truncate_preserving(r_set, 0.2, 8)
    assert truncated == set(range(1, 8))
    again = certify.certify_recurrence(truncated, 0.2, 8)
    assert again.certified
    assert again.alpha == certify.certify_recurrence(r_set, 0.2, 8).alpha
    assert certify.truncate_preserving({2, 4}, 0.5, 6) == {2, 4}
    with pytest.raises(ValueError, match="uncertified"):
        certify.truncate_preserving({2, 4}, 0.2, 6)


def full_lp_rows(r_set, order):
    """The LP over all measures, not only symmetric ones: the mass row, then
    a cosine and a sine row per r (sorted)."""
    j = np.arange(order)
    rows = [np.ones(order)]
    for r in sorted(r_set):
        angle = 2 * np.pi * (r % order) * j / order
        rows += [np.cos(angle), np.sin(angle)]
    rhs = np.zeros(len(rows))
    rhs[0] = 1.0
    return np.array(rows), rhs


def enumerate_vertex_atoms(r_set, order):
    """Independent oracle: vertex enumeration of the witness polytope."""
    matrix, rhs = full_lp_rows(r_set, order)
    keep = np.abs(matrix).max(axis=1) > 1e-12
    matrix, rhs = matrix[keep], rhs[keep]
    rank = np.linalg.matrix_rank(matrix)
    best = None
    for cols in itertools.combinations(range(order), rank):
        sub = matrix[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        x = np.zeros(order)
        x[list(cols)] = sol
        if np.abs(matrix @ x - rhs).max() < 1e-9 and x.min() >= -1e-9:
            atom = max(x[0], 0.0)
            best = atom if best is None else max(best, atom)
    return best


def test_lp_uniform_cases():
    for order in (4, 8, 16):
        witness = certify.max_atom_lp(range(1, order), order)
        assert witness.atom == pytest.approx(1.0 / order, abs=1e-9)
        assert witness.residual < 1e-9


def test_lp_against_vertex_enumeration():
    witness = certify.max_atom_lp([2], 4)
    oracle = enumerate_vertex_atoms([2], 4)
    assert witness.atom == pytest.approx(0.5, abs=1e-9)
    assert witness.atom == pytest.approx(oracle, abs=1e-9)
    for r_set, order in (((1, 3), 6), ((2, 3), 8), ((1, 2, 5), 10)):
        lp = certify.max_atom_lp(r_set, order).atom
        vertex = enumerate_vertex_atoms(r_set, order)
        assert lp == pytest.approx(vertex, abs=1e-9)


def test_lp_empty_set_gives_point_mass():
    witness = certify.max_atom_lp([], 8)
    assert witness.atom == pytest.approx(1.0, abs=1e-12)


def test_lp_infeasible_multiple_of_order(monkeypatch):
    # the transform at a multiple of N is the mass: infeasible by inspection
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_lp called on an infeasible-by-inspection LP")

    monkeypatch.setattr(certify, "solve_lp", no_solve)
    for r_set in ([8], [24], [1, 2, 16]):
        with pytest.raises(certify.LpInfeasibleError, match="multiple of the order 8"):
            certify.max_atom_lp(r_set, 8)


# max_atom_lp(range(1, 9), N), cross-checked with scipy's HiGHS to 3e-15
LADDER_ATOMS = {
    96: 0.11043755052021464,
    128: 0.11080467576061785,
    256: 0.1110170089643073,
    512: 0.11109541399772631,
}


@pytest.mark.parametrize("order", sorted(LADDER_ATOMS))
def test_lp_ladder_matches_pins_with_dual_certificate(order):
    witness = certify.certify_not_vdc(range(1, 9), 0.1, order)
    assert witness.atom == pytest.approx(LADDER_ATOMS[order], abs=1e-12)
    checks = certify.reverify_witness(witness)
    assert checks["min_weight"] >= -1e-12
    assert checks["mass_error"] <= 1e-12
    assert checks["residual"] < 1e-9
    assert checks["dual_min_slack"] >= -1e-9
    assert abs(checks["duality_gap"]) <= 1e-9


def test_lp_sparse_start_needs_no_crossover(monkeypatch):
    # the uniform measure on the order-16 subgroup is feasible for R = {1..8}:
    # folded onto 9 orbits against 9 rows, it leaves the crossover nothing to drop
    solve, diagnostics = certify.solve_lp, []

    def recording(*args, **kwargs):
        result = solve(*args, **kwargs)
        diagnostics.append(result.diagnostics)
        return result

    monkeypatch.setattr(certify, "solve_lp", recording)
    witness = certify.max_atom_lp(range(1, 9), 512)
    assert diagnostics[0]["crossover_steps"] == 0
    assert witness.atom == pytest.approx(LADDER_ATOMS[512], abs=1e-12)


def test_lp_solves_the_former_stall():
    # degenerate for Bland pricing: the full cos+sin LP exceeds MAX_ITERATIONS here
    witness = certify.certify_not_vdc((3, 5, 7, 11), 0.1, 512)
    assert witness.atom == pytest.approx(0.5, abs=1e-12)
    assert all(c.passed for c in witness.checks)
    assert witness.diagnostics["rows"] <= 5


def test_lp_long_bland_tour_matches_pin():
    # Bland pricing walks 6682 phase-2 pivots from the subgroup start here
    witness = certify.certify_not_vdc((1, 2, 3, 5, 8, 13), 0.1, 4096)
    assert witness.atom == pytest.approx(0.22423491577590188, abs=1e-12)
    assert witness.diagnostics["phase2_pivots"] == 6682
    assert all(c.passed for c in witness.checks)


def test_lp_reads_negative_frequencies():
    # a real measure's transform at -r is the conjugate of that at r
    assert certify.certify_not_vdc([-3, 5], 0.1, 16).r_set == (3, 5)
    rng = np.random.default_rng(5)
    for _ in range(12):
        order = int(rng.integers(8, 65))
        r_set = {int(v) for v in rng.integers(1, order, size=int(rng.integers(1, 5)))}
        base = certify.certify_not_vdc(r_set, 0.1, order)
        assert all(c.passed for c in base.checks)
        for variant in ({-r for r in r_set}, r_set | {-r for r in r_set}):
            witness = certify.certify_not_vdc(variant, 0.1, order)
            assert witness.r_set == base.r_set == tuple(sorted(r_set))
            assert witness.atom == pytest.approx(base.atom, abs=1e-12)
            assert all(c.passed for c in witness.checks)


@pytest.mark.parametrize("r_set, order", [(range(1, 9), 64), ((3, 20, 37, 45), 33), ((2, 5), 10)])
def test_lp_solution_is_reflection_symmetric(r_set, order):
    witness = certify.max_atom_lp(r_set, order)
    w = witness.measure.weights
    assert np.array_equal(w[1:], w[:0:-1])  # w_j = w_(N-j)
    assert witness.dual.shape == (1 + len(witness.r_set),)  # y_0, then a cosine y_r per r
    assert all(c.passed for c in witness.checks)


def test_lp_matches_highs_on_random_sets():
    # HiGHS solves the full LP over all measures, the library the symmetric one
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for draw in range(16):
        order = 2 * int(rng.integers(4, 40)) + draw % 2  # even and odd N
        r_set = sorted({int(v) for v in rng.integers(1, 3 * order, size=int(rng.integers(1, 6)))})
        matrix, rhs = full_lp_rows(r_set, order)
        costs = np.zeros(order)
        costs[0] = -1.0
        ref = optimize.linprog(costs, A_eq=matrix, b_eq=rhs, bounds=(0, None), method="highs")
        if any(r % order == 0 for r in r_set):
            assert ref.status == 2
            with pytest.raises(certify.LpInfeasibleError):
                certify.max_atom_lp(r_set, order)
            continue
        assert ref.status == 0
        witness = certify.max_atom_lp(r_set, order)
        assert witness.atom == pytest.approx(-ref.fun, abs=1e-9)
        checks = certify.reverify_witness(witness)
        assert checks["dual_min_slack"] >= -1e-9
        assert abs(checks["duality_gap"]) <= 1e-9


def test_dual_reverification_detects_a_bad_dual():
    witness = certify.max_atom_lp(range(1, 8), 32)
    lowered = witness.dual.copy()
    lowered[0] -= 1e-3  # a smaller bound must break the root inequalities
    checks = certify.reverify_witness(replace(witness, dual=lowered))
    assert checks["dual_min_slack"] < -1e-4
    assert checks["duality_gap"] == pytest.approx(certify.reverify_witness(witness)["duality_gap"] - 1e-3)


def test_dual_slack_fft_matches_direct_evaluation():
    # random cosine duals, frequencies past N/2 and past N
    rng = np.random.default_rng(12)
    witness = certify.max_atom_lp((3, 20, 37, 45), 32)
    matrix, _ = full_lp_rows(witness.r_set, 32)
    matrix = matrix[[0, *range(1, matrix.shape[0], 2)]]  # the mass row and the cosine rows
    for _ in range(5):
        y = rng.normal(size=matrix.shape[0])
        direct = matrix.T @ y
        direct[0] -= 1.0
        checks = certify.reverify_witness(replace(witness, dual=y))
        assert checks["dual_min_slack"] == pytest.approx(direct.min(), abs=1e-12)
        assert checks["dual_bound"] == y[0]


def test_certified_atom_bounds_a_constructive_witness():
    # weak duality: the checked dual bounds the atom of every feasible measure, mu's too
    mu, _ = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 1))
    zeros = sorted(blocks.zero_set(mu, 63))
    witness = certify.certify_not_vdc(zeros, 0.05, 64)
    assert witness.atom >= float(mu.weights[0]) - 1e-9


def test_certify_not_vdc_threshold():
    yes = certify.certify_not_vdc(range(1, 4), 0.2, 4)
    assert yes.not_vdc and yes.atom == pytest.approx(0.25, abs=1e-9)
    no = certify.certify_not_vdc(range(1, 4), 0.3, 4)
    assert not no.not_vdc


def test_witness_reverification_fields():
    witness = certify.certify_not_vdc(range(1, 8), 0.05, 8)
    checks = certify.reverify_witness(witness)
    assert checks["min_weight"] >= -1e-12
    assert checks["mass_error"] <= 1e-12
    assert checks["residual"] < 1e-9
    assert checks["dual_bound"] == pytest.approx(witness.atom, abs=1e-9)
    assert checks["dual_min_slack"] >= -1e-9
    assert abs(checks["duality_gap"]) <= 1e-9
    obj = json.loads(witness.to_json())
    assert set(obj) == {"R", "epsilon", "order", "atom", "residual", "weights", "not_vdc"}


def test_lifted_witness_reverifies():
    rng = np.random.default_rng(3)
    for _ in range(10):
        order = int(rng.integers(4, 16))
        r_set = sorted(set(int(v) for v in rng.integers(1, order, size=2)))
        try:
            witness = certify.certify_not_vdc(r_set, 0.01, order)
        except certify.LpInfeasibleError:
            continue
        factor = int(rng.integers(2, 5))
        lifted = certify.lift_witness(witness, factor)
        assert lifted.order == factor * order
        assert lifted.atom == pytest.approx(witness.atom, abs=1e-15)
        assert lifted.residual < 1e-9
        checks = certify.reverify_witness(lifted)  # f(c*x) certifies the lifted LP
        assert checks["dual_min_slack"] >= -1e-9 and abs(checks["duality_gap"]) <= 1e-9
        assert lifted.r_set == tuple(factor * r for r in witness.r_set)


def test_replaced_and_lifted_witnesses_recompute_their_table(monkeypatch):
    real, calls = certify.reverify_witness, []

    def counted(witness):
        calls.append(witness.order)
        return real(witness)

    monkeypatch.setattr(certify, "reverify_witness", counted)
    witness = certify.certify_not_vdc(range(1, 8), 0.05, 32)
    assert calls == [32]
    assert witness.checks is witness.checks and calls == [32]
    lowered = witness.dual.copy()
    lowered[0] -= 1e-3
    bad = replace(witness, dual=lowered)
    assert not all(c.passed for c in bad.checks)
    assert all(c.passed for c in witness.checks)
    lifted = certify.lift_witness(witness, 3)
    assert all(c.passed for c in lifted.checks)
    assert calls == [32, 32, 96]


def test_lp_and_lift_are_gated_by_their_matrix_entries(monkeypatch):
    witness, base = certify.max_atom_lp(range(1, 9), 32), certify.max_atom_lp([1], 16)
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(9 * 17))  # 9 rows on 17 orbit columns
    assert certify.max_atom_lp(range(1, 9), 32).atom == witness.atom
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(2 * 17))  # its lift to order 32: 2 rows on 17
    assert certify.lift_witness(base, 2).order == 32

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the size was refused")

    monkeypatch.setattr(np, "arange", refuse)
    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(9 * 17 - 1))
    with pytest.raises(blocks.AtomBudgetError, match=r"9 rows on 17 orbit columns \(153 entries\)"):
        certify.max_atom_lp(range(1, 9), 32)
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(2 * 17 - 1))
    with pytest.raises(blocks.AtomBudgetError, match=r"2 rows on 17 orbit columns \(34 entries\)"):
        certify.lift_witness(base, 2)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: certify.max_atom_lp([1], 1), "order must be >= 2", id="lp-order"),
    pytest.param(lambda: certify.lift_witness(certify.max_atom_lp([1], 4), 0), "factor must be >= 1",
                 id="lift-factor"),
])
def test_refusals_name_their_bound(call, message):
    with pytest.raises(ValueError, match=message):
        call()
