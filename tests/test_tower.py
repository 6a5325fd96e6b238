import re

import numpy as np
import pytest

from vdcset import blocks, certify, tower
from vdcset import measures as ms
from vdcset import trigpoly as tp

from measure_helpers import dirac

EPS = 0.3


def toy_stages():
    return [
        tower.TowerStage((1,), 1, EPS, 7, 7),
        tower.TowerStage((1,), 1, EPS, 7, 113),
    ]


def half_beta():
    # equal weights on 0 and 1/2 kill frequency 1 and put 1/2 at the origin
    return ms.AtomicMeasure(2, np.array([0.5, 0.5]))


def test_stage_validation():
    # each stage refuses at construction; validate_stages keeps the cross-stage rules
    with pytest.raises(ValueError, match=r"^max_freq 6 must exceed n\*\(n\+1\)/eps_prime = 6.66"):
        tower.TowerStage((1,), 1, EPS, 6, 6)
    with pytest.raises(ValueError, match=r"^eps_prime must lie in \(0, 1/2\), got 0.7$"):
        tower.TowerStage((1,), 1, 0.7, 7, 7)
    with pytest.raises(ValueError, match=r"^recurrence set \(3,\) not inside \[1, 1\]$"):
        tower.TowerStage((3,), 1, EPS, 7, 7)
    with pytest.raises(ValueError, match="^a tower needs at least one stage$"):
        tower.validate_stages([])
    with pytest.raises(ValueError, match="dilation == max_freq"):
        tower.validate_stages([tower.TowerStage((1,), 1, EPS, 7, 9)])
    stages = toy_stages()
    stages[1] = tower.TowerStage((1,), 1, EPS, 7, 112)  # needs > 112
    with pytest.raises(ValueError, match="must exceed"):
        tower.validate_stages(stages)


def uniform_beta(mass):
    """Uniform on 3 points with this mass: its transform vanishes at 1 and its atom is mass/3."""
    return ms.AtomicMeasure(3, np.full(3, mass / 3))


def test_tower_beta_mass_within_tolerance():
    # mass 1 + 5e-10 passes check_beta at tol 1e-9, so the stage builds and its mean carries the excess
    stage = toy_stages()[0]
    products = tower.build_tower([stage], [uniform_beta(1.0 + 5e-10)])
    assert tower.claim_residuals([stage], products)[0]["mean_deviation"] == pytest.approx(5e-10, abs=1e-12)


def test_tower_beta_mass_beyond_tolerance_fails():
    # mass 1 + 1e-7 misses the pinned 1e-9: no option can loosen it
    with pytest.raises(ValueError, match="not 1 within 1e-09"):
        tower.check_beta(toy_stages()[0], uniform_beta(1.0 + 1e-7))


def test_tower_rejects_non_finite_beta_weights():
    # a nan weight would pass check_beta's comparisons; the measure refuses it first
    with pytest.raises(ValueError, match="^weight 0 is not finite: nan$"):
        tower.check_beta(toy_stages()[0], ms.AtomicMeasure(3, np.array([np.nan, 0.3333, 0.3333])))


def test_beta_preconditions():
    stage = toy_stages()[0]
    with pytest.raises(ValueError, match="transform at 1"):
        tower.tower_block(stage, dirac(2, 0))
    low_atom = ms.AtomicMeasure(4, np.array([0.25, 0.25, 0.25, 0.25]))
    with pytest.raises(ValueError, match="atom at 0"):
        tower.tower_block(stage, low_atom)


def test_stage_polynomial_transform_values():
    stage = toy_stages()[0]
    beta = half_beta()
    block = tower.tower_block(stage, beta)
    assert block.coeff(0) == pytest.approx(1.0, abs=1e-12)
    # window value equals beta_hat - eps_prime
    assert block.coeff(1) == pytest.approx(beta.fourier(1) - EPS, abs=1e-12)
    assert block.coeff(1).real == pytest.approx(-EPS, abs=1e-12)
    assert block.coeff(8) == 0.0  # beyond max_freq
    assert block.coeff(7) == 0.0  # at max_freq the triangle hits zero
    assert tp.grid_min(block, 4096) > 0.0


@pytest.mark.parametrize("beta", [ms.uniform(3), half_beta(), certify.max_atom_lp((1, 2), 7).measure,
                                  certify.max_atom_lp((1, 3), 16).measure], ids=["uniform3", "half", "lp7", "lp16"])
@pytest.mark.parametrize("n, max_freq", [(1, 7), (2, 21), (3, 41)])
def test_stage_polynomial_window_is_exact(beta, n, max_freq):
    # on 0 < m <= n the coefficient is beta_hat(m) - eps' with no rounding of its own,
    # bit for bit once + 0.0 reads a zero part as +0, as the stored half does
    r_set = tuple(r for r in (1, 2, 3) if r <= n and abs(beta.fourier(r)) < tp.EVAL_TOL)
    block = tower.tower_block(tower.TowerStage(r_set, n, EPS, max_freq, max_freq), beta)
    m = np.arange(1, n + 1)
    assert block.coeff(m).tobytes() == (beta.fourier(m) - EPS + 0.0).tobytes()
    assert not block.coeff(np.arange(max_freq, 3 * max_freq)).any()


def test_correction_ripple_is_small():
    # the positivity proof's ripple: b - eps' - Fejer-smoothed (beta - eps'*dirac_0)
    stage, beta = toy_stages()[0], half_beta()
    m = np.arange(stage.max_freq)
    smoothed = tp.TrigPoly.from_half(m, (1.0 - m / stage.max_freq) * (beta.fourier(m) - EPS))
    ripple = tp.sample_values(tower.tower_block(stage, beta), 4096) - EPS - tp.sample_values(smoothed, 4096)
    assert np.abs(ripple).max() < EPS


def test_two_stage_claim_bullets():
    stages = toy_stages()
    beta = half_beta()
    c1, c2 = tower.build_tower(stages, [beta, beta])
    # unit mean at every stage
    assert c1.coeff(0) == pytest.approx(1.0, abs=1e-9)
    assert c2.coeff(0) == pytest.approx(1.0, abs=1e-9)
    # marked frequencies carry -eps_prime
    assert c1.coeff(2 * 7 * 1) == pytest.approx(-EPS, abs=1e-9)
    assert c2.coeff(2 * 113 * 1) == pytest.approx(-EPS, abs=1e-9)
    # the window below the next dilation is frozen
    assert c2.coeff(2 * 7 * 1) == pytest.approx(-EPS, abs=1e-9)
    rng = np.random.default_rng(1)
    for m in rng.integers(-112, 113, size=50):
        m = int(m)
        assert abs(c1.coeff(m) - c2.coeff(m)) < 1e-9
    # vanishing beyond the next dilation
    assert all(abs(m) < 113 for m in c1.coeffs)
    assert all(abs(m) < 2 * (7 + 1) * 113 + 1 for m in c2.coeffs)


def test_extend_rejects_slow_growth():
    stage = toy_stages()[0]
    block = tower.tower_block(stage, half_beta())
    c1 = tower.tower_extend(tp.constant(1.0), block, 7)
    with pytest.raises(ValueError, match="growth"):
        tower.tower_extend(c1, block, 80)  # degree(c1) = 84 >= 80


def test_claim_residuals_report():
    stages = toy_stages()
    beta = half_beta()
    products = tower.build_tower(stages, [beta, beta])
    rows = tower.claim_residuals(stages, products)
    assert [r["stage"] for r in rows] == [1, 2]
    for row in rows:
        assert row["vanishing_tail"] <= 1e-9
        assert row["frozen_window"] <= 1e-9
        assert row["mean_deviation"] <= 1e-9
        assert row["marked_frequency"] <= 1e-9


def test_claim_residuals_catch_each_broken_guarantee():
    stages = toy_stages()
    c1, c2 = tower.build_tower(stages, [half_beta(), half_beta()])
    c1 = tp.add(c1, tp.TrigPoly.from_half([113], [2e-3]))  # |m| at stage 1's vanishing threshold
    # 5 is in neither product and inside the frozen window; 226 = 2*113*1 is marked
    c2 = tp.add(c2, tp.TrigPoly.from_half([5, 226], [1e-3, 4e-3]))
    rows = tower.claim_residuals(stages, [c1, c2])
    assert rows[0]["vanishing_tail"] == pytest.approx(2e-3, abs=1e-15)
    assert rows[0]["frozen_window"] == pytest.approx(1e-3, abs=1e-15)
    assert rows[1]["marked_frequency"] == pytest.approx(4e-3, abs=1e-9)
    assert rows[1]["vanishing_tail"] <= 1e-9 and rows[0]["marked_frequency"] <= 1e-9
    failed = [c.name for c in tower.claim_checks(rows) if not c.passed]
    assert failed == ["stage1_vanishing_tail", "stage1_frozen_window", "stage2_marked_frequency"]


def test_claim_checks_accept_deviations_up_to_the_tolerance():
    row = {"stage": 3, "vanishing_tail": 1e-9, "frozen_window": 0.0, "mean_deviation": 2e-9,
           "marked_frequency": 1e-9}
    assert [(c.name, c.passed, c.tolerance) for c in tower.claim_checks([row])] == [
        ("stage3_vanishing_tail", True, 1e-9), ("stage3_frozen_window", True, 1e-9),
        ("stage3_mean", False, 1e-9), ("stage3_marked_frequency", True, 1e-9),
    ]


def test_lp_betas_plug_in():
    stage = toy_stages()[0]
    witness = certify.max_atom_lp((1,), 2)
    block = tower.tower_block(stage, witness.measure)
    assert block.coeff(1).real == pytest.approx(-EPS, abs=1e-9)


@pytest.mark.parametrize("fields, message", [
    pytest.param({"n": 2.7}, "n must be an integer, got 2.7", id="n-float"),
    pytest.param({"n": True}, "n must be an integer, got True", id="n-bool"),
    pytest.param({"n": "1"}, "n must be an integer, got '1'", id="n-string"),
    pytest.param({"max_freq": 30.9, "dilation": 30}, "max_freq must be an integer, got 30.9",
                 id="max-freq-float"),
    pytest.param({"dilation": 7.0}, "dilation must be an integer, got 7.0", id="dilation-float"),
    pytest.param({"dilation": np.bool_(True)}, "dilation must be an integer, got", id="dilation-numpy-bool"),
    pytest.param({"r_set": "1"}, "r_set must be a list of integers, got '1'", id="r-set-string"),
    pytest.param({"r_set": [1.0]}, "r_set must be a list of integers, got [1.0]", id="r-set-float-member"),
    pytest.param({"r_set": [True]}, "r_set must be a list of integers, got [True]", id="r-set-bool-member"),
    pytest.param({"r_set": {"1": 0}}, "r_set must be a list of integers, got {'1': 0}",
                 id="r-set-string-keys"),
    pytest.param({"r_set": 1}, "r_set must be a list of integers, got 1", id="r-set-not-a-collection"),
    pytest.param({"eps_prime": "0.3"}, "eps_prime must be a number, got '0.3'", id="eps-prime-string"),
    pytest.param({"eps_prime": None}, "eps_prime must be a number, got None", id="eps-prime-null"),
    pytest.param({"eps_prime": False}, "eps_prime must be a number, got False", id="eps-prime-bool"),
])
def test_stage_values_are_refused_not_converted(fields, message):
    values = {"r_set": (1,), "n": 1, "eps_prime": EPS, "max_freq": 7, "dilation": 7} | fields
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        tower.TowerStage(**values)


def test_stage_reads_numpy_integers():
    stage = tower.TowerStage(np.array([2, 1, 2]), np.int64(2), np.float64(EPS), np.int32(21), np.uint8(21))
    assert stage.r_set == (1, 2) and all(type(r) is int for r in stage.r_set)
    assert stage == tower.TowerStage((1, 2), 2, EPS, 21, 21)


def depth4_stages(max_freq=21):
    # the depth-4 tower of the construct benchmark: dilations just clear the growth inequality
    dilations = [max_freq]
    while len(dilations) < 4:
        dilations.append(2 * (max_freq + 1) * dilations[-1] + 1)
    return [tower.TowerStage((1, 2), 2, EPS, max_freq, d) for d in dilations]


def test_extend_order_is_presorted_and_bit_identical(monkeypatch):
    # the uniform measure on the cube roots of unity kills 1 and 2 and has atom 1/3 > eps'
    stages, beta = depth4_stages(), ms.uniform(3)
    products = tower.build_tower(stages, [beta] * 4)
    c_prev = tp.constant(1.0)
    for stage, c in zip(stages, products):
        block = tower.tower_block(stage, beta)
        dilated = tp.dilate(block, 2 * stage.dilation)
        with monkeypatch.context() as patched:  # the reducer takes its no-sort path
            patched.setattr(np, "argsort", None)
            extended = tower.tower_extend(c_prev, block, stage.dilation)
        assert extended.freqs.tobytes() == c.freqs.tobytes()
        assert extended.values.tobytes() == c.values.tobytes()
        old_order = tp.multiply(c_prev, dilated)
        assert np.array_equal(c.freqs, old_order.freqs)
        assert np.array_equal(c.values, old_order.values)
        c_prev = c
    # the stored half: 41^4 terms at both signs, frequency 0 once
    assert products[-1].freqs[0] == 0 and 2 * products[-1].freqs.size - 1 == 41**4


def both_signs(p):
    """A product's coefficients at both signs: its stored half m >= 0
    mirrored, conj(c_m) at -m, as its coeffs reads it."""
    skip = int(p.freqs.size > 0 and p.freqs[0] == 0)
    return (np.concatenate((-p.freqs[skip:][::-1], p.freqs)),
            np.concatenate((np.conj(p.values[skip:][::-1]), p.values)))


def test_both_signs_reads_as_coeffs():
    products = tower.build_tower(depth4_stages()[:3], [ms.uniform(3)] * 3)
    for p in products + [tp.add(products[1], tp.TrigPoly.from_half([7], [2e-3]))]:
        freqs, values = both_signs(p)
        assert dict(zip(freqs.tolist(), values.tolist())) == p.coeffs


def union_window_frozen(stages, products, i):
    """frozen_window over the sorted union of both products' windows."""
    (c_freqs, _), (n_freqs, _) = both_signs(products[i]), both_signs(products[i + 1])
    c, nxt = products[i], products[i + 1]
    threshold = stages[i + 1].dilation
    window = np.union1d(c_freqs[np.abs(c_freqs) < threshold], n_freqs[np.abs(n_freqs) < threshold])
    return float(tp.modulus(c.coeff(window) - nxt.coeff(window)).max(initial=0.0))


def test_frozen_window_matches_the_union_reference():
    stages, beta = depth4_stages()[:3], ms.uniform(3)
    products = tower.build_tower(stages, [beta] * 3)
    # one product perturbed: a frequency only it has, and one both have
    shared = int(products[0].freqs[3])
    # (stage 1 sees 7 only in its next product, stage 2 only in its own)
    products[1] = tp.add(products[1], tp.TrigPoly.from_half([7, shared], [2e-3, -3e-4]))
    rows = tower.claim_residuals(stages, products)
    for i in range(2):
        assert rows[i]["frozen_window"] == union_window_frozen(stages, products, i)
        assert rows[i]["frozen_window"] == pytest.approx(2e-3, abs=1e-12)


def random_betas(stage, rng, count):
    """Seeded betas killing the stage's recurrence set: the uniform measure
    on the smallest subgroup of order d with no r a multiple of d (atom 1/d),
    mixed with a random measure smoothed by it, with the atom above eps'."""
    d = next(d for d in range(2, stage.n + 2) if all(r % d for r in stage.r_set))
    subgroup = ms.uniform(d)
    for _ in range(count):
        order = d * int(rng.integers(1, 9))
        noise = ms.convolve(ms.AtomicMeasure(order, rng.dirichlet(np.ones(order))), subgroup)
        share = rng.uniform((stage.eps_prime * d + 1) / 2, 1.0)
        lifted = np.zeros(order)  # the subgroup's measure on the noise's order
        lifted[:: order // d] = subgroup.weights
        yield ms.AtomicMeasure(order, share * lifted + (1.0 - share) * noise.weights)


def test_stage_polynomial_stays_above_its_floor():
    # grid oracle for the closed-form floor eps' - (mass - eps')*n*(n+1)/max_freq
    rng = np.random.default_rng(5)
    for stage in (toy_stages()[0], depth4_stages()[0]):  # the dilation plays no part
        lp = tower.lp_beta(stage)  # as cmd_tower picks it
        for beta in [ms.uniform(3), lp, *random_betas(stage, rng, 20)]:
            eps, n = stage.eps_prime, stage.n
            floor = eps - (beta.mass() - eps) * n * (n + 1) / stage.max_freq
            assert floor > 0.0
            block = tower.tower_block(stage, beta)
            assert tp.grid_min(block, 8 * stage.max_freq) >= floor - tp.EVAL_TOL


def test_non_positive_floor_is_named(monkeypatch):
    # eps' = 1e-10 needs max_freq > 2e10; the mass 1 + 9e-10 passes check_beta and
    # leaves the floor at -7.5e-20, which must raise before the 4e10 frequencies exist
    stage = tower.TowerStage((1,), 1, 1e-10, 20_000_000_001, 20_000_000_001)
    beta = ms.AtomicMeasure(2, np.full(2, (1.0 + 9e-10) / 2))

    def refuse(*args):
        raise AssertionError("coefficients were built before the floor was checked")

    monkeypatch.setattr(np, "arange", refuse)
    with pytest.raises(ValueError, match="no positive floor: -7.5"):
        tower.tower_block(stage, beta)


def test_stage_polynomial_is_gated_by_the_atom_budget(monkeypatch):
    # a direct call, as build_tower's gate is not in its path: 2^40 frequencies would take 8 TiB
    stage = tower.TowerStage((1,), 1, EPS, 2**40, 2**40)
    monkeypatch.setattr(np, "arange", None)  # the gate raises before the frequencies exist
    with pytest.raises(blocks.AtomBudgetError,
                       match=f"^stage polynomial of {2**40} terms exceeds the atom budget {ms.atom_budget()}$"):
        tower.tower_block(stage, ms.uniform(3))
    monkeypatch.undo()
    monkeypatch.setenv("VDC_ATOM_BUDGET", "7")
    assert tower.tower_block(toy_stages()[0], ms.uniform(3)).degree == 6
    monkeypatch.setenv("VDC_ATOM_BUDGET", "6")
    with pytest.raises(blocks.AtomBudgetError, match="^stage polynomial of 7 terms exceeds the atom budget 6$"):
        tower.tower_block(toy_stages()[0], ms.uniform(3))


def test_tower_products_are_gated_by_the_atom_budget(monkeypatch):
    stages = [tower.TowerStage((1,), 1, 0.3, 7, 7), tower.TowerStage((1,), 1, 0.3, 7, 113)]
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(13 * 13))  # c_2 has 13 * 13 terms
    assert len(tower.build_tower(stages, [ms.uniform(3)] * 2)[-1].coeffs) == 13 * 13
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(13 * 13 - 1))
    monkeypatch.setattr(tower, "tower_block", None)  # the gate raises before any stage is built
    with pytest.raises(blocks.AtomBudgetError, match="169 terms exceeds the atom budget 168"):
        tower.build_tower(stages, [ms.uniform(3)] * 2)


def mask_claim_residuals(stages, products):
    """claim_residuals as it read with boolean masks over |freqs| at both
    signs: the reference that the slice windows must match bit for bit."""
    out = []
    for i, (stage, c) in enumerate(zip(stages, products)):
        if i + 1 < len(stages):
            threshold = stages[i + 1].dilation
        else:
            threshold = 2 * (stage.max_freq + 1) * stage.dilation + 1
        c_freqs, c_values = both_signs(c)
        inside = np.abs(c_freqs) < threshold
        tail = float(tp.modulus(c_values[~inside]).max(initial=0.0))
        frozen = 0.0
        if i + 1 < len(products):
            nxt = products[i + 1]
            n_freqs, n_values = both_signs(nxt)
            below = np.abs(n_freqs) < threshold
            frozen = max(
                float(tp.modulus(c_values[inside] - nxt.coeff(c_freqs[inside])).max(initial=0.0)),
                float(tp.modulus(c.coeff(n_freqs[below]) - n_values[below]).max(initial=0.0)),
            )
        marked_freqs = 2 * stage.dilation * np.array(stage.r_set, dtype=np.int64)
        out.append({
            "stage": i + 1,
            "vanishing_tail": tail,
            "frozen_window": frozen,
            "mean_deviation": abs(c.coeff(0) - 1.0),
            "marked_frequency": float(tp.modulus(c.coeff(marked_freqs) + stage.eps_prime).max(initial=0.0)),
        })
    return out


def assert_rows_bit_identical(rows, reference):
    assert [sorted(r) for r in rows] == [sorted(r) for r in reference]
    for row, ref in zip(rows, reference):
        assert {key: float(v).hex() for key, v in row.items()} == {
            key: float(v).hex() for key, v in ref.items()}


def test_claim_windows_match_the_mask_reference_at_their_edges():
    stages, beta = depth4_stages(), ms.uniform(3)
    products = tower.build_tower(stages, [beta] * 4)
    assert_rows_bit_identical(tower.claim_residuals(stages, products),
                              mask_claim_residuals(stages, products))
    thresholds = [s.dilation for s in stages[1:]] + [2 * 22 * stages[-1].dilation + 1]
    for i, threshold in enumerate(thresholds):
        # one term at a time: |m| = threshold - 1 is the window's last frequency and
        # |m| = threshold the tail's first, in this product or (j = i + 1) the next
        edges = [(i, m, m in (threshold, -threshold))
                 for m in (threshold - 1, 1 - threshold, threshold, -threshold)]
        if i + 1 < len(products):
            edges += [(i + 1, m, False) for m in (threshold - 1, 1 - threshold)]
        for j, m, outside in edges:
            perturbed = list(products)
            perturbed[j] = tp.add(products[j], tp.TrigPoly.from_half([abs(m)], [3e-3]))
            rows = tower.claim_residuals(stages, perturbed)
            assert_rows_bit_identical(rows, mask_claim_residuals(stages, perturbed))
            assert (rows[i]["vanishing_tail"] > 1e-3) == outside
            assert (rows[i]["frozen_window"] > 1e-3) == (not outside and i + 1 < len(products))


def test_claim_windows_match_the_mask_reference_when_empty():
    stages = toy_stages()
    c1, c2 = tower.build_tower(stages, [half_beta(), half_beta()])
    beyond = tp.TrigPoly.from_half([500], [0.25])  # every term beyond stage 1's threshold 113
    for products in ([beyond, c2], [c1, beyond], [tp.zero(), c2], [beyond, beyond]):
        rows = tower.claim_residuals(stages, products)
        assert_rows_bit_identical(rows, mask_claim_residuals(stages, products))
    rows = tower.claim_residuals(stages, [beyond, c2])
    assert rows[0]["vanishing_tail"] == 0.25 and rows[0]["mean_deviation"] == 1.0


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: tower.TowerStage((1,), 1, EPS, 7, 0), "dilation must be >= 1",
                 id="dilation"),
    pytest.param(lambda: tower.validate_stages([tower.TowerStage((1,), 1, EPS, 7, 7),
                                                tower.TowerStage((1,), 1, 0.25, 9, 113)]),
                 "share one eps_prime", id="mixed-eps-prime"),
    pytest.param(lambda: tower.build_tower(toy_stages(), [half_beta()]),
                 "exactly one beta measure per stage", id="beta-count"),
])
def test_refusals_name_their_bound(call, message):
    with pytest.raises(ValueError, match=message):
        call()
