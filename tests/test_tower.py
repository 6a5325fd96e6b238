import numpy as np
import pytest

from vdcset import blocks, certify, cli, tower
from vdcset import measures as ms
from vdcset import trigpoly as tp

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
    with pytest.raises(ValueError, match="max_freq"):
        tower.TowerStage((1,), 1, EPS, 6, 6).validate()
    with pytest.raises(ValueError, match="eps_prime"):
        tower.TowerStage((1,), 1, 0.7, 7, 7).validate()
    with pytest.raises(ValueError, match="inside"):
        tower.TowerStage((3,), 1, EPS, 7, 7).validate()
    with pytest.raises(ValueError, match="dilation == max_freq"):
        tower.validate_stages([tower.TowerStage((1,), 1, EPS, 7, 9)])
    stages = toy_stages()
    stages[1] = tower.TowerStage((1,), 1, EPS, 7, 112)  # needs > 112
    with pytest.raises(ValueError, match="must exceed"):
        tower.validate_stages(stages)


def test_beta_preconditions():
    stage = toy_stages()[0]
    with pytest.raises(ValueError, match="transform at 1"):
        tower.tower_block(stage, ms.dirac(2, 0))
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


def test_correction_ripple_is_small():
    stage = toy_stages()[0]
    ripple = tower.tower_correction(stage, half_beta())
    vals = np.abs(tp.sample_values(ripple, 4096))
    assert vals.max() < EPS


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
    c1 = tp.add(c1, tp.character(-113, 2e-3))  # |m| at stage 1's vanishing threshold
    # 5 is in neither product and inside the frozen window; 226 = 2*113*1 is marked
    c2 = tp.add(c2, tp.TrigPoly({5: 1e-3, 226: 4e-3}))
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


def test_eps_prime_for():
    val = tower.eps_prime_for(0.25)
    assert val / (1 + val) > 0.25
    assert val < 0.5
    with pytest.raises(ValueError):
        tower.eps_prime_for(0.4)
    # eps just below 1/3 needs an eps_prime a hair above 1/2
    with pytest.raises(ValueError, match="bound 1/2"):
        tower.eps_prime_for(0.3333333333)


def depth4_stages(max_freq=21):
    # the depth-4 tower of the construct benchmark: dilations just clear the growth inequality
    dilations = [max_freq]
    while len(dilations) < 4:
        dilations.append(2 * (max_freq + 1) * dilations[-1] + 1)
    return [tower.TowerStage((1, 2), 2, EPS, max_freq, d) for d in dilations]


def test_extend_order_is_presorted_and_bit_identical():
    # the uniform measure on the cube roots of unity kills 1 and 2 and has atom 1/3 > eps'
    stages, beta = depth4_stages(), ms.uniform(3)
    products = tower.build_tower(stages, [beta] * 4)
    c_prev = tp.constant(1.0)
    for stage, c in zip(stages, products):
        dilated = tp.dilate(tower.tower_block(stage, beta), 2 * stage.dilation)
        raw = np.add.outer(dilated.freqs, c_prev.freqs).ravel()
        assert (raw[1:] > raw[:-1]).all()  # the reducer takes its no-sort path
        old_order = tp.multiply(c_prev, dilated)
        assert np.array_equal(c.freqs, old_order.freqs)
        assert np.array_equal(c.values, old_order.values)
        c_prev = c
    assert products[-1].freqs.size == 41**4


def union_window_frozen(stages, products, i):
    """frozen_window over the sorted union of both products' windows."""
    c, nxt = products[i], products[i + 1]
    threshold = stages[i + 1].dilation
    window = np.union1d(c.freqs[np.abs(c.freqs) < threshold],
                        nxt.freqs[np.abs(nxt.freqs) < threshold])
    return float(tp.modulus(c.coeff(window) - nxt.coeff(window)).max(initial=0.0))


def test_frozen_window_matches_the_union_reference():
    stages, beta = depth4_stages()[:3], ms.uniform(3)
    products = tower.build_tower(stages, [beta] * 3)
    # one product perturbed: a frequency only it has, and one both have
    shared = int(products[0].freqs[3])
    # (stage 1 sees 7 only in its next product, stage 2 only in its own)
    products[1] = tp.add(products[1], tp.TrigPoly({7: 2e-3, shared: -3e-4}))
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
        yield ms.scale_add(share, subgroup, 1.0 - share, noise)


def test_stage_polynomial_stays_above_its_floor():
    # grid oracle for the closed-form floor eps' - (mass - eps')*n*(n+1)/max_freq
    rng = np.random.default_rng(5)
    for stage in (toy_stages()[0], depth4_stages()[0]):  # the dilation plays no part
        lp = cli._beta_for_stage(stage, 0, 1)  # as cmd_tower picks it
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


def test_tower_products_are_gated_by_the_atom_budget(monkeypatch):
    stages = [tower.TowerStage((1,), 1, 0.3, 7, 7), tower.TowerStage((1,), 1, 0.3, 7, 113)]
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(13 * 13))  # c_2 has 13 * 13 terms
    assert len(tower.build_tower(stages, [ms.uniform(3)] * 2)[-1].freqs) == 13 * 13
    monkeypatch.setenv("VDC_ATOM_BUDGET", str(13 * 13 - 1))
    monkeypatch.setattr(tower, "tower_block", None)  # the gate raises before any stage is built
    with pytest.raises(blocks.AtomBudgetError, match="169 terms exceeds the atom budget 168"):
        tower.build_tower(stages, [ms.uniform(3)] * 2)


def mask_claim_residuals(stages, products):
    """claim_residuals as it read with boolean masks over |freqs|: the reference
    that the slice windows must match bit for bit."""
    out = []
    for i, (stage, c) in enumerate(zip(stages, products)):
        if i + 1 < len(stages):
            threshold = stages[i + 1].dilation
        else:
            threshold = 2 * (stage.max_freq + 1) * stage.dilation + 1
        inside = np.abs(c.freqs) < threshold
        tail = float(tp.modulus(c.values[~inside]).max(initial=0.0))
        frozen = 0.0
        if i + 1 < len(products):
            nxt = products[i + 1]
            below = np.abs(nxt.freqs) < threshold
            frozen = max(
                float(tp.modulus(c.values[inside] - nxt.coeff(c.freqs[inside])).max(initial=0.0)),
                float(tp.modulus(c.coeff(nxt.freqs[below]) - nxt.values[below]).max(initial=0.0)),
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
            perturbed[j] = tp.add(products[j], tp.character(m, 3e-3))
            rows = tower.claim_residuals(stages, perturbed)
            assert_rows_bit_identical(rows, mask_claim_residuals(stages, perturbed))
            assert (rows[i]["vanishing_tail"] > 1e-3) == outside
            assert (rows[i]["frozen_window"] > 1e-3) == (not outside and i + 1 < len(products))


def test_claim_windows_match_the_mask_reference_when_empty():
    stages = toy_stages()
    c1, c2 = tower.build_tower(stages, [half_beta(), half_beta()])
    beyond = tp.TrigPoly({-500: 0.25, 500: 0.25})  # every term beyond stage 1's threshold 113
    for products in ([beyond, c2], [c1, beyond], [tp.TrigPoly({}), c2], [beyond, beyond]):
        rows = tower.claim_residuals(stages, products)
        assert_rows_bit_identical(rows, mask_claim_residuals(stages, products))
    rows = tower.claim_residuals(stages, [beyond, c2])
    assert rows[0]["vanishing_tail"] == 0.25 and rows[0]["mean_deviation"] == 1.0
