import math

import numpy as np
import pytest

from vdcset import blocks, tower
from vdcset import combinatorics as cb
from vdcset import measures as ms
from vdcset import trigpoly as tp

from measure_helpers import dirac


def refusal(make, *args) -> str:
    """The message of the ValueError that make(*args) raises, '' when it returns
    (BlockParamsError is a ValueError)."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return ""


def test_params_ledger_names_violations():
    assert all(ok for _, ok in blocks.BlockParams(2, 64, 0).ledger())
    with pytest.raises(blocks.BlockParamsError, match="Q > 4\\*ell"):
        blocks.BlockParams(2, 8, 0)
    with pytest.raises(blocks.BlockParamsError, match="Q even"):
        blocks.BlockParams(2, 63, 0)


BLOCK_HEAD = "block parameters (ell={}, Q={}, k={}) violate: "
WITNESS_HEAD = "witness parameters (j={}, Q={}, P={}) violate: "


@pytest.mark.parametrize("make, args, rows", [
    pytest.param(blocks.BlockParams, (0, 64, 0), ["ell >= 1"], id="ell"),
    pytest.param(blocks.BlockParams, (2, 64, -1), ["k >= 0"], id="k"),
    pytest.param(blocks.BlockParams, (2, 63, 0), ["Q even"], id="q-even"),
    # Q > 6*ell (row 5) is row 8 at every k, and implies rows 4, 6 and 7 for ell >= 1
    pytest.param(blocks.BlockParams, (2, 12, 1), ["Q/2 - 2*ell > ell", "2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k"],
                 id="q-above-6-ell"),
    pytest.param(blocks.BlockParams, (2, 8, 0), ["Q > 4*ell", "Q/2 - 2*ell > ell",
                                                 "ell*Q^k < Q^(k+1)/2 - ell*Q^k",
                                                 "2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k"], id="q-above-4-ell"),
    pytest.param(blocks.BlockParams, (2, 0, -1), ["k >= 0", "Q even", "Q > 4*ell", "Q/2 - 2*ell > ell",
                                                  "ell*Q^k < Q^(k+1)/2 - ell*Q^k",
                                                  "-Q^(k+1)/2 + ell*Q^k < -Q^k",
                                                  "2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k"], id="q-zero-k-negative"),
    pytest.param(blocks.WitnessParams, (1, 0.01, 64, 0),
                 ["digit patterns need j >= 1 and P >= 1, got j=1, P=0"], id="witness-pattern"),
    pytest.param(blocks.WitnessParams, (1, 0.7, 64, 1), ["0 < epsilon < 1/2"], id="witness-epsilon"),
    pytest.param(blocks.WitnessParams, (1, 0.01, 34, 2), ["block k=0: Q/2 - 2*ell > ell",
                                                          "block k=0: 2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k"],
                 id="witness-block"),
])
def test_construction_names_each_failed_row(make, args, rows):
    # the refusal names exactly the failed rows, in ledger order; (2, 0, -1) once divided by zero
    head = (BLOCK_HEAD.format(*args) if make is blocks.BlockParams
            else WITNESS_HEAD.format(args[0], *args[2:]))
    with pytest.raises(blocks.BlockParamsError) as exc:
        make(*args)
    assert str(exc.value) == head + "; ".join(rows)


def test_block_polynomial_coefficients():
    p, r, s = blocks.block_polynomials(blocks.BlockParams(2, 64, 0))
    # low-band coefficient values of p
    assert p.coeff(0) == pytest.approx(1 - math.cos(2 * math.pi * 2 / 64), abs=1e-12)
    assert p.coeff(1) == pytest.approx(1 - math.cos(2 * math.pi * 1 / 64), abs=1e-12)
    assert p.coeff(2) == 0.0  # edge value vanishes
    # spike coefficients of r
    assert r.coeff(2) == pytest.approx(1.0)
    assert r.coeff(30) == pytest.approx(-0.5)
    assert r.coeff(34) == pytest.approx(-0.5)
    assert r.coeff(3) == 0.0
    # grid positivity of the assembled polynomial
    assert tp.grid_min(s, 4096) >= -1e-9


def reference_block_polynomial(p, r, params):
    """s = 16*ell*(p conv F_{Q^k}) + r*p composed from polynomial operations."""
    smoothed = tp.scale(tp.convolve(p, tp.fejer(params.q**params.k)), 16.0 * params.ell)
    return tp.add(smoothed, tp.multiply(r, p))


@pytest.mark.parametrize("ell,q,k", [(2, 64, 0), (8, 64, 1), (8, 128, 1), (5, 34, 1)])
def test_block_polynomial_matches_composed_reference(ell, q, k):
    # (5, 34, 1) has 4*ell*Q^k > N/2: the spikes at ell*Q^k and N/2 - ell*Q^k overlap
    params = blocks.BlockParams(ell, q, k)
    p, r, s = blocks.block_polynomials(params)
    reference = reference_block_polynomial(p, r, params).coeffs  # both signs
    m = np.fromiter(reference, dtype=np.int64, count=len(reference))
    assert list(s.coeffs) == list(reference)
    assert np.abs(s.coeff(m) - np.fromiter(reference.values(), complex, m.size)).max() <= 1e-12
    assert s.degree == params.sample_degree


def test_sample_degree_closed_form():
    # p vanishes at +-ell*Q^k, so s = 16*ell*(p conv F) + r*p has degree N/2 + 2*ell*Q^k - 1
    swept = 0
    for ell in range(1, 9):
        for q in range(2, 130, 2):
            for k in range(3):
                if refusal(blocks.BlockParams, ell, q, k) or q ** (k + 1) > 1 << 14:
                    continue
                params = blocks.BlockParams(ell, q, k)
                assert blocks.block_polynomials(params)[2].degree == params.sample_degree, params
                swept += 1
    assert swept > 800


def test_block_mass_formula():
    # the sampled mass excess equals 16*ell*(1 - cos(2 pi ell / Q)) exactly
    for ell, q in ((2, 64), (3, 128)):
        sigma = blocks.build_block(blocks.BlockParams(ell, q, 0))
        predicted = 1.0 + 16 * ell * (1 - math.cos(2 * math.pi * ell / q))
        assert sigma.mass() == pytest.approx(predicted, abs=1e-9)


@pytest.mark.parametrize("ell", [2, 3])
@pytest.mark.parametrize("q", [64, 128])
@pytest.mark.parametrize("k", [0, 1])
def test_block_bullets_full_matrix(ell, q, k):
    params = blocks.BlockParams(ell, q, k)
    sigma = blocks.build_block(params)
    assert sigma.order == q ** (k + 1)
    res = blocks.block_residuals(sigma, params)
    assert res["mass_excess"] <= 1e-9
    assert res["plus_band_residual"] < 1e-9
    assert res["minus_band_residual"] < 1e-9
    assert res["min_weight"] >= -1e-12


def test_block_spot_frequencies():
    sigma = blocks.build_block(blocks.BlockParams(2, 64, 0))
    assert sigma.fourier(1) == pytest.approx(1.0, abs=1e-9)
    assert sigma.fourier(32) == pytest.approx(-1.0, abs=1e-9)
    sigma1 = blocks.build_block(blocks.BlockParams(2, 64, 1))
    assert sigma1.mass() <= 1 + 320 * 8 / 4096 + 1e-9


def test_block_budget_guard(monkeypatch):
    monkeypatch.setenv("VDC_ATOM_BUDGET", "1000")
    with pytest.raises(blocks.AtomBudgetError, match=r"^block order 64\^2 exceeds the atom budget 1000$"):
        blocks.build_block(blocks.BlockParams(2, 64, 1))
    monkeypatch.delenv("VDC_ATOM_BUDGET")
    assert blocks.atom_budget() == blocks.DEFAULT_ATOM_BUDGET


def test_witness_params_ledger():
    wp = blocks.WitnessParams(1, 0.01, 64, 2)
    assert wp.canonical_p == blocks.canonical_depth(1, 64) == math.floor(64 * math.log(2)) + 1 == 45
    assert wp.relaxed
    with pytest.raises(blocks.BlockParamsError, match="Q/2 \\+ 8\\*j < Q"):
        blocks.WitnessParams(1, 0.01, 16, 1)


@pytest.mark.parametrize("j", [1, 2])
def test_witness_ledger_matches_per_block_reference(j):
    # the block inequalities are homogeneous in Q^k for even Q, and an odd Q
    # fails 'Q even' at every k, so one block ledger decides all k < P: the witness
    # constructs exactly when R's range holds and every block k < P constructs
    for q in range(2, 200):
        for p in range(1, 7):
            reference = not refusal(cb.digit_windows, j, q, p) and not any(
                refusal(blocks.BlockParams, 8 * j, q, k) for k in range(p))
            assert (not refusal(blocks.WitnessParams, j, 0.01, q, p)) == reference, (j, q, p)


def test_witness_ledger_reads_r_range_from_digit_windows():
    # the one R row holds digit_windows' message exactly when digit_windows refuses (j, Q, P)
    for j in range(4):
        for q in range(2, 200):
            for p in range(3):
                pattern = refusal(cb.digit_windows, j, q, p)
                message = refusal(blocks.WitnessParams, j, 0.01, q, p)
                if pattern:
                    assert f"violate: {pattern}" in message, (j, q, p)
                else:
                    assert "digit patterns" not in message, (j, q, p)


def test_block_row_q_above_4_ell_covers_8j_at_most_q():
    # Q > 4*ell = 32j implies 8j <= Q for j >= 1, and j < 1 fails 'ell >= 1', so no ledger
    # needs a row for 8j <= Q
    for j in range(-2, 6):
        for q in range(-4, 400):
            for p in range(-1, 4):
                if 8 * j > q:
                    assert refusal(blocks.WitnessParams, j, 0.01, q, p), (j, q, p)


def test_witness_depth_budget():
    budget = blocks.atom_budget()
    with pytest.raises(blocks.AtomBudgetError,
                       match=rf"^witness order 64\^45 exceeds the atom budget {budget}; "
                             r"maximal feasible P for Q=64 is 4$"):
        blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 45))


@pytest.mark.parametrize("p", [1, 2])
def test_witness_normalisation_and_zeros(p):
    mu, sigma = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, p))
    assert mu.order == 64**p
    assert mu.mass() == pytest.approx(1.0, abs=1e-12)
    assert mu.weights[0] > 0
    members = blocks.digit_pattern_members(1, 64, p)
    assert len(members) == p * 8 * 7 ** (p - 1)
    for y in members:
        assert abs(mu.fourier(y)) < 1e-9


def test_witness_product_spectrum():
    mu, sigma = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))
    parts = [blocks.build_block(blocks.BlockParams(8, 64, k)) for k in range(2)]
    rng = np.random.default_rng(0)
    for y in rng.integers(0, 64**2, size=100):
        y = int(y)
        digits = cb.int_to_digits(y, 64, 2)
        partial, predicted = 0, 1.0 + 0.0j
        for k in range(2):
            partial += digits[k] * 64**k
            predicted *= parts[k].fourier(partial)
        assert abs(sigma.fourier(y) - predicted) < 1e-9


def test_witness_rejects_broken_product_identity(monkeypatch):
    real = blocks.convolve

    def shifted(a, b):  # a rotated convolution keeps mass but breaks the spectrum
        out = real(a, b)
        return ms.AtomicMeasure(out.order, np.roll(out.weights, 1))

    monkeypatch.setattr(blocks, "convolve", shifted)
    with pytest.raises(blocks.BlockBulletError, match="product identity"):
        blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))


def test_witness_rejects_broken_pattern_zero(monkeypatch):
    real = blocks.build_block

    def tilted(params, **kwargs):  # extra mass at 1/N on block 0 moves the pattern values
        block = real(params, **kwargs)
        if params.k:
            return block
        point = dirac(block.order, 1)
        return ms.AtomicMeasure(block.order, 1.0 * block.weights + 1e-3 * point.weights)

    monkeypatch.setattr(blocks, "build_block", tilted)
    with pytest.raises(blocks.BlockBulletError, match="pattern_zeros_residual"):
        blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))


def test_witness_residuals_match_per_frequency_transform():
    params = blocks.WitnessParams(1, 0.01, 64, 2)
    mu, _ = blocks.build_witness(params)
    res = blocks.witness_residuals(mu, params)
    members = blocks.digit_pattern_members(1, 64, 2)
    assert res["pattern_count"] == res["expected_pattern_count"] == len(members) == 112
    assert res["pattern_zeros_residual"] == max(abs(mu.fourier(y)) for y in members)
    assert res["atom"] == mu.weights[0] >= res["atom_lower_bound"]


def test_digit_pattern_members_small():
    assert blocks.digit_pattern_members(1, 64, 1) == list(range(32, 40))
    members = blocks.digit_pattern_members(1, 64, 2)
    assert len(members) == 112
    assert members == sorted(members)
    for y in members:
        digits = cb.int_to_digits(y, 64, 2)
        marked = [i for i, d in enumerate(digits) if 32 <= d < 40]
        assert len(marked) == 1
        other = digits[1 - marked[0]]
        assert 1 <= other < 8


def test_zero_set_basics():
    assert blocks.zero_set(ms.uniform(8), 7) == set(range(1, 8))
    assert blocks.zero_set(dirac(8, 0), 8) == set()
    with pytest.raises(ValueError):
        blocks.zero_set(ms.uniform(8), 9)


def test_zero_set_contains_all_patterns():
    mu, _ = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))
    zeros = blocks.zero_set(mu, 4095)
    assert set(blocks.digit_pattern_members(1, 64, 2)) <= zeros


def test_zero_set_matches_the_gather_on_both_sides_of_the_half():
    mu, _ = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))
    n = mu.order
    for bound in (n // 2 - 1, n // 2, n // 2 + 1, n):
        freqs = np.arange(1, bound + 1)
        assert blocks.zero_set(mu, bound) == set(freqs[np.abs(mu.fourier(freqs)) < tp.EVAL_TOL].tolist())


def test_block_transform_identity_every_frequency():
    # independent cross-check at all frequencies, not just the bands:
    # sigma_hat(m) = cos(2 pi m / N) + s_hat(m) + s_hat(m - N)
    params = blocks.BlockParams(2, 64, 0)
    _, _, s = blocks.block_polynomials(params)
    sigma = blocks.build_block(params)
    n_total = params.order
    for m in range(n_total):
        predicted = (
            math.cos(2 * math.pi * m / n_total)
            + s.coeff(m).real
            + s.coeff(m - n_total).real
        )
        assert sigma.fourier(m).real == pytest.approx(predicted, abs=1e-9)
        assert abs(sigma.fourier(m).imag) < 1e-9


@pytest.mark.parametrize("ell,q,k", [(2, 64, 0), (2, 64, 1), (2, 64, 2), (8, 64, 1),
                                      (8, 128, 1), (5, 34, 1)])
def test_block_polynomial_decomposition_on_a_grid(ell, q, k):
    # grid oracle for s = 4*(4*ell*(p conv F_{Q^k}) - p) + (4 + r)*p, which the
    # builder relies on instead of a grid: s and both parts stay >= -EVAL_TOL on 8N points
    params = blocks.BlockParams(ell, q, k)
    p, r, s = blocks.block_polynomials(params)
    smoothed = tp.scale(tp.convolve(p, tp.fejer(q**k)), 4.0 * ell)
    first = tp.add(smoothed, tp.scale(p, -1.0))
    second = tp.multiply(tp.add(tp.constant(4.0), r), p)
    whole = tp.add(tp.scale(first, 4.0), second)
    assert np.array_equal(whole.freqs, s.freqs)
    assert np.abs(whole.values - s.values).max() <= tp.COEFF_TOL
    grid = 8 * params.order
    for poly in (s, first, second):
        assert tp.grid_min(poly, grid) >= -tp.EVAL_TOL


def test_builders_evaluate_no_grid(monkeypatch):
    # positivity of p and s is certified by the convex profile, that of a tower
    # stage by its closed-form floor, not by sampling
    def refuse(*args):
        raise AssertionError("a positivity grid was evaluated")

    monkeypatch.setattr(tp, "grid_min", refuse)
    monkeypatch.setattr(tp, "positivity_grid", refuse)
    assert not hasattr(blocks, "grid_min")
    for name in ("grid_min", "positivity_grid", "sample_values"):
        assert not hasattr(tower, name)
    assert blocks.build_block(blocks.BlockParams(2, 64, 1)).order == 64**2
    mu, sigma = blocks.build_witness(blocks.WitnessParams(1, 0.01, 64, 2))
    assert mu.order == sigma.order == 64**2
    poly = tp.convex_poly(tp.ConvexProfile((1.0, 0.25, 0.0)))
    assert poly.coeffs == {-1: 0.25, 0: 1.0, 1: 0.25}
    monkeypatch.setattr(tp, "sample_values", refuse)
    stages = [tower.TowerStage((1, 2), 2, 0.3, 21, d) for d in (21, 925, 40701)]
    products = tower.build_tower(stages, [ms.uniform(3)] * 3)
    assert len(products[-1].coeffs) == 41**3


@pytest.mark.parametrize("ell,q,k", [(8, 64, 1), (2, 64, 0)])
def test_block_weights_match_scale_add_reference(ell, q, k):
    # the point pair added as measures, then summed with the samples
    params = blocks.BlockParams(ell, q, k)
    n = params.order
    s = blocks.block_polynomials(params)[2]
    pair = ms.AtomicMeasure(n, 0.5 * dirac(n, 1).weights + 0.5 * dirac(n, n - 1).weights)
    reference = ms.AtomicMeasure(n, 1.0 * pair.weights + 1.0 * ms.from_samples(s, n).weights)
    weights = blocks.build_block(params).weights
    assert weights.tobytes() == reference.weights.tobytes()


@pytest.mark.parametrize("q,p", [(64, 1), (64, 2), (64, 3), (128, 1), (128, 2)])
def test_witness_mu_matches_scale_add_reference(q, p):
    # mu = (sigma + dirac_0) / (mass + 1), both measures scaled and summed
    params = blocks.WitnessParams(1, 0.01, q, p)
    mu, sigma = blocks.build_witness(params)
    norm = 1.0 / (sigma.mass() + 1.0)
    point = dirac(params.order, 0)
    reference = ms.AtomicMeasure(params.order, norm * sigma.weights + norm * point.weights)
    assert mu.weights.tobytes() == reference.weights.tobytes()
