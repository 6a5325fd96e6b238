"""TrigPoly.from_half against the hand-mirrored constructions it replaced.

Each reference below is the expression a builder used before it called
from_half, kept verbatim as both-sign arrays; the polynomial's coeffs must
reproduce it bit for bit at m >= 0 (the reference's zeros read as +0, as its
Hermitian half was), and up to the sign of a zero at m < 0."""

import numpy as np
import pytest

from vdcset import blocks, certify, tower
from vdcset import measures as ms
from vdcset import trigpoly as tp


def assert_same_coefficients(poly, freqs, values):
    """poly.coeffs equals the both-sign reference (freqs without repeats, in
    any order; its exact zeros dropped) up to the sign of a zero, cleared by
    + 0.0.  At m >= 0 the polynomial's own bits must match: a half read from
    the reference as 0 + c_m + conj(c_-m), halved, is c_m with +0 zeros."""
    freqs, values = np.asarray(freqs, dtype=np.int64), np.asarray(values, dtype=complex)
    order = np.argsort(freqs, kind="stable")
    keep = values[order] != 0
    want_m, want_c = freqs[order][keep], values[order][keep]
    coeffs = poly.coeffs
    m = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    c = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    assert m.tobytes() == want_m.tobytes()
    assert c[m >= 0].tobytes() == (want_c[want_m >= 0] + 0.0).tobytes()
    assert (c + 0.0).tobytes() == (want_c + 0.0).tobytes()


def assert_exactly_hermitian(f):
    """coeffs[-m] == conj(coeffs[m]) with no tolerance over the whole dict,
    coeff(0) real, and only the half m >= 0 stored.  The bytes agree after
    +0.0, which clears the sign of a zero imaginary part."""
    coeffs = f.coeffs
    assert (f.freqs >= 0).all() and len(coeffs) == 2 * f.freqs.size - (0 in coeffs)
    m = np.fromiter(coeffs, dtype=np.int64, count=len(coeffs))
    values = np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs))
    assert np.array_equal(m, -m[::-1])
    assert np.array_equal(values[::-1], np.conj(values))
    assert (values[::-1] + 0.0).tobytes() == (np.conj(values) + 0.0).tobytes()
    assert np.imag(f.coeff(0)) == 0.0


def mirrored_block_polynomials(params):
    """block_polynomials as both-sign (freqs, values): r from both signs of
    its spikes and s mirrored around an explicit frequency 0."""
    n_total, half = params.order, params.order // 2
    edge, width = params.ell * params.q**params.k, params.q**params.k
    m = np.arange(-edge, edge + 1)
    profile = 1.0 - np.cos(2.0 * np.pi * (edge - np.abs(m)) / n_total)
    values = profile[edge:]
    p = np.arange(-edge, edge + 1), np.concatenate((values[:0:-1], values))
    spikes = np.array([edge, half - edge, half + edge])
    r = np.concatenate([spikes, -spikes]), [1.0, -0.5, -0.5] * 2
    even = np.zeros(params.sample_degree + 2)
    even[:width] = 16.0 * params.ell * (profile[edge : edge + width] * (1.0 - np.arange(width) / width))
    for spike, weight in zip(spikes, (1.0, -0.5, -0.5)):
        even[spike - edge : spike + edge + 1] += weight * profile
    at = np.flatnonzero(even[1:]) + 1
    values = even[at]
    s = np.concatenate((-at[::-1], [0], at)), np.concatenate((values[::-1], even[:1], values))
    return p, r, s


@pytest.mark.parametrize("ell, q, k", [(2, 64, 0), (8, 64, 1), (8, 128, 1), (5, 34, 1), (8, 64, 2)])
def test_block_polynomials_match_the_mirrored_reference(ell, q, k):
    params = blocks.BlockParams(ell, q, k)
    for poly, reference in zip(blocks.block_polynomials(params), mirrored_block_polynomials(params)):
        assert_same_coefficients(poly, *reference)
        assert_exactly_hermitian(poly)


@pytest.mark.parametrize("order", [32, 64, 96, 128, 256, 512])
def test_lp_dual_matches_the_mirrored_reference(order, monkeypatch):
    sampled = []
    monkeypatch.setattr(certify, "sample_values", lambda f, grid: sampled.append(f) or tp.sample_values(f, grid))
    witness = certify.max_atom_lp(range(1, 9), order)
    certify.reverify_witness(witness)
    y, r = witness.dual, np.array(witness.r_set, dtype=np.int64)
    half = y[1:] / 2
    reference = np.concatenate((-r[::-1], [0], r)), np.concatenate((half[::-1], y[:1], half))
    (dual,) = sampled
    assert_same_coefficients(dual, *reference)
    assert_exactly_hermitian(dual)


@pytest.mark.parametrize("n", range(1, 65))
def test_kernels_match_the_mirrored_reference(n):
    k = np.arange(-n + 1, n)
    fejer = k, 1.0 - np.abs(k) / n
    dirichlet = np.arange(-n, n + 1), np.ones(2 * n + 1)
    for poly, reference in ((tp.fejer(n), fejer), (tp.dirichlet(n), dirichlet)):
        assert_same_coefficients(poly, *reference)
        assert_exactly_hermitian(poly)


@pytest.mark.parametrize("seed", [0, 1, 7, 101])
def test_random_real_poly_matches_the_mirrored_reference(seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for degree in (0, 1, 2, 5, 17):
        z = reference_rng.normal(size=2 * degree + 1)
        c = z[1::2] + 1j * z[2::2]
        reference = np.arange(-degree, degree + 1), np.concatenate((np.conj(c[::-1]), z[:1], c))
        poly = tp._random_real_poly(rng, degree)
        assert_same_coefficients(poly, *reference)
        assert_exactly_hermitian(poly)


def mirrored_stage_polynomial(stage, beta):
    """tower_block as both-sign (freqs, values), with beta_hat gathered on the
    whole window -max_freq < m < max_freq: beta_hat(m) - eps' on |m| <= n,
    Fejer-weighted beyond it, and eps' added back at 0."""
    eps, big_m = stage.eps_prime, stage.max_freq
    window = np.arange(-big_m + 1, big_m)
    values = beta.fourier(window) - eps
    tail = np.abs(window) > stage.n
    values[tail] = (1.0 - np.abs(window[tail]) / big_m) * values[tail]
    values[big_m - 1] += eps
    return window, values


@pytest.mark.parametrize("beta", [ms.uniform(3), certify.max_atom_lp((1, 2), 7).measure,
                                  certify.max_atom_lp((1, 3), 16).measure], ids=["uniform3", "lp7", "lp16"])
@pytest.mark.parametrize("n, max_freq", [(2, 21), (3, 41), (1, 7)])
def test_stage_polynomials_match_the_mirrored_reference(beta, n, max_freq):
    r_set = tuple(r for r in (1, 2, 3) if r <= n and abs(beta.fourier(r)) < tp.EVAL_TOL)
    stage = tower.TowerStage(r_set, n, 0.3, max_freq, max_freq)
    # the reference read beta_hat(-m) directly, which leaves +0 where the exact
    # conjugate has -0 in the imaginary part; every other bit agrees
    block = tower.tower_block(stage, beta)
    assert_same_coefficients(block, *mirrored_stage_polynomial(stage, beta))
    assert_exactly_hermitian(block)


def test_from_half_without_frequency_zero():
    poly = tp.TrigPoly.from_half([2, 5], [1.0 + 2.0j, -3.0])
    assert poly.freqs.tolist() == [2, 5]
    assert poly.values.tolist() == [1.0 + 2.0j, -3.0]
    assert poly.coeffs == {-5: -3.0, -2: 1.0 - 2.0j, 2: 1.0 + 2.0j, 5: -3.0}
    assert poly.coeff(0) == 0.0
    assert_exactly_hermitian(poly)


def test_from_half_of_nothing_is_the_zero_polynomial():
    for poly in (tp.TrigPoly.from_half([], []), tp.TrigPoly.from_half([0], [0.0])):
        assert poly.coeffs == {} and poly.freqs.size == 0 and poly.values.size == 0
        assert poly.freqs.dtype == np.int64 and poly.values.dtype == complex


def test_from_half_mirrors_complex_values_and_keeps_zero_once():
    values = np.array([2.5 + 0.0j, 1.0 - 1.0j, 0.0, -0.25j])
    poly = tp.TrigPoly.from_half([0, 1, 2, 3], values)
    assert poly.freqs.tolist() == [0, 1, 3]  # the exact zero at 2 is dropped, and its mirror
    assert poly.coeffs == {-3: 0.25j, -1: 1.0 + 1.0j, 0: 2.5, 1: 1.0 - 1.0j, 3: -0.25j}
    assert_exactly_hermitian(poly)
    folded = np.zeros(16, dtype=complex)  # sampled without the real fold: one complex ifft
    np.add.at(folded, np.array(list(poly.coeffs)) % 16, list(poly.coeffs.values()))
    assert np.allclose(np.fft.ifft(folded) * 16, tp.sample_values(poly, 16), atol=1e-15)


def test_from_half_rejects_negative_frequencies_and_a_complex_constant():
    with pytest.raises(ValueError, match="frequencies >= 0 .* got 1.0 at the first frequency -1"):
        tp.TrigPoly.from_half([-1, 0, 1], [1.0, 2.0, 1.0])
    with pytest.raises(ValueError, match=r"real value at 0, got \(1\+1e-300j\) at the first frequency 0"):
        tp.TrigPoly.from_half([0, 1], [1.0 + 1e-300j, 1.0])
    with pytest.raises(ValueError, match="frequencies >= 0"):
        tp.TrigPoly.from_half([2, -3], [1.0, 1.0])  # not ascending, negative past the first
    assert tp.TrigPoly.from_half([0, 1], [1.0 + 0.0j, 1.0]).coeff(0) == 1.0


def test_from_half_message_quotes_the_normal_form():
    # the check reads the first entry after sorting, so the message quotes that entry
    with pytest.raises(ValueError, match="got 1.0 at the first frequency -3$"):
        tp.TrigPoly.from_half([2, -3], [1.0, 1.0])
    with pytest.raises(ValueError, match="got 1j at the first frequency 0$"):
        tp.TrigPoly.from_half([1, 0], [1.0, 1j])
