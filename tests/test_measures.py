import ast
import math
from pathlib import Path

import numpy as np
import pytest

from vdcset import measures as ms
from vdcset import trigpoly as tp

from measure_helpers import dirac, measure_from_json


def direct_circular_convolution(w1, w2):
    n = len(w1)
    out = np.zeros(n)
    for a in range(n):
        for b in range(n):
            out[(a + b) % n] += w1[a] * w2[b]
    return out


def test_dirac_transform():
    assert dirac(4, 0).fourier(7) == pytest.approx(1.0)
    assert dirac(4, 1).fourier(1) == pytest.approx(-1j)
    # periodicity with period 4
    assert dirac(4, 1).fourier(5) == pytest.approx(-1j)


def test_uniform_orthogonality():
    u = ms.uniform(8)
    assert abs(u.fourier(3)) < 1e-12
    assert u.fourier(8) == pytest.approx(1.0)


def test_symmetric_pair_gives_cosine():
    m = ms.AtomicMeasure(8, 0.5 * dirac(8, 1).weights + 0.5 * dirac(8, 7).weights)
    for k in range(-10, 11):
        assert m.fourier(k) == pytest.approx(math.cos(2 * math.pi * k / 8), abs=1e-12)


def test_negative_weights_rejected_and_clamped():
    with pytest.raises(ValueError):
        ms.AtomicMeasure(3, np.array([0.5, -1e-6, 0.5]))
    m = ms.AtomicMeasure(3, np.array([0.5, -1e-13, 0.5]))
    assert m.weights[1] == 0.0


def test_mass_equals_transform_at_zero():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        m = ms.AtomicMeasure(n, rng.random(n))
        assert m.fourier(0) == pytest.approx(m.mass(), abs=1e-12)
        assert abs(m.fourier(int(rng.integers(0, 1000)))) <= m.mass() + 1e-12


def test_periodicity_random():
    rng = np.random.default_rng(13)
    m = ms.AtomicMeasure(12, rng.random(12))
    for k in rng.integers(-500, 500, size=200):
        assert m.fourier(int(k)) == pytest.approx(m.fourier(int(k) % 12), abs=1e-12)


def test_convolution_identity_translation_uniform():
    rng = np.random.default_rng(17)
    m = ms.AtomicMeasure(6, rng.random(6))
    out = ms.convolve(m, dirac(6, 0))
    assert np.allclose(out.weights, m.weights, atol=1e-12)
    shifted = ms.convolve(dirac(4, 1), dirac(4, 2))
    assert np.allclose(shifted.weights, dirac(4, 3).weights, atol=1e-12)
    flat = ms.convolve(ms.uniform(4), ms.uniform(4))
    assert np.allclose(flat.weights, ms.uniform(4).weights, atol=1e-12)


def test_convolution_against_direct_oracle_and_theorem():
    rng = np.random.default_rng(19)

    def check(n1, n2):
        m1 = ms.AtomicMeasure(n1, rng.random(n1))
        m2 = ms.AtomicMeasure(n2, rng.random(n2))
        out = ms.convolve(m1, m2)
        common = math.lcm(n1, n2)
        assert out.order == common
        lifted1 = np.zeros(common)
        lifted1[np.arange(n1) * (common // n1)] = m1.weights
        lifted2 = np.zeros(common)
        lifted2[np.arange(n2) * (common // n2)] = m2.weights
        assert np.allclose(out.weights, direct_circular_convolution(lifted1, lifted2), atol=1e-12)
        for k in rng.integers(0, 3 * common, size=100):
            k = int(k)
            assert out.fourier(k) == pytest.approx(m1.fourier(k) * m2.fourier(k), abs=1e-9)

    for _ in range(10):
        check(int(rng.integers(2, 9)), int(rng.integers(2, 9)))
    # both lifts to order 72 carry more than 16 atoms
    check(24, 36)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 4096])
def test_spectrum_is_the_complex_fft(order):
    m = ms.AtomicMeasure(order, np.random.default_rng(order).random(order))
    k = np.arange(-2 * order, 2 * order)
    assert np.abs(m.fourier(k) - np.fft.fft(m.weights)[k % order]).max() <= 1e-12 * m.mass()
    assert m.spectrum.shape == (order // 2 + 1,)
    with pytest.raises(ValueError):
        m.spectrum[0] = 0.0
    assert type(m.fourier(np.int64(order - 1))) is complex
    assert [m.fourier(int(j)) for j in k] == m.fourier(k).tolist()  # scalar calls, same bits


def test_only_measures_reads_the_spectrum_layout():
    """Other modules read transforms through fourier, so the half-spectrum
    layout can change in measures.py alone."""
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(ms.__file__).parent.glob("*.py")) if path.name != "measures.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "spectrum"
    ]
    assert readers == []


def lift_rfft_convolution(m1, m2):
    """Convolution by zero-stuffed lifts to the lcm order and one rfft of each."""
    common = math.lcm(m1.order, m2.order)
    lifts = []
    for m in (m1, m2):
        w = np.zeros(common)
        w[:: common // m.order] = m.weights
        lifts.append(w)
    return np.fft.irfft(np.fft.rfft(lifts[0]) * np.fft.rfft(lifts[1]), common)


@pytest.mark.parametrize("orders", [(64, 4096), (4096, 64), (3, 5), (5, 3), (6, 6), (1, 7)])
def test_convolve_from_cached_spectra_matches_lifts(orders):
    rng = np.random.default_rng(sum(orders))
    m1, m2 = (ms.AtomicMeasure(n, rng.random(n) / n) for n in orders)
    out = ms.convolve(m1, m2)
    assert out.order == math.lcm(*orders)
    assert np.abs(out.weights - lift_rfft_convolution(m1, m2)).max() <= 1e-12 * m1.mass() * m2.mass()


def test_lcm_overflow_guard():
    big = dirac(1 << 21, 0)
    other = dirac((1 << 21) - 1, 0)  # coprime orders, lcm ~ 2^42
    with pytest.raises(ms.AtomBudgetError, match="exceeds the atom budget"):
        ms.convolve(big, other)


def test_common_order_is_gated_by_the_atom_budget(monkeypatch):
    from vdcset import blocks, certify, tower

    assert blocks.AtomBudgetError is ms.AtomBudgetError
    assert blocks.atom_budget is ms.atom_budget and blocks.DEFAULT_ATOM_BUDGET == ms.DEFAULT_ATOM_BUDGET
    assert not hasattr(ms, "LCM_ATOM_LIMIT")
    a, b = ms.uniform(4), ms.uniform(6)  # common order 12
    monkeypatch.setenv("VDC_ATOM_BUDGET", "12")
    assert ms.convolve(a, b).order == 12
    monkeypatch.setenv("VDC_ATOM_BUDGET", "11")
    stage = tower.TowerStage((1,), 1, 0.3, 7, 7)  # 13 terms
    refusals = [
        ("common order 12", lambda: ms.convolve(a, b)),
        ("block order 64^1", lambda: blocks.build_block(blocks.BlockParams(2, 64, 0))),
        ("tower product of 13 terms", lambda: tower.build_tower([stage], [ms.uniform(3)])),
        ("LP of 2 rows on 17 orbit columns (34 entries)", lambda: certify.max_atom_lp([1], 32)),
        ("Fejer table of at least 2 kernels on grid 64",
         lambda: tp.kernel_residuals(64, 2, np.random.default_rng(0))),
    ]
    for what, refuse in refusals:  # every module's refusal is the one gate's error and wording
        with pytest.raises(ms.AtomBudgetError) as err:
            refuse()
        assert err.type is ms.AtomBudgetError
        assert str(err.value) == f"{what} exceeds the atom budget 11"


def test_from_samples_constant_and_fejer():
    n = 12
    flat = ms.from_samples(tp.constant(1.0), n)
    assert np.allclose(flat.weights, np.full(n, 1.0 / n), atol=1e-12)
    assert flat.mass() == pytest.approx(1.0, abs=1e-12)
    # F_n vanishes at every non-zero n-th root: the sampled measure is dirac
    point = ms.from_samples(tp.fejer(n), n)
    assert np.allclose(point.weights, dirac(n, 0).weights, atol=1e-9)


def test_from_samples_respects_sampling_identity():
    rng = np.random.default_rng(23)
    for _ in range(10):
        deg = int(rng.integers(0, 6))
        half = [abs(rng.normal()) + 3.0] + [complex(rng.normal(), rng.normal()) * 0.2 for _ in range(deg)]
        poly = tp.TrigPoly.from_half(range(deg + 1), half)
        order = deg + 1 + int(rng.integers(1, 5))
        measure = ms.from_samples(poly, order)
        assert measure.mass() == pytest.approx(tp.sample_mean(poly, order).real, abs=1e-9)


def test_from_samples_negative_rejection():
    # cos has genuinely negative samples
    bad = tp.TrigPoly.from_half([1], [0.5])
    with pytest.raises(ValueError, match="not non-negative"):
        ms.from_samples(bad, 8)


@pytest.mark.parametrize("order", [1, 2, 7, 12, 64])
def test_from_samples_reverses_the_samples_in_place(order):
    # positive: 3 > 2 * (|0.4 + 0.2j| + 0.1 + 0.3)
    poly = tp.TrigPoly.from_half(range(4), [3.0, 0.4 + 0.2j, -0.1j, 0.3])
    s = tp.sample_values(poly, order)
    reference = np.concatenate((s[:1], s[:0:-1])) / order
    assert ms.from_samples(poly, order).weights.tobytes() == reference.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights_rejected(bad):
    # nan passes every weight comparison, so only an explicit test rejects it
    with pytest.raises(ValueError, match="weight 1 is not finite"):
        ms.AtomicMeasure(3, np.array([0.5, bad, 0.5]))
    with pytest.raises(ValueError, match="weight 0 is not finite: nan"):
        measure_from_json('{"order": 3, "weights": [NaN, 0.5, 0.5]}')


def test_json_round_trip_is_exact():
    rng = np.random.default_rng(29)
    m = ms.AtomicMeasure(7, rng.random(7))
    back = measure_from_json(m.to_json())
    assert back.order == 7
    assert np.array_equal(back.weights, m.weights)


def minimum_fold_fourier(m, k):
    """fourier as it read with the folded index np.minimum(r, N - r) as a copy:
    the reference for the in-place fold."""
    k = np.asarray(k)
    r = np.atleast_1d(k) % m.order
    values = m.spectrum[np.minimum(r, m.order - r)]
    np.conjugate(values, out=values, where=2 * r > m.order)
    return complex(values[0]) if k.ndim == 0 else values


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 64])
def test_fourier_fold_matches_the_minimum_reference(n):
    m = ms.AtomicMeasure(n, np.random.default_rng(n).random(n))
    k = np.arange(-2 * n, 2 * n + 1)
    before = k.copy()
    values = m.fourier(k)
    assert np.array_equal(k, before)  # the caller's k is not written
    assert values.tobytes() == minimum_fold_fourier(m, k).tobytes()
    frozen = k.copy()
    frozen.setflags(write=False)  # e.g. a TrigPoly's freqs
    assert m.fourier(frozen).tobytes() == values.tobytes()
    for x in k.tolist():
        for scalar in (x, np.int64(x), np.array(x)):
            got = m.fourier(scalar)
            assert type(got) is complex
            assert got == minimum_fold_fourier(m, scalar)
            assert np.array(got).tobytes() == np.array(minimum_fold_fourier(m, scalar)).tobytes()


@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 64])
def test_fourier_over_a_range_matches_the_gather(n):
    """A range inside the half is a read-only view of it, and one from 0 past
    the half is tiled from one period; both equal the gather bit for bit."""
    m = ms.AtomicMeasure(n, np.random.default_rng(n).random(n))
    half = n // 2 + 1
    views = [(0, 0), (0, 1), (min(1, half - 1), half - 1), (n // 3, half), (0, half)]  # inside, to the edge
    tiled = [(0, half + 1), (0, n), (0, n + 1), (0, 3 * n + 2)]
    gathered = [(2, 1), (1, 2 * n)]
    for a, b in views + tiled + gathered:
        got = m.fourier(range(a, b))
        assert got.tobytes() == m.fourier(np.arange(a, b)).tobytes()
        assert got.flags.writeable is ((a, b) not in views)
        assert np.shares_memory(got, m.spectrum) is ((a, b) in views and a < b)
    with pytest.raises(ValueError, match="read-only"):
        m.fourier(range(half))[0] = 0.0
