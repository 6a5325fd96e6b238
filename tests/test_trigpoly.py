import math
import operator
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import numpy as np
import pytest

from vdcset import measures as ms
from vdcset import tower
from vdcset import trigpoly as tp


def random_real_poly(rng, degree, scale=1.0):
    half = [complex(rng.normal() * scale)]
    half += [complex(rng.normal(), rng.normal()) * scale for _ in range(degree)]
    return tp.TrigPoly.from_half(range(degree + 1), half)


def test_dirichlet_values():
    assert tp.evaluate(tp.dirichlet(1), 0.0) == pytest.approx(3.0)
    assert tp.dirichlet(3).coeff(2) == 1.0
    assert tp.dirichlet(3).coeff(4) == 0.0
    with pytest.raises(ValueError):
        tp.dirichlet(0)


def test_fejer_values():
    one = tp.fejer(1)
    assert one.coeffs == {0: 1.0 + 0j}
    assert tp.evaluate(tp.fejer(4), 0.0) == pytest.approx(4.0)
    assert tp.fejer(2).coeff(1) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tp.fejer(-2)


def test_eval_direct_sums():
    assert tp.evaluate(tp.fejer(3), 0.0) == pytest.approx(3.0)
    # 1 - 1 + 1 - 1 + 1 summed directly
    assert tp.evaluate(tp.dirichlet(2), 0.5) == pytest.approx(1.0)
    assert tp.evaluate(tp.zero(), 0.37) == 0.0


def test_multiply_identity_and_characters():
    f = tp.TrigPoly.from_half([0, 2], [1.0, 0.5 + 0.25j])
    assert tp.multiply(tp.constant(1.0), f).coeffs == f.coeffs
    # (e_1 + e_-1) * (e_2 + e_-2): the real cosines' four characters
    cosines = tp.multiply(tp.TrigPoly.from_half([1], [1.0]), tp.TrigPoly.from_half([2], [1.0]))
    assert cosines.coeffs == {-3: 1.0 + 0j, -1: 1.0 + 0j, 1: 1.0 + 0j, 3: 1.0 + 0j}
    # a constant is real
    assert tp.constant(2.0).coeffs == {0: 2.0 + 0j} and tp.constant(0.0).coeffs == {}
    with pytest.raises(TypeError):
        tp.constant(1j)


def test_multiply_fejer_factorisation():
    lhs = tp.multiply(tp.fejer(2), tp.dilate(tp.fejer(3), 2))
    rhs = tp.fejer(6)
    for m in range(-6, 7):
        assert lhs.coeff(m) == pytest.approx(rhs.coeff(m), abs=1e-12)


def test_multiply_matches_pointwise_product():
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = random_real_poly(rng, int(rng.integers(0, 7)))
        g = random_real_poly(rng, int(rng.integers(0, 7)))
        prod = tp.multiply(f, g)
        points = rng.random(4)
        for poly in (f, g, prod):  # at an array of points: the scalar calls, bit for bit
            scalars = np.array([tp.evaluate(poly, t) for t in points])
            assert tp.evaluate(poly, points).tobytes() == scalars.tobytes()
        for t in points:
            lhs = tp.evaluate(prod, t)
            rhs = tp.evaluate(f, t) * tp.evaluate(g, t)
            assert abs(lhs - rhs) < 1e-9


def test_dilate():
    f = tp.TrigPoly.from_half([1, 3], [2.0, -1.0j])
    assert f.coeffs == {-3: 1.0j, -1: 2.0 + 0j, 1: 2.0 + 0j, 3: -1.0j}
    assert tp.dilate(f, 1).coeffs == f.coeffs
    assert tp.dilate(f, 2).coeffs == {2 * m: c for m, c in f.coeffs.items()}
    assert tp.dilate(tp.TrigPoly.from_half([1], [1.0]), 5).coeffs == {-5: 1.0 + 0j, 5: 1.0 + 0j}
    assert tp.dilate(tp.fejer(2), 3).coeff(3) == pytest.approx(0.5)
    assert tp.dilate(tp.fejer(2), 3).coeff(2) == 0.0
    with pytest.raises(ValueError):
        tp.dilate(f, 0)


def test_real_flag_keeps_imaginary_part_tiny():
    rng = np.random.default_rng(3)
    f = random_real_poly(rng, 9)
    vals = tp.sample_values(f, 257)  # real-typed: the irfft of the folded half
    assert vals.dtype == float
    assert np.abs(vals.imag).max() < 1e-12


def test_sample_values_match_single_point_eval():
    rng = np.random.default_rng(11)
    half = {int(m): complex(rng.normal(), rng.normal()) for m in rng.integers(1, 21, 7)}
    f = tp.TrigPoly.from_half([0, *half], [rng.normal(), *half.values()])
    grid = 53
    # frequencies with |m| >= grid alias onto m mod grid, colliding with 0 and with each
    # other: 53 and 159 with 0, 71 with 18, -120 with 92 (at 39)
    aliased = tp.TrigPoly.from_half([53, 71, 120, 159, 92], [0.5 - 0.25j, 1.5, 2.0 + 1.0j, 0.75, -1.0])
    f = tp.add(f, aliased)
    vals = tp.sample_values(f, grid)
    for g in range(grid):
        assert vals[g] == pytest.approx(tp.evaluate(f, g / grid), abs=1e-10)


def complex_sample_reference(f, grid):
    """The complex sampling path: fold with np.add.at, one ifft of the whole fold."""
    folded = np.zeros(grid, dtype=complex)
    freqs, values = full_arrays(f)
    np.add.at(folded, freqs % grid, values)
    return np.fft.ifft(folded) * grid


@pytest.mark.parametrize("grid", [1, 2, 3, 8, 33, 64, 257, 1024])
def test_real_sampling_is_the_real_part_of_the_complex_path(grid):
    rng = np.random.default_rng(grid)
    polys = [random_real_poly(rng, degree) for degree in (0, 5, 40, 700)]  # 40, 700 alias
    far = rng.integers(1, 10**9, size=12)  # sparse frequencies far beyond every grid
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    polys.append(tp.TrigPoly.from_half(far, c))
    polys.append(tp.add(polys[1], tp.TrigPoly.from_half([3, 7], [0.25j, 1.0 + 0.5j])))
    for f in polys:
        vals = tp.sample_values(f, grid)
        reference = complex_sample_reference(f, grid)
        bound = 1e-12 * np.abs(full_arrays(f)[1]).sum()
        assert vals.dtype == float and vals.shape == (grid,)
        assert np.abs(vals - reference.real).max() <= bound
        assert np.abs(reference.imag).max() <= bound


def test_normal_form_arrays_are_kept_without_copy():
    freqs, values = np.array([0, 3, 5], dtype=np.int64), np.array([1.0, 2.0j, -1.0])
    f = tp.TrigPoly.from_half(freqs, values)
    assert f.freqs is freqs and f.values is values
    assert not freqs.flags.writeable and not values.flags.writeable
    # a dropped zero makes copies, leaving the caller's arrays writable
    freqs, values = np.array([0, 3, 5], dtype=np.int64), np.array([1.0, 0.0, -1.0 + 0j])
    g = tp.TrigPoly.from_half(freqs, values)
    assert g.freqs.tolist() == [0, 5] and freqs.flags.writeable


def test_convex_profile_validation_names_index():
    with pytest.raises(tp.ProfileError, match="index 0"):
        tp.ConvexProfile((1.0, 2.0, 0.0))  # increasing step flagged at 0
    with pytest.raises(tp.ProfileError, match="not convex at index 1"):
        tp.ConvexProfile((1.0, 0.9, 0.0))  # concave corner
    with pytest.raises(tp.ProfileError, match="vanish"):
        tp.ConvexProfile((2.0, 1.0))
    with pytest.raises(tp.ProfileError, match="negative"):
        tp.ConvexProfile((1.0, -0.5, 0.0))
    # a long profile, (L - i)^2 / L^2, bent concave at two corners: the first is named
    cutoff = 100_000
    values = (cutoff - np.arange(cutoff + 1.0)) ** 2 / cutoff**2
    values[[61_803, 90_001]] += 1e-9  # second differences are 2e-10, the tolerance 1e-12
    with pytest.raises(tp.ProfileError, match="not convex at index 61803:"):
        tp.ConvexProfile(values)
    values[[61_803, 90_001]] -= 1e-9
    assert tp.ConvexProfile(values).cutoff == cutoff


@pytest.mark.parametrize("values, index", [((math.nan, 0.0), 0), ((math.inf, 1.0, 0.0), 0),
                                           ((1.0, 0.5, -math.inf), 2)])
def test_convex_profile_rejects_non_finite_values(values, index):
    # every comparison is False on nan, so only an explicit test rejects it
    with pytest.raises(tp.ProfileError, match=f"not finite at index {index}"):
        tp.ConvexProfile(values)



def reference_profile_error(values):
    """The profile checks as one loop per invariant, in ConvexProfile's order:
    the message of the first failure, or None."""
    vals = [float(v) for v in values]
    tol = tp.COEFF_TOL
    for i, v in enumerate(vals):
        if not math.isfinite(v):
            return f"profile not finite at index {i}: f({i}) = {v}"
    for i, v in enumerate(vals):
        if v < -tol:
            return f"profile negative at index {i}: f({i}) = {v}"
    if abs(vals[-1]) > tol:
        return f"profile must vanish at its last index {len(vals) - 1}: got {vals[-1]}"
    for i in range(len(vals) - 1):
        if vals[i + 1] > vals[i] + tol:
            return (f"profile not non-increasing at index {i}: "
                    f"f({i}) = {vals[i]} < f({i + 1}) = {vals[i + 1]}")
    for i in range(1, len(vals) - 1):
        if 2.0 * vals[i] > vals[i - 1] + vals[i + 1] + tol:
            return f"profile not convex at index {i}: 2*f({i}) > f({i - 1}) + f({i + 1})"
    return None


def test_convex_profile_matches_loop_reference():
    # convex profiles, then one entry moved by a size near and far from the tolerance
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(600):
        cutoff = int(rng.integers(1, 30))
        drops = np.sort(rng.random(cutoff))
        values = np.concatenate([np.cumsum(drops)[::-1], [0.0]])
        kind = int(rng.integers(0, 4))
        i = int(rng.integers(0, cutoff + 1))
        if kind == 1:
            values[i] += rng.choice([-1.0, 1.0]) * rng.choice([1e-13, 3e-12, 1e-6, 0.05, 1.0])
        elif kind == 2:
            values[i] = rng.choice([math.nan, math.inf, -math.inf])
        elif kind == 3:
            values[i:] = values[i:] - rng.choice([1e-13, 1e-3])
        expected = reference_profile_error(values)
        try:
            tp.ConvexProfile(values)
            got = None
        except tp.ProfileError as exc:
            got = str(exc)
        assert got == expected
        outcomes.add(expected.split(" at ")[0] if expected else None)
    assert len(outcomes) == 6  # accepted, and each of the five failures

def test_convex_poly_zero_profile():
    assert tp.convex_poly(tp.ConvexProfile((0.0,))).coeffs == {}


def test_convex_poly_fejer_shape():
    n, c = 5, 2.5
    profile = tp.ConvexProfile(tuple(c * (1 - k / n) for k in range(n + 1)))
    poly = tp.convex_poly(profile)
    scaled = tp.scale(tp.fejer(n), c)
    for m in range(-n, n + 1):
        assert poly.coeff(m) == pytest.approx(scaled.coeff(m), abs=1e-12)
    assert tp.grid_min(poly, 512) >= -1e-9


def test_convex_poly_example_profile():
    poly = tp.convex_poly(tp.ConvexProfile((1.0, 0.25, 0.0)))
    # 1 + 0.5*cos(2 pi t) has minimum 0.5: grid oracle
    assert tp.grid_min(poly, 512) == pytest.approx(0.5, abs=1e-9)
    assert tp.grid_min(poly, 512) >= -1e-9


def test_convex_poly_random_profiles_positive():
    rng = np.random.default_rng(19)
    for _ in range(100):
        cutoff = int(rng.integers(1, 17))
        drops = np.sort(rng.random(cutoff))[::-1]
        values = np.concatenate([np.cumsum(drops[::-1])[::-1], [0.0]])
        poly = tp.convex_poly(tp.ConvexProfile(tuple(values)))
        assert tp.grid_min(poly, 1024) >= -1e-9


def test_domination_kernel_coefficients():
    assert tp.domination_kernel(1, 1).coeff(0) == pytest.approx(1.0, abs=1e-12)
    assert tp.domination_kernel(2, 3).coeff(-6) == pytest.approx(1.0, abs=1e-12)
    assert tp.domination_kernel(2, 3).coeff(12) == 0.0
    for big_r in (1, 2, 3, 4):
        for big_l in (1, 2, 3, 4):
            kernel = tp.domination_kernel(big_r, big_l)
            rl = big_r * big_l
            for m in range(-rl, rl + 1):
                assert kernel.coeff(m) == pytest.approx(1.0, abs=1e-12)


def test_domination_lemma_random_nonnegative():
    rng = np.random.default_rng(23)
    for _ in range(40):
        big_r = int(rng.integers(1, 5))
        big_l = int(rng.integers(1, 5))
        rl = big_r * big_l
        g = random_real_poly(rng, rl // 2)
        f = tp.multiply(g, g)  # |g|^2, as g is real
        assert f.degree <= rl
        # f convolved with the unit-coefficient kernel reproduces f
        fixed = tp.convolve(f, tp.domination_kernel(big_r, big_l))
        for m in f.coeffs:
            assert abs(fixed.coeff(m) - f.coeff(m)) < 1e-12
        dominated = tp.add(
            tp.scale(tp.convolve(f, tp.fejer(big_l)), 4.0 * big_r), tp.scale(f, -1.0)
        )
        assert tp.grid_min(dominated, 1024) >= -1e-9


def test_sample_mean():
    assert tp.sample_mean(tp.fejer(3), 8) == pytest.approx(1.0, abs=1e-9)
    assert tp.sample_mean(tp.TrigPoly.from_half([2], [1.0]), 5) == pytest.approx(0.0, abs=1e-9)
    rng = np.random.default_rng(29)
    poly = random_real_poly(rng, 6)
    # direct summation oracle at order 7
    direct = sum(tp.evaluate(poly, j / 7) for j in range(7)) / 7
    assert tp.sample_mean(poly, 7) == pytest.approx(direct, abs=1e-9)
    assert tp.sample_mean(poly, 7) == pytest.approx(poly.coeff(0), abs=1e-9)
    with pytest.raises(ValueError):
        tp.sample_mean(poly, 6)


def test_fejer_identity_and_bounds_grid():
    grid = 1000
    for n in range(1, 9):
        fn = tp.sample_values(tp.fejer(n), grid).real
        assert fn.min() >= -1e-12
        assert fn.max() <= n + 1e-12
        for m in range(1, 9):
            fm = tp.sample_values(tp.fejer(m), grid).real
            fnm = tp.sample_values(tp.fejer(n * m), grid).real
            lhs = fn * fm[(n * np.arange(grid)) % grid]
            assert np.abs(lhs - fnm).max() < 1e-9


def test_storage_is_two_sorted_read_only_arrays():
    f = tp.TrigPoly.from_half([5, 2, 0, 3], [1.0, 2.0j, 0.0, -1.0])
    assert f.freqs.dtype == np.int64 and f.values.dtype == complex
    assert f.freqs.tolist() == [2, 3, 5]
    assert f.values.tolist() == [2.0j, -1.0, 1.0]
    with pytest.raises(ValueError):
        f.values[0] = 7.0
    with pytest.raises(ValueError):
        f.freqs[0] = 7
    with pytest.raises(AttributeError):
        f.freqs = np.zeros(0, dtype=np.int64)
    freqs, values = np.array([4, 1, 4]), np.array([1.0, 2.0j, 3.0])
    g = tp.TrigPoly.from_half(freqs, values)  # the repeated 4 summed in input order
    freqs[0], values[1] = 9, 5.0  # the polynomial owns copies
    assert g.coeffs == {-4: 4.0 + 0j, -1: -2.0j, 1: 2.0j, 4: 4.0 + 0j}
    # the half m >= 0, c_0 real, is stored in the same read-only form
    assert g.freqs.tolist() == [1, 4] and g.values.tolist() == [2.0j, 4.0]
    h = tp.add(g, tp.constant(-0.5))
    assert h.freqs.tolist() == [0, 1, 4] and h.values.tolist() == [-0.5, 2.0j, 4.0]
    with pytest.raises(ValueError):
        h.values[0] = 7.0


# Reference implementations: the {frequency: coefficient} dict arithmetic
# that the array storage replaced.


def dict_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, 0j) + c
    return {m: c for m, c in out.items() if c != 0}


def dict_multiply(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            k = m1 + m2
            out[k] = out.get(k, 0j) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def random_sparse_poly(rng, size, spread, integer):
    """Random frequencies in [0, spread] (c_0 real); small integer
    coefficients keep every sum and product exact, so results match bit for
    bit.  Returns the polynomial and its {frequency: coefficient} dict at
    both signs, built here."""
    freqs = rng.integers(0, spread + 1, size).tolist()
    if integer:
        values = rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size)
    else:
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
    half = dict(zip(freqs, values.tolist()))
    if 0 in half:
        half[0] = complex(half[0].real)
    both = {m: c for m, c in half.items() if c != 0}
    both.update({-m: c.conjugate() for m, c in both.items()})
    poly = tp.TrigPoly.from_half(list(half), list(half.values()))
    assert poly.coeffs == both
    return poly, both


def test_add_and_multiply_match_dict_oracle_exactly():
    rng = np.random.default_rng(31)
    cancelled = 0
    for _ in range(200):
        f, fd = random_sparse_poly(rng, int(rng.integers(0, 9)), 4, integer=True)
        g, gd = random_sparse_poly(rng, int(rng.integers(0, 9)), 4, integer=True)
        for got, want in ((tp.add(f, g), dict_add(fd, gd)), (tp.multiply(f, g), dict_multiply(fd, gd))):
            assert got.coeffs == want
            assert (np.diff(got.freqs) > 0).all() and (got.values != 0).all()
        cancelled += len(set(fd) | set(gd)) - len(dict_add(fd, gd))
    assert cancelled > 0  # some sums cancelled to exactly 0 and were dropped


def test_exact_cancellation_drops_the_term():
    f = tp.TrigPoly.from_half([0, 1], [1.0, 1.0])
    g = tp.TrigPoly.from_half([0, 1], [1.0, -1.0])
    # (1 + 2cos)(1 - 2cos): the terms at +-1 cancel exactly
    assert tp.multiply(f, g).coeffs == {-2: -1.0 + 0j, 0: -1.0 + 0j, 2: -1.0 + 0j}
    assert tp.add(f, tp.scale(f, -1.0)).coeffs == {}
    assert tp.multiply(tp.zero(), f).coeffs == {}


def test_add_and_multiply_match_dict_oracle_on_random_floats():
    rng = np.random.default_rng(37)
    for _ in range(100):
        f, fd = random_sparse_poly(rng, int(rng.integers(1, 12)), 6, integer=False)
        g, gd = random_sparse_poly(rng, int(rng.integers(1, 12)), 6, integer=False)
        for got, want in ((tp.add(f, g), dict_add(fd, gd)), (tp.multiply(f, g), dict_multiply(fd, gd))):
            assert got.coeffs.keys() == want.keys()
            for m, c in want.items():
                assert abs(got.coeff(m) - c) <= 1e-12


def test_convolve_partial_overlap_and_absent_coefficients():
    f = tp.TrigPoly.from_half(range(4), [2.0] + [complex(m, 1) for m in range(1, 4)])
    g = tp.TrigPoly.from_half(range(1, 7), [complex(2, -m) for m in range(1, 7)])
    h = tp.convolve(f, g)
    assert h.coeffs == {m: f.coeffs[m] * g.coeffs[m] for m in (-3, -2, -1, 1, 2, 3)}
    assert tp.convolve(f, tp.TrigPoly.from_half([9], [1.0])).coeffs == {}
    assert h.coeff(0) == 0j and h.coeff(7) == 0j and h.coeff(-100) == 0j
    assert tp.zero().coeff(0) == 0j
    probe = np.array([-3, 0, 1, 2, 3, 4, 50])
    assert h.coeff(probe).tolist() == [h.coeffs.get(int(m), 0j) for m in probe]
    assert tp.zero().coeff(probe).tolist() == [0j] * len(probe)


def test_frequencies_beyond_int32():
    big = 2**31 + 5
    cosines = tp.multiply(tp.TrigPoly.from_half([big], [1.0]), tp.TrigPoly.from_half([big + 2], [1.0]))
    assert cosines.coeffs == {-2 * big - 2: 1.0 + 0j, -2: 1.0 + 0j, 2: 1.0 + 0j, 2 * big + 2: 1.0 + 0j}
    f = tp.dilate(tp.fejer(3), 2**33 + 1)
    assert f.degree == 2 * (2**33 + 1)
    assert f.coeff(2**33 + 1) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="int64"):
        tp.dilate(f, 2**30)  # degree 2^64 + 2^31 would wrap
    with pytest.raises(ValueError, match="int64"):
        tp.multiply(tp.TrigPoly.from_half([2**62], [1.0]), tp.TrigPoly.from_half([2**62], [1.0]))
    g = tp.add(f, tp.TrigPoly.from_half([2**35, 2**40], [1.0, -0.5j]))
    vals = tp.sample_values(g, 31)
    for k in (0, 7, 30):
        # exact phases: reduce m*k mod 31 in integers before leaving them
        exact = sum(c * np.exp(2j * np.pi * (m * k % 31) / 31) for m, c in g.coeffs.items())
        assert vals[k] == pytest.approx(exact, abs=1e-12)
    for t in (0.1, 0.37, 1 / 3, 0.999, -2.75, 1e-7):
        # m*t mod 1 in exact rationals; the float product 2*pi*m*t is 2e-5 off
        exact = sum(c * np.exp(2j * np.pi * float(m * Fraction(t) % 1)) for m, c in g.coeffs.items())
        assert abs(tp.evaluate(g, t) - exact) <= tp.EVAL_TOL


def test_kernel_residuals_samples_each_polynomial_once(monkeypatch):
    calls = []
    real = tp.sample_values

    def counted(f, grid):
        calls.append(grid)
        return real(f, grid)

    monkeypatch.setattr(tp, "sample_values", counted)
    tp.kernel_residuals(1024, 8, np.random.default_rng(0))
    # 30 distinct Fejer orders n*m, then 20 trials each of the domination
    # minimum, the convex profile (its certified minimum reused) and the mean
    assert len(calls) == 30 + 20 + 20 + 20


def test_fejer_product_identity_equals_the_pairwise_loop():
    # the dilated index n*t mod grid, built once per n, gives the pairwise loop's value exactly
    grid, nmax = 1024, 8
    orders = range(1, nmax + 1)
    fej = {k: tp.sample_values(tp.fejer(k), grid) for k in {n * m for n in orders for m in orders}}
    pairwise = max(float(np.abs(fej[n] * fej[m][n * np.arange(grid) % grid] - fej[n * m]).max())
                   for n in orders for m in orders)
    assert tp.kernel_residuals(grid, nmax, np.random.default_rng(0))["fejer_product_identity"] == pairwise


def test_kernel_checks_at_the_tolerance():
    # each residual exactly at its tolerance (minus it for the floors) passes, and one ulp
    # past it (away from zero) fails
    res = {
        "fejer_product_identity": 1e-9, "fejer_lower_bound": -1e-12, "fejer_upper_bound": 1e-12,
        "multiply_pointwise": 1e-9, "domination_kernel_coeffs": 1e-12,
        "domination_fixpoint": 1e-12, "domination_lower_bound": -1e-9,
        "convex_profile_positivity": -1e-9, "sampling_identity": 1e-9,
    }
    checks = tp.kernel_checks(res)
    assert [c.name for c in checks] == list(res)
    assert [abs(c.value) == c.tolerance for c in checks] == [True] * len(res)
    assert all(c.passed for c in checks)
    for name, value in res.items():
        past = tp.kernel_checks({**res, name: np.nextafter(value, 2 * value)})
        assert [c.name for c in past if not c.passed] == [name]


def test_kernel_residuals_need_an_order():
    with pytest.raises(ValueError, match="nmax >= 1"):
        tp.kernel_residuals(1024, 0, np.random.default_rng(0))


def test_kernel_residuals_refuse_before_they_allocate(monkeypatch):
    # the grid must resolve the products F_n(t)*F_m(n*t), and the Fejer table must fit the atom budget
    with pytest.raises(ValueError, match=r"^kernel identities need grid > 2\*nmax\^2 = 128, got 128$"):
        tp.kernel_residuals(128, 8, np.random.default_rng(0))
    assert all(c.passed for c in tp.kernel_checks(tp.kernel_residuals(129, 8, np.random.default_rng(0))))
    from vdcset.measures import AtomBudgetError

    def refuse(*args):
        raise AssertionError("the Fejer table was sampled before the budget was checked")

    monkeypatch.delenv("VDC_ATOM_BUDGET", raising=False)
    monkeypatch.setattr(tp, "sample_values", refuse)
    with pytest.raises(AtomBudgetError, match="^Fejer table of at least 2 kernels on grid 400000000 "
                                              "exceeds the atom budget 67108864$"):
        tp.kernel_residuals(400_000_000, 2, np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: tp.sample_values(tp.fejer(2), 0), "grid must be >= 1", id="sample-grid"),
    pytest.param(lambda: tp.ConvexProfile([]), "at least f\\(0\\)", id="empty-profile"),
    pytest.param(lambda: tp.domination_kernel(0, 3), "R, L >= 1", id="domination-r"),
    pytest.param(lambda: tp.domination_kernel(3, 0), "R, L >= 1", id="domination-l"),
])
def test_refusals_name_their_bound(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Reference: the full-layout arithmetic that real polynomials used before they
# kept only their half m >= 0.  Each works on (freqs, values) at both signs.


def full_arrays(f):
    """f's coefficients at both signs, read through coeffs."""
    coeffs = f.coeffs
    return (np.fromiter(coeffs, dtype=np.int64, count=len(coeffs)),
            np.fromiter(coeffs.values(), dtype=complex, count=len(coeffs)))


def ref_reduce(freqs, values):
    freqs, values = np.asarray(freqs, dtype=np.int64), np.asarray(values, dtype=complex)
    if not (freqs[1:] > freqs[:-1]).all():
        order = np.argsort(freqs, kind="stable")
        freqs, values = freqs[order], values[order]
        first = np.concatenate(([True], freqs[1:] != freqs[:-1]))
        if not first.all():
            summed = np.zeros(np.count_nonzero(first), dtype=complex)
            np.add.at(summed, np.cumsum(first) - 1, values)
            freqs, values = freqs[first], summed
    keep = values != 0
    return freqs[keep], values[keep]


def ref_from_half(freqs, values):
    freqs, values = np.asarray(freqs, dtype=np.int64), np.asarray(values)
    skip = int(freqs.size > 0 and freqs[0] == 0)
    return ref_reduce(np.concatenate((-freqs[skip:][::-1], freqs)),
                      np.concatenate((values[skip:][::-1].conj(), values)))


def ref_add(f, g):
    return ref_reduce(np.concatenate([f[0], g[0]]), np.concatenate([f[1], g[1]]))


def ref_scale(f, a):
    return ref_reduce(f[0], complex(a) * f[1])


def ref_multiply(f, g):
    return ref_reduce(np.add.outer(f[0], g[0]).ravel(), np.multiply.outer(f[1], g[1]).ravel())


def ref_convolve(f, g):
    common, i, j = np.intersect1d(f[0], g[0], assume_unique=True, return_indices=True)
    return ref_reduce(common, f[1][i] * g[1][j])


def ref_dilate(f, a):
    return ref_reduce(a * f[0], f[1])


def ref_coeff(f, m):
    m = np.asarray(m, dtype=np.int64)
    out = np.zeros(m.shape, dtype=complex)
    if f[0].size:
        i = np.minimum(np.searchsorted(f[0], m), f[0].size - 1)
        hit = f[0][i] == m
        out[hit] = f[1][i[hit]]
    return out


def ref_evaluate(f, t):
    p, q = float(t).as_integer_ratio()
    phase = (f[0].astype(object) * p % q / q).astype(float)
    return complex((f[1] * np.exp(2j * np.pi * phase)).sum())


def ref_sample_values(f, grid):
    at = f[0] % grid
    upper = at > grid // 2
    at = np.minimum(at, grid - at)
    twice = np.empty(grid // 2 + 1, dtype=complex)
    twice.real = np.bincount(at, f[1].real, twice.size)
    twice.imag = np.bincount(at, np.where(upper, -f[1].imag, f[1].imag), twice.size)
    own = [0, grid // 2] if grid % 2 == 0 else [0]
    twice[own] = 2 * twice[own].real
    return np.fft.irfft(twice, grid) * (grid / 2)


def assert_same_bits(got, want):
    """Equal arrays, bit for bit up to the sign of a zero (cleared by + 0.0)."""
    assert got[0].tobytes() == want[0].tobytes()
    assert (got[1] + 0.0).tobytes() == (want[1] + 0.0).tobytes()


def seeded_halves(rng):
    """Half spectra (freqs >= 0, a real value at 0): the empty and the constant
    polynomial, dense ones and sparse ones with and without frequency 0."""
    halves = [(np.zeros(0, np.int64), np.zeros(0)), (np.array([0]), np.array([rng.normal()]))]
    for degree in (1, 3, 8, 20):
        z = rng.normal(size=2 * degree + 1)
        halves.append((np.arange(degree + 1), np.concatenate((z[:1], z[1::2] + 1j * z[2::2]))))
    for size, start in ((4, 0), (6, 1)):
        freqs = np.unique(rng.integers(start, 30, size))
        values = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
        values[:1] = values[:1].real if freqs[0] == 0 else values[:1]
        halves.append((freqs, values))
    return halves


def test_real_layout_matches_the_full_layout_reference():
    rng = np.random.default_rng(53)
    halves = seeded_halves(rng)
    polys = [tp.TrigPoly.from_half(*half) for half in halves]
    refs = [ref_from_half(*half) for half in halves]
    probe = np.arange(-45, 46)
    for f, ref in zip(polys, refs):
        assert (f.freqs >= 0).all()
        assert_same_bits(full_arrays(f), ref)  # coeffs
        assert f.degree == int(np.abs(ref[0]).max(initial=0))
        assert (f.coeff(probe) + 0.0).tobytes() == (ref_coeff(ref, probe) + 0.0).tobytes()
        l1 = np.abs(ref[1]).sum()
        for t in (0.0, 0.1, 1 / 3, 0.75):  # c_0 + 2*Re of the half: summed in another order
            assert abs(tp.evaluate(f, t) - ref_evaluate(ref, t)) <= tp.COEFF_TOL * l1
        for grid in (1, 2, 7, 16, 64):
            vals = tp.sample_values(f, grid)
            assert np.abs(vals - ref_sample_values(ref, grid)).max() <= tp.COEFF_TOL * l1
        for a in (2.5, -1.0, 0.0):
            assert_same_bits(full_arrays(tp.scale(f, a)), ref_scale(ref, a))
        for a in (1, 3):
            assert_same_bits(full_arrays(tp.dilate(f, a)), ref_dilate(ref, a))
    straddled = imaginary_noise = 0
    for (f, fref) in zip(polys, refs):
        for (g, gref) in zip(polys, refs):
            assert_same_bits(full_arrays(tp.add(f, g)), ref_add(fref, gref))
            assert_same_bits(full_arrays(tp.convolve(f, g)), ref_convolve(fref, gref))
            prod, want = tp.multiply(f, g), ref_multiply(fref, gref)
            # m >= 0 sums in the reference's order: bit for bit, but c_0 is exactly real
            start = np.searchsorted(want[0], 0)
            half = want[0][start:], want[1][start:].copy()
            if half[0].size and half[0][0] == 0:
                imaginary_noise += half[1][0].imag != 0.0
                half[1][0] = half[1][0].real
            assert_same_bits((prod.freqs, prod.values), half)
            assert prod.coeff(0).imag == 0.0
            # m < 0: the conjugates, summed in another order than the reference's
            bound = tp.COEFF_TOL * np.abs(fref[1]).sum() * np.abs(gref[1]).sum()
            assert np.abs(prod.coeff(want[0]) - want[1]).max(initial=0.0) <= bound
            k = np.searchsorted(f.freqs, g.degree, side="right")
            straddled += 0 < k < f.freqs.size  # some rows masked, some whole
    assert straddled > 10 and imaginary_noise > 0


def ref_coeffs(f):
    """The both-sign dict that coeffs built before it became a view of the half."""
    freqs, values = f.freqs.tolist(), f.values.tolist()
    out = dict(zip(map(operator.neg, reversed(freqs)), map(complex.conjugate, reversed(values))))
    out.update(zip(freqs, values))  # c_0 replaces its conjugate in place
    return out


def test_coeffs_view_reads_as_the_dict_it_replaced():
    rng = np.random.default_rng(59)
    n = 2 * (1 << 14) + 7  # past two of the view's chunks, with and without c_0
    values = rng.normal(size=n) + 1j * rng.normal(size=n)
    values[0] = values[0].real
    for half in seeded_halves(rng) + [(np.arange(n), values), (np.arange(1, n + 1), values)]:
        f = tp.TrigPoly.from_half(*half)
        view, ref = f.coeffs, ref_coeffs(f)
        assert isinstance(view, Mapping) and len(view) == len(ref)
        assert list(view.items()) == list(ref.items())  # same keys, values and order
        assert list(view) == list(view.keys()) == sorted(view) == list(ref)
        assert all(type(m) is int and type(c) is complex for m, c in view.items())
        assert all(type(m) is int for m in view) and all(type(c) is complex for c in view.values())
        assert np.array(list(view.values()), dtype=complex).tobytes() == \
            np.array(list(ref.values()), dtype=complex).tobytes()  # zeros keep their sign
        assert view == ref and ref == view and dict(view) == ref and view.keys() == ref.keys()
        probe = list(ref.items())[:: max(1, len(ref) // 100)]  # at most about 100 keys per spectrum
        assert all(view[m] == c and view.get(np.int64(m)) == c for m, c in probe)


def test_coeffs_view_lookups():
    f = tp.TrigPoly.from_half([0, 2, 5], [1.5, 1.0 - 2.0j, 3.0j])
    coeffs = f.coeffs
    assert coeffs[2] == coeffs[np.int64(2)] == 1.0 - 2.0j
    assert coeffs[-2] == coeffs[np.int32(-2)] == 1.0 + 2.0j and coeffs[-5] == -3.0j
    assert coeffs[0] == 1.5 and type(coeffs[np.int64(5)]) is complex
    assert 5 in coeffs and -5 in coeffs and 3 not in coeffs and coeffs.get(3, 0j) == 0j
    for absent in (1, -3, 6, 2**63, -(2**70), 2.0, np.float64(2.0), False, np.bool_(False), "2", None):
        with pytest.raises(KeyError):
            coeffs[absent]
        assert absent not in coeffs
    with pytest.raises(KeyError):
        tp.zero().coeffs[0]
    with pytest.raises(TypeError):
        coeffs[2] = 0j
    with pytest.raises(TypeError):
        del coeffs[2]


def test_walking_the_depth3_tower_product_holds_no_term_sized_list():
    stages = [tower.TowerStage((1, 2), 2, 0.3, 21, d) for d in (21, 925, 40701)]
    product = tower.build_tower(stages, [ms.uniform(3)] * 3)[-1]
    coeffs = product.coeffs
    assert len(coeffs) == 41**3
    # walking its 68921 items peaked at 1.63 MiB (numpy 2.4, Python 3.11); the
    # dict coeffs built before it became a view peaked at 8.5 MiB for the same walk
    tracemalloc.start()
    try:
        walked = sum(1 for _ in coeffs.items())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walked == 41**3 and peak < 2 * 2**20
