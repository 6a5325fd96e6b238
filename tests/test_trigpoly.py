import math
from fractions import Fraction

import numpy as np
import pytest

from vdcset import trigpoly as tp


def random_real_poly(rng, degree, scale=1.0):
    coeffs = {0: complex(rng.normal() * scale)}
    for m in range(1, degree + 1):
        c = complex(rng.normal(), rng.normal()) * scale
        coeffs[m] = c
        coeffs[-m] = c.conjugate()
    return tp.TrigPoly(coeffs, real=True)


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
    f = tp.TrigPoly({0: 1.0, 2: 0.5 + 0.25j})
    assert tp.multiply(tp.constant(1.0), f).coeffs == f.coeffs
    e3 = tp.multiply(tp.character(1), tp.character(2))
    assert e3.coeffs == {3: 1.0 + 0j}


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
        for t in rng.random(4):
            lhs = tp.evaluate(prod, t)
            rhs = tp.evaluate(f, t) * tp.evaluate(g, t)
            assert abs(lhs - rhs) < 1e-9


def test_dilate():
    f = tp.TrigPoly({1: 2.0, -3: 1.0j})
    assert tp.dilate(f, 1).coeffs == f.coeffs
    assert tp.dilate(tp.character(1), 5).coeffs == {5: 1.0 + 0j}
    assert tp.dilate(tp.fejer(2), 3).coeff(3) == pytest.approx(0.5)
    assert tp.dilate(tp.fejer(2), 3).coeff(2) == 0.0
    with pytest.raises(ValueError):
        tp.dilate(f, 0)


def test_real_flag_keeps_imaginary_part_tiny():
    rng = np.random.default_rng(3)
    f = random_real_poly(rng, 9)
    vals = tp.sample_values(f, 257)
    assert np.abs(vals.imag).max() < 1e-12


def test_sample_values_match_single_point_eval():
    rng = np.random.default_rng(11)
    f = tp.TrigPoly({int(m): complex(rng.normal(), rng.normal()) for m in rng.integers(-20, 21, 7)})
    grid = 53
    # frequencies with |m| >= grid alias onto m mod grid, colliding with 0 and with each other
    f = tp.add(f, tp.TrigPoly({53: 0.5, -53: -0.25j, 71: 1.5, -120: 2.0 - 1.0j, 159: 0.75, 92: -1.0}))
    vals = tp.sample_values(f, grid)
    for g in range(grid):
        assert vals[g] == pytest.approx(tp.evaluate(f, g / grid), abs=1e-10)


def complex_sample_reference(f, grid):
    """The complex sampling path: fold with np.add.at, one ifft of the whole fold."""
    folded = np.zeros(grid, dtype=complex)
    np.add.at(folded, f.freqs % grid, f.values)
    return np.fft.ifft(folded) * grid


@pytest.mark.parametrize("grid", [1, 2, 3, 8, 33, 64, 257, 1024])
def test_real_sampling_is_the_real_part_of_the_complex_path(grid):
    rng = np.random.default_rng(grid)
    polys = [random_real_poly(rng, degree) for degree in (0, 5, 40, 700)]  # 40, 700 alias
    far = rng.integers(1, 10**9, size=12)  # sparse frequencies far beyond every grid
    c = rng.normal(size=12) + 1j * rng.normal(size=12)
    polys.append(tp.TrigPoly.from_arrays(np.concatenate((far, -far)),
                                         np.concatenate((c, np.conj(c))), real=True))
    # not conjugate-symmetric although flagged real: the samples are still Re f
    polys.append(tp.add(polys[1], tp.TrigPoly({3: 0.25j, -7: 1.0 - 0.5j}, real=True)))
    for f in polys:
        vals = tp.sample_values(f, grid)
        reference = complex_sample_reference(f, grid)
        bound = 1e-12 * np.abs(f.values).sum()
        assert vals.dtype == float and vals.shape == (grid,)
        assert np.abs(vals - reference.real).max() <= bound
        unflagged = tp.TrigPoly.from_arrays(f.freqs, f.values, real=False)
        assert np.abs(tp.sample_values(unflagged, grid) - reference).max() <= bound


def test_antihermitian_norm():
    rng = np.random.default_rng(8)
    assert tp.antihermitian_norm(random_real_poly(rng, 9)) == 0.0
    # 2i*cos: c_1 = c_-1 = i, each with anti-Hermitian part i
    assert tp.antihermitian_norm(tp.TrigPoly({1: 1j, -1: 1j}, real=True)) == 2.0
    # one-sided support: c_1 and its missing mirror each carry half of |c_1|
    assert tp.antihermitian_norm(tp.TrigPoly({0: 2.0, 1: 0.5})) == 0.5
    assert tp.antihermitian_norm(tp.TrigPoly({0: 1j})) == 1.0


def test_normal_form_arrays_are_kept_without_copy():
    freqs, values = np.array([-3, 0, 5], dtype=np.int64), np.array([1.0, 2.0j, -1.0])
    f = tp.TrigPoly.from_arrays(freqs, values)
    assert f.freqs is freqs and f.values is values
    assert not freqs.flags.writeable and not values.flags.writeable
    # a dropped zero makes copies, leaving the caller's arrays writable
    freqs, values = np.array([-3, 0, 5], dtype=np.int64), np.array([1.0, 0.0, -1.0 + 0j])
    g = tp.TrigPoly.from_arrays(freqs, values)
    assert g.freqs.tolist() == [-3, 5] and freqs.flags.writeable


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
        f = tp.multiply(g, tp.conjugate_reflect(g))
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
    assert tp.sample_mean(tp.character(2), 5) == pytest.approx(0.0, abs=1e-9)
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


def test_json_round_trip():
    poly = tp.TrigPoly({-2: 1.5 + 0.5j, 0: 1.0, 2: 1.5 - 0.5j}, real=True)
    text = poly.to_json()
    back = tp.TrigPoly.from_json(text)
    assert back.real is True
    assert back.coeffs == poly.coeffs
    # sorted ascending by frequency
    assert text.index("[-2,") < text.index("[0,") < text.index("[2,")


def test_storage_is_two_sorted_read_only_arrays():
    f = tp.TrigPoly({5: 1.0, -2: 2.0j, 0: 0.0, 3: -1.0}, real=False)
    assert f.freqs.dtype == np.int64 and f.values.dtype == complex
    assert f.freqs.tolist() == [-2, 3, 5]
    assert f.values.tolist() == [2.0j, -1.0, 1.0]
    with pytest.raises(ValueError):
        f.values[0] = 7.0
    with pytest.raises(ValueError):
        f.freqs[0] = 7
    with pytest.raises(AttributeError):
        f.real = True
    freqs, values = np.array([4, 1, 4]), np.array([1.0, 2.0, 3.0])
    g = tp.TrigPoly.from_arrays(freqs, values, real=True)
    freqs[0], values[1] = 9, 5.0  # the polynomial owns copies
    assert g.coeffs == {1: 2.0 + 0j, 4: 4.0 + 0j}
    assert g.real is True


# Reference implementations: the {frequency: coefficient} dict arithmetic
# that the array storage replaced.


def dict_add(f, g):
    out = dict(f.coeffs)
    for m, c in g.coeffs.items():
        out[m] = out.get(m, 0j) + c
    return {m: c for m, c in out.items() if c != 0}


def dict_multiply(f, g):
    out = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            k = m1 + m2
            out[k] = out.get(k, 0j) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def random_sparse_poly(rng, size, spread, integer):
    """Random frequencies in [-spread, spread]; small integer coefficients
    keep every sum and product exact, so results match bit for bit."""
    freqs = rng.integers(-spread, spread + 1, size).tolist()
    if integer:
        values = rng.integers(-2, 3, size) + 1j * rng.integers(-2, 3, size)
    else:
        values = rng.normal(size=size) + 1j * rng.normal(size=size)
    return tp.TrigPoly(dict(zip(freqs, values.tolist())))


def test_add_and_multiply_match_dict_oracle_exactly():
    rng = np.random.default_rng(31)
    cancelled = 0
    for _ in range(200):
        f = random_sparse_poly(rng, int(rng.integers(0, 9)), 4, integer=True)
        g = random_sparse_poly(rng, int(rng.integers(0, 9)), 4, integer=True)
        for got, want in ((tp.add(f, g), dict_add(f, g)), (tp.multiply(f, g), dict_multiply(f, g))):
            assert got.coeffs == want
            assert (np.diff(got.freqs) > 0).all() and (got.values != 0).all()
        cancelled += len(set(f.coeffs) | set(g.coeffs)) - len(dict_add(f, g))
    assert cancelled > 0  # some sums cancelled to exactly 0 and were dropped


def test_exact_cancellation_drops_the_term():
    f = tp.TrigPoly({0: 1.0, 1: 1.0})
    g = tp.TrigPoly({0: 1.0, 1: -1.0})
    assert tp.multiply(f, g).coeffs == {0: 1.0 + 0j, 2: -1.0 + 0j}
    assert tp.add(f, tp.scale(f, -1.0)).coeffs == {}
    assert tp.multiply(tp.zero(), f).coeffs == {}


def test_add_and_multiply_match_dict_oracle_on_random_floats():
    rng = np.random.default_rng(37)
    for _ in range(100):
        f = random_sparse_poly(rng, int(rng.integers(1, 12)), 6, integer=False)
        g = random_sparse_poly(rng, int(rng.integers(1, 12)), 6, integer=False)
        for got, want in ((tp.add(f, g), dict_add(f, g)), (tp.multiply(f, g), dict_multiply(f, g))):
            assert got.coeffs.keys() == want.keys()
            for m, c in want.items():
                assert abs(got.coeff(m) - c) <= 1e-12


def test_conjugate_reflect_ordering():
    f = tp.TrigPoly({3: 1.0 + 2.0j, -5: 0.5j, 0: 2.0, 1: -1.0 - 1.0j})
    h = tp.conjugate_reflect(f)
    assert h.freqs.tolist() == [-3, -1, 0, 5]
    assert h.coeffs == {-m: c.conjugate() for m, c in f.coeffs.items()}
    assert tp.conjugate_reflect(h).coeffs == f.coeffs


def test_convolve_partial_overlap_and_absent_coefficients():
    f = tp.TrigPoly({m: complex(m, 1) for m in range(-2, 4)})
    g = tp.TrigPoly({m: complex(2, -m) for m in range(1, 7)})
    h = tp.convolve(f, g)
    assert h.coeffs == {m: f.coeffs[m] * g.coeffs[m] for m in (1, 2, 3)}
    assert tp.convolve(f, tp.character(9)).coeffs == {}
    assert h.coeff(0) == 0j and h.coeff(7) == 0j and h.coeff(-100) == 0j
    assert tp.zero().coeff(0) == 0j
    probe = np.array([-3, 0, 1, 2, 3, 4, 50])
    assert h.coeff(probe).tolist() == [h.coeffs.get(int(m), 0j) for m in probe]
    assert tp.zero().coeff(probe).tolist() == [0j] * len(probe)


def test_frequencies_beyond_int32():
    big = 2**31 + 5
    assert tp.multiply(tp.character(big), tp.character(big + 2)).coeffs == {2 * big + 2: 1.0 + 0j}
    f = tp.dilate(tp.fejer(3), 2**33 + 1)
    assert f.degree == 2 * (2**33 + 1)
    assert f.coeff(2**33 + 1) == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError, match="int64"):
        tp.dilate(f, 2**30)  # degree 2^64 + 2^31 would wrap
    with pytest.raises(ValueError, match="int64"):
        tp.multiply(tp.character(2**62), tp.character(2**62))
    g = tp.add(f, tp.TrigPoly({-(2**40): 0.5j, 2**35: 1.0}))
    vals = tp.sample_values(g, 31)
    for k in (0, 7, 30):
        # exact phases: reduce m*k mod 31 in integers before leaving them
        exact = sum(c * np.exp(2j * np.pi * (m * k % 31) / 31) for m, c in g.coeffs.items())
        assert vals[k] == pytest.approx(exact, abs=1e-12)
    for t in (0.1, 0.37, 1 / 3, 0.999, -2.75, 1e-7):
        # m*t mod 1 in exact rationals; the float product 2*pi*m*t is 2e-5 off
        exact = sum(c * np.exp(2j * np.pi * float(m * Fraction(t) % 1)) for m, c in g.coeffs.items())
        assert abs(tp.evaluate(g, t) - exact) <= tp.EVAL_TOL


def test_json_matches_dict_storage_byte_for_byte():
    # to_json and the to_json(from_json(...)) round trip as written by the
    # dict-backed TrigPoly (json.loads reads "-0" as the integer 0, so the
    # round trip drops the sign of zero parts)
    f = tp.TrigPoly({2**33 + 1: 0.1 - 2.5j, -3: 1 / 3, 0: complex(-0.0, 1.0),
                     7: complex(1e-300, -0.0), -(2**40): 2.0, 5: 0.0})
    cases = [
        (f,
         '{"real": false, "coeffs": [[-1099511627776, 2, 0], [-3, 0.33333333333333331, 0], '
         '[0, -0, 1], [7, 1e-300, -0], [8589934593, 0.10000000000000001, -2.5]]}',
         '{"real": false, "coeffs": [[-1099511627776, 2, 0], [-3, 0.33333333333333331, 0], '
         '[0, 0, 1], [7, 1e-300, 0], [8589934593, 0.10000000000000001, -2.5]]}'),
        (tp.conjugate_reflect(f),
         '{"real": false, "coeffs": [[-8589934593, 0.10000000000000001, 2.5], '
         '[-7, 1e-300, 0], [0, -0, -1], [3, 0.33333333333333331, -0], [1099511627776, 2, -0]]}',
         '{"real": false, "coeffs": [[-8589934593, 0.10000000000000001, 2.5], '
         '[-7, 1e-300, 0], [0, 0, -1], [3, 0.33333333333333331, 0], [1099511627776, 2, 0]]}'),
    ]
    dilated = ('{"real": true, "coeffs": [[-4294967302, 0.33333333333333337, 0], '
               '[-2147483651, 0.66666666666666674, 0], [0, 1, 0], '
               '[2147483651, 0.66666666666666674, 0], [4294967302, 0.33333333333333337, 0]]}')
    cases.append((tp.dilate(tp.fejer(3), 2**31 + 3), dilated, dilated))
    for poly, text, round_trip in cases:
        assert poly.to_json() == text
        assert tp.TrigPoly.from_json(text).to_json() == round_trip


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


def test_kernel_checks_at_the_tolerance():
    # each residual exactly at its tolerance (minus it for the floors): strict
    # identities fail, the Fejer upper bound and the floors pass
    res = {
        "fejer_product_identity": 1e-9, "fejer_lower_bound": -1e-12, "fejer_upper_bound": 1e-12,
        "multiply_pointwise": 1e-9, "domination_kernel_coeffs": 1e-12,
        "domination_fixpoint": 1e-12, "domination_lower_bound": -1e-9,
        "convex_profile_positivity": -1e-9, "sampling_identity": 1e-9,
    }
    checks = tp.kernel_checks(res)
    assert [c.name for c in checks] == list(res)
    assert [abs(c.value) == c.tolerance for c in checks] == [True] * len(res)
    assert {c.name for c in checks if c.passed} == {
        "fejer_lower_bound", "fejer_upper_bound", "domination_lower_bound",
        "convex_profile_positivity",
    }


def test_kernel_residuals_need_an_order():
    with pytest.raises(ValueError, match="nmax >= 1"):
        tp.kernel_residuals(1024, 0, np.random.default_rng(0))
