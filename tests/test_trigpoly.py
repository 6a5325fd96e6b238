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


def test_convex_profile_validation_names_index():
    with pytest.raises(tp.ProfileError, match="index 0"):
        tp.ConvexProfile((1.0, 2.0, 0.0))  # increasing step flagged at 0
    with pytest.raises(tp.ProfileError, match="not convex at index 1"):
        tp.ConvexProfile((1.0, 0.9, 0.0))  # concave corner
    with pytest.raises(tp.ProfileError, match="vanish"):
        tp.ConvexProfile((2.0, 1.0))
    with pytest.raises(tp.ProfileError, match="negative"):
        tp.ConvexProfile((1.0, -0.5, 0.0))


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
