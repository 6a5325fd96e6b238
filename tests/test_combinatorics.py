import itertools

import numpy as np
import pytest

from vdcset import combinatorics as cb


def brute_force_poincare_bounds(system):
    """Exhaustive oracle: the returned pair must satisfy both inequalities."""
    n, overlap = cb.strong_poincare(system)
    m, count = system.size, len(system.subset)
    assert 1 <= n <= -(-2 * m // count)
    assert 2 * overlap >= (count / m) ** 2 - 1e-15
    return n, overlap


def test_poincare_whole_space():
    system = cb.FiniteSystem(5, tuple((x + 2) % 5 for x in range(5)), frozenset(range(5)))
    n, overlap = cb.strong_poincare(system)
    assert n == 1 and overlap == 1.0


def test_poincare_rotation_example():
    system = cb.FiniteSystem(8, tuple((x + 1) % 8 for x in range(8)), frozenset({0, 4}))
    n, overlap = cb.strong_poincare(system)
    assert n == 4
    assert overlap == pytest.approx(0.25)


def test_poincare_exhaustive_rotations():
    for m in range(1, 9):
        for shift in range(m):
            mapping = tuple((x + shift) % m for x in range(m))
            for mask in range(1, 1 << m):
                subset = frozenset(i for i in range(m) if mask >> i & 1)
                brute_force_poincare_bounds(cb.FiniteSystem(m, mapping, subset))


def test_poincare_all_permutations_small():
    for m in range(1, 6):
        for perm in itertools.permutations(range(m)):
            for mask in range(1, 1 << m):
                subset = frozenset(i for i in range(m) if mask >> i & 1)
                brute_force_poincare_bounds(cb.FiniteSystem(m, perm, subset))


def test_poincare_random_permutations():
    rng = np.random.default_rng(0)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        mapping = tuple(int(v) for v in rng.permutation(m))
        count = int(rng.integers(1, m + 1))
        subset = frozenset(int(v) for v in rng.choice(m, size=count, replace=False))
        brute_force_poincare_bounds(cb.FiniteSystem(m, mapping, subset))


def test_poincare_rejects_empty_subset():
    system = cb.FiniteSystem(4, (1, 2, 3, 0), frozenset())
    with pytest.raises(ValueError):
        cb.strong_poincare(system)


def test_finite_system_validation():
    with pytest.raises(ValueError, match="permutation"):
        cb.FiniteSystem(3, (0, 0, 2), frozenset({1}))
    with pytest.raises(ValueError, match="subset"):
        cb.FiniteSystem(3, (1, 2, 0), frozenset({5}))


def test_digit_vector_json_and_validation():
    v = cb.DigitVector(6, (1, 5, 0))
    assert cb.DigitVector.from_json(v.to_json()) == v
    with pytest.raises(ValueError):
        cb.DigitVector(4, (4, 0))


def test_agreement_pair_full_cube():
    pair = cb.find_agreement_pair(range(16), 2, q=4, p=2)
    assert pair is not None
    assert pair.x.coords[pair.s] == 0
    assert pair.x_prime.coords[pair.s] == 2


def test_agreement_pair_single_vector_not_found():
    assert cb.find_agreement_pair([cb.digits_to_int((1, 2), 4)], 2, q=4, p=2) is None


def test_index_grid_matches_digit_vectors():
    rng = np.random.default_rng(4)
    members = rng.choice(6**3, size=50, replace=False)
    vectors = [cb.DigitVector(6, cb.int_to_digits(int(v), 6, 3)) for v in members]
    grid = cb._index_grid(members, 6, 3)
    assert grid.shape == (6, 6, 6)
    assert all(grid[v.coords] for v in vectors) and grid.sum() == 50
    with pytest.raises(ValueError, match="inside"):
        cb._index_grid(np.array([6**3]), 6, 3)


def test_agreement_pair_rejects_members_outside_the_cube():
    with pytest.raises(ValueError, match="inside"):
        cb.find_agreement_pair([3, 4**2], 2, q=4, p=2)


def test_agreement_pair_dense_random_guarantee_regime():
    # P > Q log ell genuinely holds here: 4 > 4*log(2) = 2.77
    rng = np.random.default_rng(1)
    space = 4**4
    for _ in range(25):
        size = space // 2 + 1 + int(rng.integers(0, space // 4))
        members = rng.choice(space, size=size, replace=False)
        pair = cb.find_agreement_pair(members, 2, q=4, p=4)
        assert pair is not None
        # both points are members, read back through the digit order
        found = {cb.digits_to_int(pair.x.coords, 4), cb.digits_to_int(pair.x_prime.coords, 4)}
        assert found <= set(members.tolist())
        x, xp, s = pair.x.coords, pair.x_prime.coords, pair.s
        assert x[:s] == xp[:s]
        assert x[s] == 0 and xp[s] == 2
        assert all(cb.circular_distance(a, b, 4) <= 2 for a, b in zip(x[s + 1 :], xp[s + 1 :]))


def test_bullets_hold_one_violation_per_bullet():
    q = 8
    assert cb.bullets_hold((1, 0, 3), (1, 4, 5), 1, q)
    assert cb.bullets_hold((1, 0, 7), (1, 4, 1), 1, q)  # distance 2 across the wrap
    assert not cb.bullets_hold((2, 0, 3), (1, 4, 5), 1, q)  # disagree below s
    assert not cb.bullets_hold((1, 1, 3), (1, 4, 5), 1, q)  # x_s != 0
    assert not cb.bullets_hold((1, 0, 3), (1, 3, 5), 1, q)  # x'_s != Q/2
    assert not cb.bullets_hold((1, 0, 3), (1, 4, 6), 1, q)  # higher digits 3 apart


def test_agreement_pair_raises_on_broken_bullets(monkeypatch):
    monkeypatch.setattr(cb, "_agreement_candidates", lambda grid, q: iter([((0, 1), (0, 1), 0)]))
    with pytest.raises(RuntimeError, match="breaks a bullet"):
        cb.find_agreement_pair([cb.digits_to_int((0, 1), 4)], 2, q=4, p=2)


def test_neighbourhood_chain_is_nested():
    rng = np.random.default_rng(2)
    grid = rng.random((6, 6, 6)) < 0.3
    chain = cb.neighbourhood_chain(grid)
    assert np.array_equal(chain[3], grid)
    for s in range(3):
        assert np.all(chain[s + 1] <= chain[s])  # B_{s+1} subset of B_s


def test_digit_difference_full_range():
    y = cb.digit_difference(set(range(64**2)), 1, 64, 2)
    assert y is not None
    digits = cb.int_to_digits(y, 64, 2)
    marked = [i for i, d in enumerate(digits) if 32 <= d < 40]
    assert len(marked) == 1
    assert all(1 <= d < 8 for i, d in enumerate(digits) if i != marked[0])


def test_digit_difference_tiny_set_not_found():
    assert cb.digit_difference({0, 5}, 1, 64, 2) is None
    assert cb.digit_difference(set(), 1, 64, 2) is None


def test_digit_difference_dense_random_verified():
    rng = np.random.default_rng(3)
    space = 64**2
    for _ in range(30):
        size = int(np.ceil(0.97 * space))
        members = set(int(v) for v in rng.choice(space, size=size, replace=False))
        y = cb.digit_difference(members, 1, 64, 2)
        assert y is not None
        # membership oracle: y really is a difference of two members
        assert any(e + y in members for e in members)
        digits = cb.int_to_digits(y, 64, 2)
        marked = [i for i, d in enumerate(digits) if 32 <= d < 40]
        assert len(marked) == 1
        assert all(1 <= d < 8 for i, d in enumerate(digits) if i != marked[0])


def test_digit_difference_found_y_is_pattern_member():
    from vdcset import blocks

    members = blocks.digit_pattern_members(1, 64, 2)
    rng = np.random.default_rng(4)
    space = 64**2
    picked = set(int(v) for v in rng.choice(space, size=int(0.97 * space), replace=False))
    y = cb.digit_difference(picked, 1, 64, 2)
    assert y in members


def test_digit_difference_accepts_array_list_and_set():
    rng = np.random.default_rng(5)
    members = rng.choice(64**2, size=int(0.97 * 64**2), replace=False)
    forms = (members, list(members), set(members.tolist()))
    found = [cb.digit_difference(form, 1, 64, 2) for form in forms]
    assert found[0] is not None
    assert found == [found[0]] * 3


def test_digit_difference_validation():
    with pytest.raises(ValueError, match="Q even"):
        cb.digit_difference({0}, 1, 63, 2)
    with pytest.raises(ValueError, match="Q even"):
        cb.digit_difference({0}, 4, 32, 2)  # window exceeds Q
    with pytest.raises(ValueError, match="inside"):
        cb.digit_difference({64**2}, 1, 64, 2)


def test_digit_difference_needs_a_depth():
    with pytest.raises(ValueError, match="P >= 1"):
        cb.digit_difference([0], 1, 64, 0)


def test_pattern_position_matches_pattern_members():
    from vdcset import blocks

    members = set(blocks.digit_pattern_members(1, 64, 2))
    assert {y for y in range(64**2) if cb.pattern_position(y, 1, 64, 2) is not None} == members
    assert cb.pattern_position(32 * 64 + 3, 1, 64, 2) == 1
    assert cb.pattern_position(3 * 64 + 39, 1, 64, 2) == 0
    assert cb.pattern_position(64**2 + 64 + 33, 1, 64, 2) is None  # more than P digits


def test_grid_size_guard():
    with pytest.raises(cb.GridSizeError):
        cb.digit_difference({0}, 1, 64, 5)


def test_digits_round_trip():
    for value in (0, 1, 63, 64, 4095):
        assert cb.digits_to_int(cb.int_to_digits(value, 64, 2), 64) == value
