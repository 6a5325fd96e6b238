import itertools
import tracemalloc

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


def reference_strong_poincare(system):
    """The one-system loop poincare_returns replaced: (n, count) with the
    first qualifying n <= ceil(2m/|E|), else the first maximising n."""
    m, count_e = system.size, len(system.subset)
    perm = np.array(system.mapping, dtype=np.int64)
    in_e = np.zeros(m, dtype=bool)
    in_e[list(system.subset)] = True
    current = perm.copy()
    best_n, best_count = 1, -1
    for n in range(1, -(-2 * m // count_e) + 1):
        overlap = int(np.count_nonzero(in_e & in_e[current]))
        if 2 * overlap * m >= count_e * count_e:
            return n, overlap
        if overlap > best_count:
            best_n, best_count = n, overlap
        current = perm[current]
    return best_n, best_count


def single_rows(mapping, members):
    """strong_poincare on each row of members as its own FiniteSystem, each
    checked against the one-system loop."""
    out = []
    for row in members:
        system = cb.FiniteSystem(len(mapping), tuple(mapping), frozenset(np.flatnonzero(row).tolist()))
        n, overlap = cb.strong_poincare(system)
        out.append((n, round(overlap * system.size)))
        assert out[-1] == reference_strong_poincare(system)
    return out


def all_masks(m):
    return (np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1).astype(bool)


def assert_rows_match(mapping, members):
    n, count = cb.poincare_returns(mapping, members)
    assert n.dtype.kind == count.dtype.kind == "i"
    assert list(zip(n.tolist(), count.tolist())) == single_rows(mapping, members)


def test_poincare_returns_matches_single_rows():
    for m in range(1, 9):  # every rotation
        for shift in range(m):
            assert_rows_match([(x + shift) % m for x in range(m)], all_masks(m))
    for m in range(9, 13):  # every subset of the step-one rotation
        assert_rows_match([(x + 1) % m for x in range(m)], all_masks(m))
    for m in range(1, 6):  # every permutation
        for perm in itertools.permutations(range(m)):
            assert_rows_match(list(perm), all_masks(m))
    rng = np.random.default_rng(6)
    for _ in range(2000):  # random stacks
        m = int(rng.integers(1, 65))
        members = rng.random((int(rng.integers(1, 6)), m)) < rng.random()
        members[np.arange(len(members)), rng.integers(0, m, len(members))] = True
        assert_rows_match(rng.permutation(m).tolist(), members)


def test_poincare_returns_rows_keep_their_own_horizons():
    members = np.zeros((3, 8), dtype=bool)
    members[0, [0, 4]] = True  # horizon 8, qualifies at n = 4
    members[1, 0] = True  # horizon 16, first returns at n = 8
    members[2] = True  # horizon 2
    n, count = cb.poincare_returns([(x + 1) % 8 for x in range(8)], members)
    assert n.tolist() == [4, 8, 1] and count.tolist() == [2, 1, 8]
    assert_rows_match([(x + 1) % 8 for x in range(8)], members)


def test_poincare_returns_rejects_bad_input():
    with pytest.raises(ValueError, match="permutation"):
        cb.poincare_returns([0, 0, 2], np.ones((1, 3), dtype=bool))
    with pytest.raises(ValueError, match="non-empty"):
        cb.poincare_returns([1, 2, 0], np.array([[True, False, False], [False] * 3]))


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


def reference_digit_difference(elements, j, q, p):
    """The eager scan the lazy one replaced: every overlap grid for
    n = 1..horizon is built and kept, then the qualifying rows and then the
    other non-empty rows are scanned."""
    grid = cb._index_grid(elements, q, p)
    count_e = int(grid.sum())
    if count_e == 0:
        return None
    horizon = -(-2 * (q**p) // count_e)
    overlaps = []
    for n in range(1, horizon + 1):
        overlap = grid & np.roll(grid, shift=(-4 * n,) * p, axis=tuple(range(p)))
        overlaps.append((n, int(overlap.sum()), overlap))
    qualifies = lambda cnt: 2 * cnt * q**p >= count_e * count_e
    qualifying = [row for row in overlaps if qualifies(row[1])]
    fallback = [row for row in overlaps if row[1] > 0 and not qualifies(row[1])]
    for n, _, overlap in qualifying + fallback:
        for x, x_prime, s in cb._agreement_candidates(overlap, q):
            shifted_prime = tuple((c + 4 * n) % q for c in x_prime)
            y = abs(cb.digits_to_int(shifted_prime, q) - cb.digits_to_int(x, q))
            if cb.pattern_position(y, j, q, p) == s:
                return y
    return None


def fallback_only_set():
    """E = A x Z_20 with |A| = 8 and one pair a, a + 4 in A.  Only n = 1
    yields a digit pattern, y = 4 + 14*20, and its overlap (20 cells) is
    below the threshold |E|^2 / (2*Q^P) = 32, so the difference comes from
    the fallback pass."""
    rows = [0, 4, 9, 10, 11, 17, 18, 19]  # (a + 4) mod 20 in rows only for a = 0
    return [a + 20 * t for a in rows for t in range(20)]


def order_sensitive_set():
    """140 members of Z_20^2 where the scan order decides the answer.  Full
    columns x_0 = 0 and x_0 = 4 put y = 4 + 14*20 in the n = 1 overlap, a
    fallback row (20 cells, below |E|^2 / (2*Q^P) = 24.5); the full row
    x_1 = 12 with (10, 13) puts y = 50 in the n = 5 overlap (4n = 0 mod 20,
    so it is E itself), which qualifies.  Further cells are added in index
    order while neither x + (4, 4) nor x - (4, 4) is a member."""
    cells = {(0, t) for t in range(20)} | {(4, t) for t in range(20)}
    cells |= {(t, 12) for t in range(20)} | {(10, 13)}
    for v in range(20 * 20):
        x = (v % 20, v // 20)
        shifted = {((x[0] + d) % 20, (x[1] + d) % 20) for d in (4, -4)}
        if len(cells) < 140 and x not in cells and not shifted & cells:
            cells.add(x)
    return [x0 + 20 * x1 for x0, x1 in cells]


def test_digit_difference_matches_eager_reference():
    rng = np.random.default_rng(7)
    cases = []
    for q, p, density in [(64, 2, 0.97), (20, 3, 0.7), (20, 3, 0.2), (32, 2, 0.1), (18, 3, 0.05)]:
        for _ in range(4):
            members = rng.choice(q**p, size=int(density * q**p), replace=False)
            cases.append((members, 1, q, p))
    cases += [(fallback_only_set(), 1, 20, 2), (order_sensitive_set(), 1, 20, 2),
              ({0, 5}, 1, 64, 2), (set(), 1, 64, 2),
              ([a + 20 * t for a in (0, 1, 2, 3) for t in range(20)], 1, 20, 2)]
    found = [cb.digit_difference(*case) for case in cases]
    assert found == [reference_digit_difference(*case) for case in cases]
    assert found[0] is not None and found[-1] is None and None in found[8:20]
    assert found[-5:-3] == [4 + 14 * 20, 50]
    for members in (fallback_only_set(), order_sensitive_set()):
        grid = cb._index_grid(members, 20, 2)
        overlap = int((grid & np.roll(grid, (-4, -4), axis=(0, 1))).sum())
        assert 0 < 2 * overlap * 20**2 < int(grid.sum()) ** 2  # n = 1 is a fallback row


def test_digit_difference_holds_one_overlap_grid():
    q, p = 32, 3
    members = np.random.default_rng(8).choice(q**p, size=q**p // 20, replace=False)
    assert -(-2 * q**p // len(members)) >= 20  # the horizon
    tracemalloc.start()
    try:
        cb.digit_difference(members, 1, q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * q**p  # the eager scan peaked near 49 * Q^P here


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
