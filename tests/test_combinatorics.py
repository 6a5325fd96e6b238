import itertools
import re
import tracemalloc

import numpy as np
import pytest

from vdcset import combinatorics as cb
from vdcset.measures import AtomBudgetError


ONE = np.ones(1, dtype=bool)  # a one-cell mask, for refusals that come before the grid is read


def mask_of(members, cells):
    """The bool mask of the given flat indices among cells."""
    mask = np.zeros(cells, dtype=bool)
    mask[list(members)] = True
    return mask


def brute_force_poincare_bounds(mapping, mask):
    """Exhaustive oracle: the returned pair must satisfy both inequalities."""
    n, overlap = cb.strong_poincare(mapping, mask)
    m, count = mask.size, int(mask.sum())
    assert 1 <= n <= -(-2 * m // count)
    assert 2 * overlap >= (count / m) ** 2 - 1e-15
    return n, overlap


def test_poincare_whole_space():
    n, overlap = cb.strong_poincare([(x + 2) % 5 for x in range(5)], np.ones(5, dtype=bool))
    assert n == 1 and overlap == 1.0


def test_poincare_rotation_example():
    n, overlap = cb.strong_poincare([(x + 1) % 8 for x in range(8)], mask_of({0, 4}, 8))
    assert n == 4
    assert overlap == pytest.approx(0.25)


def test_poincare_exhaustive_rotations():
    for m in range(1, 9):
        for shift in range(m):
            mapping = tuple((x + shift) % m for x in range(m))
            for mask in all_masks(m):
                brute_force_poincare_bounds(mapping, mask)


def test_poincare_all_permutations_small():
    for m in range(1, 6):
        for perm in itertools.permutations(range(m)):
            for mask in all_masks(m):
                brute_force_poincare_bounds(perm, mask)


def test_poincare_random_permutations():
    rng = np.random.default_rng(0)
    for _ in range(500):
        m = int(rng.integers(2, 65))
        mapping = tuple(int(v) for v in rng.permutation(m))
        count = int(rng.integers(1, m + 1))
        brute_force_poincare_bounds(mapping, mask_of(rng.choice(m, size=count, replace=False), m))


def reference_strong_poincare(mapping, in_e):
    """The one-system loop poincare_returns replaced: (n, count) with the
    first qualifying n <= ceil(2m/|E|), else the first maximising n."""
    m, count_e = in_e.size, int(in_e.sum())
    perm = np.array(mapping, dtype=np.int64)
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
    """strong_poincare on each row of members as its own system, each
    checked against the one-system loop."""
    out = []
    for row in members:
        n, overlap = cb.strong_poincare(mapping, row)
        out.append((n, round(overlap * row.size)))
        assert out[-1] == reference_strong_poincare(mapping, row)
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
    with pytest.raises(ValueError, match="^subset must be non-empty$"):
        cb.strong_poincare((1, 2, 3, 0), np.zeros(4, dtype=bool))


def test_strong_poincare_validation():
    with pytest.raises(ValueError, match="permutation"):
        cb.strong_poincare((0, 0, 2), mask_of({1}, 3))
    with pytest.raises(ValueError, match=re.escape("members must hold one row of 3 cells per subset")):
        cb.strong_poincare((1, 2, 0), mask_of({5}, 6))  # a cell outside the 3 points
    with pytest.raises(ValueError, match=re.escape("members must hold one row of 3 cells per subset")):
        cb.strong_poincare((1, 2, 0), np.ones((1, 3), dtype=bool))  # a matrix is not a mask


@pytest.mark.parametrize("members, kind", [
    pytest.param([0, 1], "list", id="index-list"),  # once read as the mask [False, True]
    pytest.param([True, False], "list", id="bool-list"),
    pytest.param(1, "int", id="int"),
    pytest.param(np.array([0, 1]), "int64", id="int-array"),
])
def test_poincare_refuses_members_that_are_not_bool(members, kind):
    message = f"^members must be a bool matrix of one row per subset, got {kind}$"
    with pytest.raises(ValueError, match=message):
        cb.strong_poincare([1, 0], members)
    with pytest.raises(ValueError, match=message):
        cb.poincare_returns([1, 0], [members] if isinstance(members, list) else members)


def test_agreement_pair_full_cube():
    pair = cb.find_agreement_pair(np.ones(16, dtype=bool), 2, q=4, p=2)
    assert pair is not None
    assert pair.x[pair.s] == 0
    assert pair.x_prime[pair.s] == 2
    assert all(type(c) is int for c in pair.x + pair.x_prime)  # tuples of Python ints, digit i at index i


def test_agreement_search_streams_its_fibers():
    # the full fibers are walked one flat index at a time: on the all-ones Q = 2, P = 16 grid the
    # tracemalloc peak read 21.2 bytes per cell (the P + 1 chain grids and the fibers' flat indices),
    # and 136.7 while np.argwhere held every full fiber's P - 1 coordinates at once (numpy 2.4)
    q, p = 2, 16
    tracemalloc.start()
    try:
        pair = cb.find_agreement_pair(np.ones(q**p, dtype=bool), 2, q=q, p=p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (p + 1) * q**p
    assert pair == cb.AgreementPair((0,) * p, (1,) + (0,) * (p - 1), 0)  # smallest s, fiber and witnesses


def test_agreement_pair_single_vector_not_found():
    assert cb.find_agreement_pair(mask_of([cb.digits_to_int((1, 2), 4)], 16), 2, q=4, p=2) is None


def test_index_grid_matches_digit_vectors():
    rng = np.random.default_rng(4)
    members = rng.choice(6**3, size=50, replace=False)
    vectors = [cb.int_to_digits(int(v), 6, 3) for v in members]
    grid = cb._mask_grid(mask_of(members, 6**3), 6, 3)
    assert grid.shape == (6, 6, 6)
    assert all(grid[v] for v in vectors) and grid.sum() == 50


def test_index_grid_reads_a_bool_mask_as_membership():
    mask = np.zeros(16, dtype=bool)
    mask[[5, 9, 14]] = True
    grid = cb._mask_grid(mask, 4, 2)
    assert {tuple(cell) for cell in np.argwhere(grid).tolist()} == {(1, 1), (1, 2), (2, 3)}  # not 0, 1
    assert np.shares_memory(grid, mask)  # the mask is the grid, reshaped without a copy


@pytest.mark.parametrize("search, q", [
    (lambda mask: cb.find_agreement_pair(mask, 2, q=4, p=2), 4),
    (lambda mask: cb.digit_difference(mask, 1, 20, 2), 20),
], ids=["find_agreement_pair", "digit_difference"])
def test_a_mask_of_another_shape_is_refused_by_name(search, q):
    for shape in [(q * q - 1,), (q * q + 1,), (q, q)]:
        with pytest.raises(ValueError, match=re.escape(f"membership mask must have shape ({q * q},), got {shape}")):
            search(np.ones(shape, dtype=bool))


def test_agreement_pair_of_a_mask_takes_an_ell_past_int64():
    # the member count stays a Python int, so count * ell cannot overflow
    pair = cb.find_agreement_pair(np.ones(16, dtype=bool), 10**30, q=4, p=2)
    assert pair is not None and pair == cb.find_agreement_pair(np.ones(16, dtype=bool), 2, q=4, p=2)


@pytest.mark.parametrize("cells", [1, 2, 1000, 4096])
def test_random_mask_has_exactly_size_members(cells):
    half = cells // 2
    for size in sorted({0, 1, half, half + 1, cells - 1, cells} & set(range(cells + 1))):
        mask = cb.random_mask(np.random.default_rng(size), cells, size)
        assert mask.dtype == bool and mask.shape == (cells,)
        assert np.count_nonzero(mask) == size


@pytest.mark.parametrize("cells", [16, 1000, 4096, 40000])
def test_random_mask_draws_as_rng_choice_up_to_half(cells):
    for size in (0, 1, cells // 7, cells // 2):
        mask = cb.random_mask(np.random.default_rng(size + 3), cells, size)
        drawn = np.random.default_rng(size + 3).choice(cells, size, replace=False)
        assert np.array_equal(np.flatnonzero(mask), np.sort(drawn))


def test_random_mask_draws_the_smaller_of_the_set_and_its_complement():
    drawn = []

    class RecordingRng:
        def choice(self, cells, size, replace):
            drawn.append(size)
            return np.random.default_rng(0).choice(cells, size, replace=replace)

    for size in (3, 50, 51, 97):
        assert np.count_nonzero(cb.random_mask(RecordingRng(), 100, size)) == size
    assert drawn == [3, 50, 49, 3]


def test_random_mask_dense_draws_are_uniform():
    # each cell's inclusion frequency over 2000 seeded draws of 45 of 50 cells is about 0.9:
    # the standard deviation of a frequency is sqrt(0.9 * 0.1 / 2000) = 0.0067, so 0.04 is six of them
    rng = np.random.default_rng(12)
    cells, size, draws = 50, 45, 2000
    frequency = sum(cb.random_mask(rng, cells, size).astype(int) for _ in range(draws)) / draws
    assert np.abs(frequency - size / cells).max() < 0.04


def test_agreement_pair_rejects_members_outside_the_cube():
    with pytest.raises(ValueError, match=re.escape("membership mask must have shape (16,), got (17,)")):
        cb.find_agreement_pair(mask_of([3, 4**2], 4**2 + 1), 2, q=4, p=2)


def test_agreement_pair_dense_random_guarantee_regime():
    # P > Q log ell genuinely holds here: 4 > 4*log(2) = 2.77
    rng = np.random.default_rng(1)
    space = 4**4
    for _ in range(25):
        size = space // 2 + 1 + int(rng.integers(0, space // 4))
        members = rng.choice(space, size=size, replace=False)
        pair = cb.find_agreement_pair(mask_of(members, space), 2, q=4, p=4)
        assert pair is not None
        # both points are members, read back through the digit order
        found = {cb.digits_to_int(pair.x, 4), cb.digits_to_int(pair.x_prime, 4)}
        assert found <= set(members.tolist())
        x, xp, s = pair.x, pair.x_prime, pair.s
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
    with pytest.raises(cb.AgreementSearchError, match="breaks a bullet"):
        cb.find_agreement_pair(mask_of([cb.digits_to_int((0, 1), 4)], 16), 2, q=4, p=2)


def test_neighbourhood_chain_is_nested():
    rng = np.random.default_rng(2)
    grid = rng.random((6, 6, 6)) < 0.3
    chain = cb.neighbourhood_chain(grid)
    assert np.array_equal(chain[3], grid)
    for s in range(3):
        assert np.all(chain[s + 1] <= chain[s])  # B_{s+1} subset of B_s


def reference_digit_difference(mask, j, q, p):
    """The eager scan the lazy one replaced: every overlap grid for
    n = 1..horizon is built and kept, then the qualifying rows and then the
    other non-empty rows are scanned."""
    grid = cb._mask_grid(mask, q, p)
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
            cases.append((mask_of(members, q**p), 1, q, p))
    cases += [(mask_of(fallback_only_set(), 400), 1, 20, 2),
              (mask_of(order_sensitive_set(), 400), 1, 20, 2),
              (mask_of({0, 5}, 64**2), 1, 64, 2), (mask_of(set(), 64**2), 1, 64, 2),
              (mask_of([a + 20 * t for a in (0, 1, 2, 3) for t in range(20)], 400), 1, 20, 2)]
    found = [cb.digit_difference(*case) for case in cases]
    assert found == [reference_digit_difference(*case) for case in cases]
    assert found[0] is not None and found[-1] is None and None in found[8:20]
    assert found[-5:-3] == [4 + 14 * 20, 50]
    for members in (fallback_only_set(), order_sensitive_set()):
        grid = cb._mask_grid(mask_of(members, 400), 20, 2)
        overlap = int((grid & np.roll(grid, (-4, -4), axis=(0, 1))).sum())
        assert 0 < 2 * overlap * 20**2 < int(grid.sum()) ** 2  # n = 1 is a fallback row


def test_digit_difference_holds_one_overlap_grid():
    q, p = 32, 3
    members = np.random.default_rng(8).choice(q**p, size=q**p // 20, replace=False)
    assert -(-2 * q**p // len(members)) >= 20  # the horizon
    mask = mask_of(members, q**p)
    tracemalloc.start()
    try:
        cb.digit_difference(mask, 1, q, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * q**p  # the eager scan peaked near 49 * Q^P here


def test_digit_difference_full_range():
    y = cb.digit_difference(np.ones(64**2, dtype=bool), 1, 64, 2)
    assert y is not None
    digits = cb.int_to_digits(y, 64, 2)
    marked = [i for i, d in enumerate(digits) if 32 <= d < 40]
    assert len(marked) == 1
    assert all(1 <= d < 8 for i, d in enumerate(digits) if i != marked[0])


def test_digit_difference_tiny_set_not_found():
    assert cb.digit_difference(mask_of({0, 5}, 64**2), 1, 64, 2) is None
    assert cb.digit_difference(np.zeros(64**2, dtype=bool), 1, 64, 2) is None


def test_digit_difference_dense_random_verified():
    rng = np.random.default_rng(3)
    space = 64**2
    for _ in range(30):
        size = int(np.ceil(0.97 * space))
        members = set(int(v) for v in rng.choice(space, size=size, replace=False))
        y = cb.digit_difference(mask_of(members, space), 1, 64, 2)
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
    y = cb.digit_difference(mask_of(picked, space), 1, 64, 2)
    assert y in members


def test_searches_read_only_a_bool_mask():
    rng = np.random.default_rng(5)
    members = rng.choice(64**2, size=int(0.97 * 64**2), replace=False)
    mask = mask_of(members, 64**2)
    forms = [(members, "int64"), (list(members), "list"), (set(members.tolist()), "set"),
             (range(64**2), "range"), (mask.astype(np.int64), "int64"), (mask.tolist(), "list")]
    searches = (lambda form: cb.find_agreement_pair(form, 2, q=64, p=2),
                lambda form: cb.digit_difference(form, 1, 64, 2))
    for (form, kind), search in itertools.product(forms, searches):
        refusal = f"members must be a bool mask of the 4096 cells, got {kind}"
        with pytest.raises(ValueError, match=re.escape(refusal)):
            search(form)
    assert cb.digit_difference(mask, 1, 64, 2) is not None


def test_digit_difference_validation():
    with pytest.raises(ValueError, match="Q even"):
        cb.digit_difference(np.zeros(63**2, dtype=bool), 1, 63, 2)
    with pytest.raises(ValueError, match="Q even"):
        cb.digit_difference(np.zeros(32**2, dtype=bool), 4, 32, 2)  # window exceeds Q
    with pytest.raises(ValueError, match=re.escape("mask must have shape (4096,), got (4097,)")):
        cb.digit_difference(mask_of({64**2}, 64**2 + 1), 1, 64, 2)


def test_digit_difference_needs_a_depth():
    with pytest.raises(ValueError, match="P >= 1"):
        cb.digit_difference(ONE, 1, 64, 0)


def reference_digit_pattern_members(j, q, p):
    """The recursive enumeration the pattern set R was first built with, kept
    as a reference: each position takes the marked digit or a plain one."""
    low, high = range(1, 8 * j), range(q // 2, q // 2 + 8 * j)
    members = []

    def fill(position, acc, distinguished_used):
        if position == p:
            if distinguished_used:
                members.append(acc)
            return
        for d in high if not distinguished_used else ():
            fill(position + 1, acc + d * q**position, True)
        for d in low:
            fill(position + 1, acc + d * q**position, distinguished_used)

    fill(0, 0, False)
    return sorted(members)


@pytest.mark.parametrize("j, q, p", [(1, 64, 1), (1, 64, 2), (1, 64, 3), (1, 64, 4), (2, 64, 2),
                                     (1, 18, 3), (3, 50, 2)])
def test_digit_pattern_members_match_the_recursive_reference(j, q, p):
    members = cb.digit_pattern_members(j, q, p)
    assert members == reference_digit_pattern_members(j, q, p)
    assert len(members) == p * 8 * j * (8 * j - 1) ** (p - 1)
    assert all(type(y) is int for y in members)


def test_pattern_position_matches_pattern_members():
    for j, q, p in [(1, 64, 2), (1, 18, 3), (2, 40, 2)]:
        members = set(cb.digit_pattern_members(j, q, p))
        assert {y for y in range(q**p) if cb.pattern_position(y, j, q, p) is not None} == members
    assert cb.pattern_position(32 * 64 + 3, 1, 64, 2) == 1
    assert cb.pattern_position(3 * 64 + 39, 1, 64, 2) == 0
    assert cb.pattern_position(64**2 + 64 + 33, 1, 64, 2) is None  # more than P digits


@pytest.mark.parametrize("j, q, p, message", [
    pytest.param(1, 63, 2, "Q even with Q/2 + 8*j < Q, got Q=63, j=1", id="odd-q"),
    pytest.param(4, 64, 2, "Q even with Q/2 + 8*j < Q, got Q=64, j=4", id="window-beyond-q"),
    pytest.param(0, 64, 2, "j >= 1 and P >= 1, got j=0, P=2", id="j-zero"),
    pytest.param(-1, 64, 2, "j >= 1 and P >= 1, got j=-1, P=2", id="j-negative"),
    pytest.param(1, 64, 0, "j >= 1 and P >= 1, got j=1, P=0", id="p-zero"),
])
def test_pattern_set_parameters_are_checked_once(j, q, p, message):
    calls = [lambda: cb.digit_windows(j, q, p), lambda: cb.digit_pattern_members(j, q, p),
             lambda: cb.pattern_position(1, j, q, p), lambda: cb.digit_difference(ONE, j, q, p)]
    raised = []
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        raised.append(str(exc.value))
    assert raised == [f"digit patterns need {message}"] * len(calls)


def test_grid_size_guard():
    with pytest.raises(AtomBudgetError, match=r"^grid of 64\^5 cells exceeds the atom budget"):
        cb.digit_difference(ONE, 1, 64, 5)


def test_digits_round_trip():
    for value in (0, 1, 63, 64, 4095):
        assert cb.digits_to_int(cb.int_to_digits(value, 64, 2), 64) == value


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: cb.poincare_returns([1, 0], np.ones((1, 3), dtype=bool)),
                 "members must hold one row of 2 cells per subset", id="members-width"),
    pytest.param(lambda: cb.poincare_returns([1, 0], np.ones(2, dtype=bool)),
                 "members must hold one row of 2 cells per subset", id="members-one-dimensional"),
    pytest.param(lambda: cb.find_agreement_pair(np.ones(25, dtype=bool), 2, q=5, p=2),
                 "modulus Q must be even",
                 id="agreement-odd-q"),
    pytest.param(lambda: cb.grid_cells(4, 0), r"^grids need Q >= 2 and P >= 1, got Q=4, P=0$",
                 id="grid-no-digit"),
    pytest.param(lambda: cb.find_agreement_pair(ONE, 2, q=1, p=3), r"^grids need Q >= 2 and P >= 1",
                 id="grid-modulus"),
    pytest.param(lambda: cb.density_guarantee(1, 0, 2, 1), r"^ell must be >= 1, got 0$",
                 id="guarantee-ell"),
    pytest.param(lambda: cb.find_agreement_pair(np.ones(16, dtype=bool), -1, q=4, p=2),
                 r"^ell must be >= 1, got -1$",
                 id="agreement-ell"),  # refused although the full cube holds a pair
])
def test_refusals_name_their_bound(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_agreement_search_exhausted_under_the_guarantee_is_named(monkeypatch):
    monkeypatch.setattr(cb, "_agreement_candidates", lambda grid, q: iter(()))
    assert cb.find_agreement_pair(np.ones(4**2, dtype=bool), 2, q=4, p=2) is None  # P > Q*log(ell) fails
    with pytest.raises(cb.AgreementSearchError, match="density guarantee"):
        cb.find_agreement_pair(np.ones(4**4, dtype=bool), 2, q=4, p=4)
