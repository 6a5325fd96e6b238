"""Digit combinatorics in Z_Q^P and quantitative Poincare recurrence.

The central search: inside a dense subset B of Z_Q^P (Q even), find a pair
x, x' agreeing below some coordinate s, with x_s = 0, x'_s = Q/2, and all
higher coordinates within circular distance 2.  Existence is guaranteed
when B is dense (density_guarantee); the search realises the same
existence constructively and simply reports NotFound (None) otherwise.

Grids are boolean arrays of shape (Q,)*P with axis i holding digit i
(least significant first), so the flat index of a cell equals
sum_i coord_i * Q^i under Fortran ordering.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

GRID_CELL_LIMIT = 1 << 24


class GridSizeError(ValueError):
    """Q^P exceeds the explicit-bitset limit."""


class RecurrenceBoundError(RuntimeError):
    """A poincare_returns row passed its horizon, which Cauchy-Schwarz rules out."""


class AgreementSearchError(RuntimeError):
    """The agreement search broke a bullet, or found nothing where the density guarantee applies."""


def circular_distance(a: int, b: int, q: int) -> int:
    d = abs(a - b) % q
    return min(d, q - d)


@dataclass(frozen=True)
class AgreementPair:
    """x and x_prime as tuples of ints, digit i at index i, each in [0, Q)."""

    x: tuple
    x_prime: tuple
    s: int


def _require_bool(members, what: str) -> None:
    """Refuse anything but a bool array, naming its dtype or type."""
    if not isinstance(members, np.ndarray) or members.dtype != bool:
        kind = getattr(members, "dtype", type(members).__name__)  # an array's dtype, else the type
        raise ValueError(f"members must be {what}, got {kind}")


def poincare_returns(mapping, members):
    """strong_poincare for one permutation T of {0..m-1} and one subset E
    per row of the bool matrix members: T is checked once and T^n stepped
    once for all rows.  Returns int arrays (n, count = |E intersect T^-n E|)
    at each row's first qualifying n, which Cauchy-Schwarz on the sum of
    1_E(T^i x) over i < ceil(2/density) puts below that horizon.
    """
    _require_bool(members, "a bool matrix of one row per subset")  # an index list is not read as a mask
    perm = np.asarray(mapping, dtype=np.int64)
    m = perm.size
    if not np.array_equal(np.sort(perm), np.arange(m)):  # also false for a non-1-D mapping
        raise ValueError("mapping must be a permutation of {0..size-1}")
    if members.ndim != 2 or members.shape[1] != m:
        raise ValueError(f"members must hold one row of {m} cells per subset")
    sizes = members.sum(axis=1)
    if not sizes.all():
        raise ValueError("subset must be non-empty")
    horizon = -(-2 * m // sizes)  # ceil(2 / density)
    need = -(-sizes * sizes // (2 * m))  # the least count with 2*count*m >= |E|^2
    found, count = np.zeros_like(sizes), np.zeros_like(sizes)  # found 0: no qualifying n yet
    current = perm
    for n in range(1, int(horizon.max(initial=0)) + 1):
        overlap = (members & members[:, current]).sum(axis=1)
        hit = (found == 0) & (overlap >= need)
        found[hit], count[hit] = n, overlap[hit]
        if found.all():
            break
        current = perm[current]
    if ((found == 0) | (found > horizon)).any():
        raise RecurrenceBoundError("a row has no qualifying n by its horizon ceil(2/density)")
    return found, count


def strong_poincare(mapping, mask):
    """First return step n <= ceil(2/density) of the permutation mapping of
    {0..m-1} whose overlap |E intersect T^-n E| / m reaches density^2 / 2,
    for E given as a bool mask of the m cells: the one-row call of
    poincare_returns, which checks both.
    """
    n, count = poincare_returns(mapping, mask[None] if isinstance(mask, np.ndarray) else mask)
    return int(n[0]), int(count[0]) / mask.size


def _expand(grid: np.ndarray, axis: int) -> np.ndarray:
    return grid | np.roll(grid, 1, axis=axis) | np.roll(grid, -1, axis=axis)


def neighbourhood_chain(grid: np.ndarray) -> list:
    """chain[s] = the set of points agreeing with some grid point exactly
    below coordinate s and within distance 1 from it at coordinates >= s.
    chain[P] is the grid itself and the chain is nested increasingly as s
    drops."""
    p = grid.ndim
    chain = [None] * (p + 1)
    chain[p] = grid
    for s in range(p - 1, -1, -1):
        chain[s] = _expand(chain[s + 1], s)
    return chain


def _backmap_candidates(grid: np.ndarray, target: tuple, s: int, q: int):
    """Grid members equal to target at coordinates <= s and within circular
    distance 1 above, in lexicographic coordinate order."""
    p = grid.ndim
    pools = []
    for i in range(p):
        if i <= s:
            pools.append((target[i],))
        else:
            pools.append(tuple(sorted({(target[i] + d) % q for d in (-1, 0, 1)})))
    for cand in itertools.product(*pools):
        if grid[cand]:
            yield cand


def _agreement_candidates(grid: np.ndarray, q: int):
    """Yield (x, x_prime, s) candidate pairs in deterministic order:
    smallest s first, then lexicographically smallest fiber, then
    lexicographically smallest witnesses."""
    p = grid.ndim
    if not grid.any():
        return
    chain = neighbourhood_chain(grid)
    half = q // 2
    for s in range(p):
        level = chain[s + 1]
        full = level.all(axis=s)
        if not full.any():
            continue
        for rest in np.argwhere(full):
            rest = [int(v) for v in rest]
            base = rest[:s] + [0] + rest[s:]
            zero_point = tuple(base)
            half_point = tuple(base[:s] + [half] + base[s + 1 :])
            for x in _backmap_candidates(grid, zero_point, s, q):
                for x_prime in _backmap_candidates(grid, half_point, s, q):
                    yield x, x_prime, s


def bullets_hold(x: tuple, x_prime: tuple, s: int, q: int) -> bool:
    """The agreement-pair bullets: x and x' agree below s, x_s = 0,
    x'_s = Q/2, and every higher coordinate pair is within circular
    distance 2."""
    return (
        x[:s] == x_prime[:s]
        and x[s] == 0
        and x_prime[s] == q // 2
        and all(circular_distance(a, b, q) <= 2 for a, b in zip(x[s + 1 :], x_prime[s + 1 :]))
    )


def density_guarantee(count: int, ell: int, q: int, p: int) -> bool:
    """Whether |B| = count > Q^P/ell and P > Q*log(ell), under which B holds an agreement pair."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return count * ell > q**p and p > q * math.log(ell)


def grid_cells(q: int, p: int) -> int:
    """Q^P, the cells of an explicit grid; GridSizeError above GRID_CELL_LIMIT."""
    if q < 2 or p < 1:
        raise ValueError(f"grids need Q >= 2 and P >= 1, got Q={q}, P={p}")
    if q**p > GRID_CELL_LIMIT:
        raise GridSizeError(f"Q^P = {q**p} exceeds the {GRID_CELL_LIMIT} cell limit")
    return q**p


def random_mask(rng, cells: int, size: int) -> np.ndarray:
    """A uniform random size-subset of the cells as a bool mask.  The smaller
    of the subset and its complement is drawn (the complement of a uniform
    k-subset is uniform), so a size up to cells/2 gives the set of
    rng.choice(cells, size, replace=False)."""
    dense = 2 * size > cells
    mask = np.full(cells, dense)
    mask[rng.choice(cells, min(size, cells - size), replace=False)] = not dense
    return mask


def _mask_grid(mask, q: int, p: int) -> np.ndarray:
    """The grid of a bool mask of the Q^P cells, reshaped without a copy; anything else is refused."""
    cells = grid_cells(q, p)
    _require_bool(mask, f"a bool mask of the {cells} cells")
    if mask.shape != (cells,):
        raise ValueError(f"a membership mask must have shape ({cells},), got {mask.shape}")
    return mask.reshape((q,) * p, order="F")


def find_agreement_pair(mask, ell: int, *, q: int, p: int):
    """First (smallest s, lexicographically smallest) agreement pair in B,
    given as a bool mask of the Q^P cells in the digit order of int_to_digits.

    Returns an AgreementPair or None.  Under density_guarantee a pair must
    exist; exhausting the search there indicates a bug and raises.
    """
    grid = _mask_grid(mask, q, p)
    if q % 2:
        raise ValueError("modulus Q must be even")
    count = int(np.count_nonzero(grid))  # a Python int, so an ell past int64 cannot overflow the product
    guaranteed = density_guarantee(count, ell, q, p)  # refuses ell < 1 before the search
    for x, x_prime, s in _agreement_candidates(grid, q):
        if not bullets_hold(x, x_prime, s, q):
            raise AgreementSearchError(f"agreement candidate {x}, {x_prime} at s={s} breaks a bullet")
        return AgreementPair(x, x_prime, s)
    if guaranteed:
        raise AgreementSearchError(
            "agreement search exhausted although the density guarantee applies"
        )
    return None


def int_to_digits(value: int, q: int, p: int) -> tuple:
    digits = []
    for _ in range(p):
        value, d = divmod(value, q)
        digits.append(d)
    return tuple(digits)


def digits_to_int(digits, q: int) -> int:
    total = 0
    for d in reversed(tuple(digits)):
        total = total * q + d
    return total


def digit_windows(j: int, q: int, p: int):
    """The digit windows of the pattern set R: range(1, 8j) for every digit
    but one and range(Q/2, Q/2 + 8j) for that one.  The one check of
    (j, Q, P): Q even with Q/2 + 8j < Q, j >= 1 and P >= 1."""
    if q % 2 or q // 2 + 8 * j >= q:
        raise ValueError(f"digit patterns need Q even with Q/2 + 8*j < Q, got Q={q}, j={j}")
    if j < 1 or p < 1:
        raise ValueError(f"digit patterns need j >= 1 and P >= 1, got j={j}, P={p}")
    return range(1, 8 * j), range(q // 2, q // 2 + 8 * j)


def digit_pattern_members(j: int, q: int, p: int) -> list:
    """The pattern set R, ascending: the integers below Q^P whose base-Q
    digits all lie in [1, 8j) except exactly one in [Q/2, Q/2 + 8j).

    Count is P * 8j * (8j - 1)^(P-1); every member is a zero of the witness
    transform.
    """
    low, high = digit_windows(j, q, p)
    return sorted(digits_to_int(d, q) for marked in range(p)
                  for d in itertools.product(*(high if i == marked else low for i in range(p))))


def pattern_position(y: int, j: int, q: int, p: int):
    """Index of the one base-Q digit of y in [Q/2, Q/2 + 8j) when every
    other digit lies in [1, 8j); None when y is not in R."""
    low, high = digit_windows(j, q, p)
    digits = int_to_digits(y, q, p)
    marked = [i for i, d in enumerate(digits) if d in high]
    rest_low = all(d in low for i, d in enumerate(digits) if i not in marked)
    return marked[0] if len(marked) == 1 and rest_low and y < q**p else None


def digit_difference(mask, j: int, q: int, p: int):
    """A positive difference of two members of E (a bool mask, as for
    find_agreement_pair) whose base-Q digits all lie in [1, 8j) except one
    digit in [Q/2, Q/2 + 8j).

    Procedure: shift-by-4 recurrence picks an n below ceil(2/density) with
    a dense overlap B = E intersect (E - 4n digitwise); an agreement pair
    in B then produces the difference.  Candidates are scanned in
    deterministic order (the qualifying n ascending, then the other n with
    a non-empty overlap) and every produced difference is verified against
    the digit windows before being returned; None means the scan found no
    verified difference (possible when the density hypothesis fails).
    Qualifying overlaps are scanned as they are built and the others are
    rebuilt for a second pass, so one grid is held at a time, whatever the horizon.
    """
    digit_windows(j, q, p)  # refuses (j, Q, P) outside R's range before any grid is built
    grid = _mask_grid(mask, q, p)
    count_e = int(np.count_nonzero(grid))
    if count_e == 0:
        return None
    horizon = -(-2 * (q**p) // count_e)
    overlap_at = lambda n: grid & np.roll(grid, shift=(-4 * n,) * p, axis=tuple(range(p)))

    def overlaps():  # qualifying rows as they are built, then the other non-empty rows rebuilt
        fallback = []
        for n in range(1, horizon + 1):
            overlap = overlap_at(n)
            count = int(np.count_nonzero(overlap))
            if 2 * count * q**p >= count_e * count_e:
                yield n, overlap
            elif count:
                fallback.append(n)
        for n in fallback:
            yield n, overlap_at(n)

    for n, overlap in overlaps():
        for x, x_prime, s in _agreement_candidates(overlap, q):
            shifted_prime = tuple((c + 4 * n) % q for c in x_prime)
            y = abs(digits_to_int(shifted_prime, q) - digits_to_int(x, q))
            if pattern_position(y, j, q, p) == s:
                return y
    return None
