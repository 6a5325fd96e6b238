"""Real trigonometric polynomials with integer frequencies.

A polynomial represents ``t -> sum_m c_m exp(2*pi*i*m*t)`` on the unit
circle with c_-m = conj(c_m), so it is real-valued.  It is stored as its
half spectrum, as AtomicMeasure.spectrum is: two read-only arrays, the
frequencies ``freqs`` >= 0 (int64, strictly ascending) and their non-zero
complex coefficients ``values`` (c_0 real).  ``TrigPoly.from_half`` brings
every result to that form (sort, sum repeated frequencies, drop exact
zeros), and every operation is a numpy expression on the two arrays.
Coefficients double as Fourier transform values: for ``f`` stored here,
``f_hat(m) == coeff(m)``.

Everything is double precision.  Identities that hold exactly in real
arithmetic are verified elsewhere with absolute tolerances 1e-12
(coefficient arithmetic) and 1e-9 (evaluation).  No builder evaluates a
positivity grid; grid minima serve only kernel_residuals as oracles.  Grid
values come from one real inverse FFT (``irfft``) of the half spectrum
folded mod the grid.
"""

from collections.abc import ItemsView, Mapping, ValuesView
from dataclasses import dataclass

import numpy as np

from .reports import row

COEFF_TOL = 1e-12
EVAL_TOL = 1e-9


class ProfileError(ValueError):
    """A convex-profile invariant failed; the message names the index."""


def _fits_int64(degree: int) -> None:  # numpy wraps int64 overflow silently
    if degree >= 2**63:
        raise ValueError(f"frequency {degree} is beyond the int64 frequency range")


def modulus(z: np.ndarray) -> np.ndarray:
    """Elementwise |z| rounded as abs(complex) is (np.abs may differ in the last bit)."""
    return np.hypot(z.real, z.imag)


@dataclass(frozen=True, eq=False, init=False)
class TrigPoly:
    """Sparse real trigonometric polynomial: its coefficients at m >= 0,
    with coeff(-m) == conj(coeff(m)) implied; built by ``from_half``."""

    freqs: np.ndarray
    values: np.ndarray

    @staticmethod
    def from_half(freqs, values) -> "TrigPoly":
        """Real polynomial: values at freqs >= 0, conj(values) implied at -freqs (0 once).

        The one normal form: frequencies strictly ascending (repeats summed
        in input order, starting from 0), exact zeros dropped.  Arrays
        already in normal form are kept without a copy and made read-only,
        so pass ones you own."""
        m, c = np.asarray(freqs, dtype=np.int64), np.asarray(values, dtype=complex)
        if not (m[1:] > m[:-1]).all():
            order = np.argsort(m, kind="stable")
            m, c = m[order], c[order]
            first = np.concatenate(([True], m[1:] != m[:-1]))
            if not first.all():
                summed = np.zeros(np.count_nonzero(first), dtype=complex)
                np.add.at(summed, np.cumsum(first) - 1, c)
                m, c = m[first], summed
        keep = c != 0
        if not keep.all():
            m, c = m[keep], c[keep]
        if m.size and (m[0] < 0 or m[0] == 0 and c[0].imag != 0):  # 0 is not mirrored
            raise ValueError(f"from_half needs frequencies >= 0 and a real value at 0, got "
                             f"{c[0].real if c[0].imag == 0 else c[0]} at the first frequency {m[0]}")
        poly = object.__new__(TrigPoly)
        for name, array in (("freqs", m), ("values", c)):
            array.setflags(write=False)
            object.__setattr__(poly, name, array)
        return poly

    @property
    def coeffs(self) -> "_Coeffs":
        """Read-only {frequency: coefficient} mapping, ascending over both signs, viewing the half."""
        return _Coeffs(self)

    @property
    def degree(self) -> int:
        return int(self.freqs[-1]) if self.freqs.size else 0

    def coeff(self, m):
        """Coefficient at frequency m (0 if absent); elementwise for an array of m."""
        m = np.asarray(m, dtype=np.int64)
        out = np.zeros(m.shape, dtype=complex)
        if self.freqs.size:
            key = np.abs(m)
            i = np.minimum(np.searchsorted(self.freqs, key), self.freqs.size - 1)
            hit = self.freqs[i] == key
            out[hit] = self.values[i[hit]]
            np.conjugate(out, out=out, where=m < 0)  # c_-m = conj(c_m)
        return complex(out) if out.ndim == 0 else out


class _Coeffs(Mapping):
    """TrigPoly.coeffs, read from the half: Python int keys ascending over both signs (a float or
    bool is no key), conj(c_m) at -m; O(1) len, binary-search lookups, iteration 2^14 terms at a time."""

    def __init__(self, poly: TrigPoly):
        self._poly, self._zero = poly, int(poly.freqs.size > 0 and poly.freqs[0] == 0)

    def __len__(self) -> int:
        return 2 * self._poly.freqs.size - self._zero  # frequency 0 once

    def __getitem__(self, m) -> complex:
        key = abs(int(m)) if isinstance(m, (int, np.integer)) and not isinstance(m, bool) else -1
        freqs, values = self._poly.freqs, self._poly.values
        i = freqs.searchsorted(key) if 0 <= key <= self._poly.degree else freqs.size
        if i < freqs.size and freqs[i] == key:
            return complex(values[i].conjugate() if m < 0 else values[i])
        raise KeyError(m)

    def _chunks(self):
        """Aligned (frequencies, coefficients) arrays of at most 2^14 terms, ascending."""
        freqs, values, step = self._poly.freqs, self._poly.values, 1 << 14
        for end in range(freqs.size, self._zero, -step):  # the mirrored half m < 0 first
            part = slice(max(end - step, self._zero), end)
            yield -freqs[part][::-1], values[part][::-1].conj()
        for start in range(0, freqs.size, step):
            yield freqs[start:start + step], values[start:start + step]

    def __iter__(self):
        return (m for freqs, _ in self._chunks() for m in freqs.tolist())

    def values(self):
        return _CoeffValues(self)

    def items(self):
        return _CoeffItems(self)


class _CoeffValues(ValuesView):  # the stock views would look up every key
    def __iter__(self):
        return (c for _, values in self._mapping._chunks() for c in values.tolist())


class _CoeffItems(ItemsView):
    def __iter__(self):
        return (item for f, c in self._mapping._chunks() for item in zip(f.tolist(), c.tolist()))


def _mirrored(f: TrigPoly, end=None):
    """f's first ``end`` terms at both signs, ascending (frequency 0 once)."""
    freqs, values = f.freqs[:end], f.values[:end]
    skip = int(freqs.size > 0 and freqs[0] == 0)
    return (np.concatenate((-freqs[skip:][::-1], freqs)),
            np.concatenate((values[skip:][::-1].conj(), values)))


def zero() -> TrigPoly:
    return TrigPoly.from_half([], [])


def constant(value: float) -> TrigPoly:
    return TrigPoly.from_half([0], [float(value)])


def dirichlet(n: int) -> TrigPoly:
    """Kernel with coefficient 1 on every frequency |k| <= n."""
    if n < 1:
        raise ValueError(f"dirichlet kernel needs n >= 1, got {n}")
    return TrigPoly.from_half(np.arange(n + 1), np.ones(n + 1))


def fejer(n: int) -> TrigPoly:
    """Kernel with triangular coefficients 1 - |k|/n for |k| < n.

    Non-negative on the circle with maximum value n at t = 0.
    """
    if n < 1:
        raise ValueError(f"fejer kernel needs n >= 1, got {n}")
    return TrigPoly.from_half(np.arange(n), 1.0 - np.arange(n) / n)


def evaluate(f: TrigPoly, t: float) -> complex:
    """Direct summation of sum_m c_m exp(2*pi*i*m*t); m*t mod 1 is exact."""
    p, q = float(t).as_integer_ratio()
    phase = (f.freqs.astype(object) * p % q / q).astype(float)
    terms = f.values * np.exp(2j * np.pi * phase)  # c_0 + 2*Re(terms at m > 0)
    return complex((terms.real * np.where(f.freqs > 0, 2, 1)).sum())


def sample_values(f: TrigPoly, grid: int) -> np.ndarray:
    """Real values of ``f`` at the ``grid`` uniform points g/grid, g = 0..grid-1.

    Frequencies are folded mod ``grid`` first, which is exact at these
    points (exp(2*pi*i*m*g/grid) depends on m only through m mod grid).
    The half is folded onto k <= grid/2 (c_m at k = m mod grid, or
    conj(c_m) at grid - k), where k == -k holds twice the real part of its
    fold, c_0 counted once; the values are grid * irfft of that fold.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    at = f.freqs % grid
    upper = at > grid // 2
    at = np.minimum(at, grid - at)
    fold = np.empty(grid // 2 + 1, dtype=complex)
    fold.real = np.bincount(at, f.values.real, fold.size)
    fold.imag = np.bincount(at, np.where(upper, -f.values.imag, f.values.imag), fold.size)
    del at, upper  # nothing term-sized beside the irfft, which sets the peak
    own = [0, grid // 2] if grid % 2 == 0 else [0]  # k == -k: fold + conj(fold)
    fold[own] = 2 * fold[own].real
    fold[0] -= f.values[0].real if f.freqs.size and f.freqs[0] == 0 else 0.0  # c_0 once
    values = np.fft.irfft(fold, grid)
    values *= grid
    return values


def grid_min(f: TrigPoly, grid: int) -> float:
    """Minimum of f over the uniform grid (an oracle, not a proof of positivity)."""
    return float(sample_values(f, grid).min())


def positivity_grid(degree: int) -> int:
    """Grid size on which the oracle rows sample a degree-d polynomial's minimum."""
    return max(1024, 8 * degree)


def add(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    return TrigPoly.from_half(np.concatenate([f.freqs, g.freqs]), np.concatenate([f.values, g.values]))


def scale(f: TrigPoly, a: float) -> TrigPoly:
    return TrigPoly.from_half(f.freqs, float(a) * f.values)


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product; coefficients convolve over frequencies.

    Only the sums at m >= 0 are formed, into preallocated arrays in the
    order of the full product: f's rows (both signs) within degree(g)
    masked, then its rows above whole.  c_0 is its sum's real part.
    """
    _fits_int64(f.degree + g.degree)
    gf, gv = _mirrored(g)
    k = np.searchsorted(f.freqs, g.degree, side="right")  # rows reaching m <= 0
    rows, row_values = _mirrored(f, k)
    sums = np.add.outer(rows, gf)
    kept = sums >= 0
    straddle, shape = np.count_nonzero(kept), (f.freqs.size - k, gf.size)
    freqs, values = (np.empty(straddle + shape[0] * shape[1], dtype) for dtype in (np.int64, complex))
    freqs[:straddle] = sums[kept]
    values[:straddle] = np.multiply.outer(row_values, gv)[kept]
    values[:straddle].imag[freqs[:straddle] == 0] = 0.0
    np.add.outer(f.freqs[k:], gf, out=freqs[straddle:].reshape(shape))
    np.multiply.outer(f.values[k:], gv, out=values[straddle:].reshape(shape))
    return TrigPoly.from_half(freqs, values)


def convolve(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Function convolution over the circle; coefficients multiply."""
    common, i, j = np.intersect1d(f.freqs, g.freqs, assume_unique=True, return_indices=True)
    return TrigPoly.from_half(common, f.values[i] * g.values[j])


def dilate(f: TrigPoly, a: int) -> TrigPoly:
    """Frequency dilation: the polynomial t -> f(a*t).

    Coefficient at a*m equals coeff(m); every non-multiple of a gets 0.
    """
    if a < 1:
        raise ValueError(f"dilation factor must be >= 1, got {a}")
    _fits_int64(a * f.degree)
    return TrigPoly.from_half(a * f.freqs, f.values)


@dataclass(frozen=True, eq=False)
class ConvexProfile:
    """Values f(0), ..., f(ell), a read-only float64 copy, of a finite,
    non-negative, non-increasing, convex function with f(ell) = 0, checked
    with absolute tolerance COEFF_TOL (equality accepted): the certificate,
    by Polya's criterion, that convex_poly is non-negative."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not vals.size:
            raise ProfileError("profile must contain at least f(0)")
        bad = np.flatnonzero(~np.isfinite(vals))  # first: the tests below compare finite values
        if bad.size:
            raise ProfileError(f"profile not finite at index {bad[0]}: f({bad[0]}) = {vals[bad[0]]}")
        tests = [  # (failing entries, index of entry 0, message at index i)
            (vals < -COEFF_TOL, 0, lambda i: f"negative at index {i}: f({i}) = {vals[i]}"),
            (np.abs(vals[-1:]) > COEFF_TOL, vals.size - 1,
             lambda i: f"must vanish at its last index {i}: got {vals[i]}"),
            (vals[1:] > vals[:-1] + COEFF_TOL, 0, lambda i: f"not non-increasing at index {i}: "
             f"f({i}) = {vals[i]} < f({i + 1}) = {vals[i + 1]}"),
            (2.0 * vals[1:-1] > vals[:-2] + vals[2:] + COEFF_TOL, 1,
             lambda i: f"not convex at index {i}: 2*f({i}) > f({i - 1}) + f({i + 1})"),
        ]
        for failing, first, message in tests:
            if failing.any():
                raise ProfileError("profile " + message(first + int(np.argmax(failing))))

    @property
    def cutoff(self) -> int:
        return self.values.size - 1


def convex_poly(profile: ConvexProfile) -> TrigPoly:
    """Polynomial with coefficient f(|m|) from a convex profile with cutoff L.

    Non-negative by Polya's criterion, so no grid is evaluated: with f = 0
    beyond L it is sum_{n=1}^{L+1} n*(f(n-1) - 2*f(n) + f(n+1))*F_n, and
    0 <= F_n <= n.  A profile that passed its check has every second
    difference >= -3*COEFF_TOL, so p >= -3*COEFF_TOL * sum_{n <= L+1} n^2.
    """
    return TrigPoly.from_half(np.arange(profile.cutoff + 1), profile.values)


def domination_kernel(big_r: int, big_l: int) -> TrigPoly:
    """The kernel 2*F_{2RL} - F_{RL}; its coefficients equal 1 on |m| <= RL."""
    if big_r < 1 or big_l < 1:
        raise ValueError("domination kernel needs R, L >= 1")
    rl = big_r * big_l
    return add(scale(fejer(2 * rl), 2.0), scale(fejer(rl), -1.0))


def sample_mean(f: TrigPoly, n: int) -> complex:
    """Average of f over the n-th roots of unity.

    For degree(f) < n this equals coeff(0) exactly (aliasing-free), which
    is why the degree precondition is enforced.
    """
    if f.degree >= n:
        raise ValueError(f"sampling order {n} must exceed degree {f.degree}")
    return complex(sample_values(f, n).mean())


def _random_real_poly(rng, degree: int) -> TrigPoly:
    """Real polynomial of the given degree with standard normal coefficients."""
    z = rng.normal(size=2 * degree + 1)
    return TrigPoly.from_half(np.arange(degree + 1), np.concatenate((z[:1], z[1::2] + 1j * z[2::2])))


def kernel_residuals(grid: int, nmax: int, rng) -> dict:
    """Worst deviations from the kernel identities.  On the grid (size above
    2*nmax^2), for n, m <= nmax: F_n(t)*F_m(n*t) = F_nm(t) and 0 <= F_n <= n.
    Over 20 random trials each: multiply against pointwise products; the
    domination kernel's unit coefficients on |m| <= RL, its fixpoint
    f conv K = f for f = |g|^2 and the grid minimum of 4R*(f conv F_L) - f;
    convex-profile grid minima; the sampling identity mean = coeff(0).
    The Fejer table, a grid per distinct n*m, passes the atom budget first."""
    # imported at call time: measures imports this module, so a top-level import would be circular
    from .measures import atom_budget, require_budget

    if nmax < 1:
        raise ValueError(f"kernel identities need nmax >= 1, got {nmax}")
    if grid <= 2 * nmax * nmax:
        raise ValueError(f"kernel identities need grid > 2*nmax^2 = {2 * nmax * nmax}, got {grid}")
    orders = range(1, nmax + 1)
    # the n*1 alone are nmax distinct orders, so the table is counted only when nmax grids fit
    table = {n * m for n in orders for m in orders} if nmax * grid <= atom_budget() else orders
    require_budget(len(table) * grid, f"Fejer table of at least {len(table)} kernels on grid {grid}")
    fej = {k: sample_values(fejer(k), grid) for k in table}

    def pointwise():
        f = _random_real_poly(rng, int(rng.integers(0, 6)))
        g = _random_real_poly(rng, int(rng.integers(0, 6)))
        prod = multiply(f, g)
        return max(abs(evaluate(prod, t) - evaluate(f, t) * evaluate(g, t)) for t in rng.random(5))

    def domination():
        big_r, big_l = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        rl = big_r * big_l
        kernel = domination_kernel(big_r, big_l)
        g = _random_real_poly(rng, rl // 2)  # |g|^2 then has degree <= RL
        f = multiply(g, g)  # |g|^2, as g is real
        dominated = add(scale(convolve(f, fejer(big_l)), 4.0 * big_r), scale(f, -1.0))
        return (float(modulus(kernel.coeff(np.arange(-rl, rl + 1)) - 1.0).max()),
                float(modulus(convolve(f, kernel).coeff(f.freqs) - f.values).max(initial=0.0)),
                grid_min(dominated, max(grid, 1024)))

    def convex():  # partial sums of sorted drops make a convex profile
        drops = np.sort(rng.random(int(rng.integers(1, 17))))
        poly = convex_poly(ConvexProfile(tuple(np.cumsum(drops)[::-1]) + (0.0,)))
        return grid_min(poly, positivity_grid(poly.degree))

    def sampling():
        degree = int(rng.integers(0, 8))
        poly = _random_real_poly(rng, degree)
        return abs(sample_mean(poly, degree + 1 + int(rng.integers(1, 4))) - poly.coeff(0))

    products = [pointwise() for _ in range(20)]  # the draws keep this order
    units, fixpoints, dominated = zip(*[domination() for _ in range(20)])
    profiles = [convex() for _ in range(20)]
    means = [sampling() for _ in range(20)]
    return {
        "fejer_product_identity": max(
            float(np.abs(fej[n] * fej[m][dilated] - fej[n * m]).max())
            for n in orders for dilated in [n * np.arange(grid) % grid] for m in orders  # n*t once per n
        ),
        "fejer_lower_bound": min(float(fej[n].min()) for n in orders),
        "fejer_upper_bound": max(float((fej[n] - n).max()) for n in orders),
        "multiply_pointwise": max(products),
        "domination_kernel_coeffs": max(units),
        "domination_fixpoint": max(fixpoints),
        "domination_lower_bound": min(dominated),
        "convex_profile_positivity": min(profiles),
        "sampling_identity": max(means),
    }


def kernel_checks(res: dict) -> list:
    """The acceptance table of kernel_residuals: identities and the Fejer upper
    bound at most their tolerance, lower bounds and minima at least minus it."""
    rows = [
        ("fejer_product_identity", "at_most", EVAL_TOL),
        ("fejer_lower_bound", "at_least", COEFF_TOL),
        ("fejer_upper_bound", "at_most", COEFF_TOL),
        ("multiply_pointwise", "at_most", EVAL_TOL),
        ("domination_kernel_coeffs", "at_most", COEFF_TOL),
        ("domination_fixpoint", "at_most", COEFF_TOL),
        ("domination_lower_bound", "at_least", EVAL_TOL),
        ("convex_profile_positivity", "at_least", EVAL_TOL),
        ("sampling_identity", "at_most", EVAL_TOL),
    ]
    return [row(name, res[name], relation, tolerance=tol) for name, relation, tol in rows]
