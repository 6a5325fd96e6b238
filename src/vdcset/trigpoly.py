"""Trigonometric polynomials with integer frequencies.

A polynomial represents ``t -> sum_m c_m exp(2*pi*i*m*t)`` on the unit
circle.  It is stored as two read-only arrays: the frequencies ``freqs``
(int64, strictly ascending) and their non-zero complex coefficients
``values``.  One reducer brings every result to that form (sort, sum
repeated frequencies, drop exact zeros), and every operation is a numpy
expression on the two arrays.  Coefficients double as Fourier transform
values: for ``f`` stored here, ``f_hat(m) == coeff(m)``.

Everything is double precision.  Identities that hold exactly in real
arithmetic are verified elsewhere with absolute tolerances 1e-12
(coefficient arithmetic) and 1e-9 (evaluation).  No builder evaluates a
positivity grid; grid minima serve only kernel_residuals as oracles.  Grid
values come from one inverse FFT of the coefficients folded mod the grid:
a real (``irfft``) transform of the folded half spectrum for a
``real``-flagged polynomial, a complex one otherwise.
"""

import json
import operator
from dataclasses import dataclass

import numpy as np

from .reports import Check

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
    """Sparse trigonometric polynomial, from a {frequency: coefficient} map
    or (``from_arrays``) the two arrays.  ``real`` flags polynomials with
    coeff(-m) == conj(coeff(m)), i.e. real-valued on the circle."""

    freqs: np.ndarray
    values: np.ndarray
    real: bool = False

    def __init__(self, coeffs: dict, real: bool = False):
        self._reduce(list(coeffs), list(coeffs.values()), real)

    @staticmethod
    def from_arrays(freqs, values, real: bool = False) -> "TrigPoly":
        """The polynomial of the two arrays.  Arrays already in normal form
        are kept without a copy and made read-only, so pass ones you own."""
        poly = object.__new__(TrigPoly)
        poly._reduce(freqs, values, real)
        return poly

    def _reduce(self, freqs, values, real) -> None:
        """The one normal form: frequencies strictly ascending (repeats
        summed in input order, starting from 0), exact zeros dropped."""
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
        if not keep.all():
            freqs, values = freqs[keep], values[keep]
        for name, array in (("freqs", freqs), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "real", real)

    @property
    def coeffs(self) -> dict:
        """The polynomial as a {frequency: coefficient} dict, ascending."""
        return dict(zip(self.freqs.tolist(), self.values.tolist()))

    @property
    def degree(self) -> int:
        return int(np.abs(self.freqs).max(initial=0))

    def coeff(self, m):
        """Coefficient at frequency m (0 if absent); elementwise for an array of m."""
        m = np.asarray(m, dtype=np.int64)
        out = np.zeros(m.shape, dtype=complex)
        if self.freqs.size:
            i = np.minimum(np.searchsorted(self.freqs, m), self.freqs.size - 1)
            hit = self.freqs[i] == m
            out[hit] = self.values[i[hit]]
        return complex(out) if out.ndim == 0 else out

    def to_json(self) -> str:
        rows = ", ".join(f"[{m}, {c.real:.17g}, {c.imag:.17g}]" for m, c in self.coeffs.items())
        return f'{{"real": {"true" if self.real else "false"}, "coeffs": [{rows}]}}'

    @staticmethod
    def from_json(text: str) -> "TrigPoly":
        obj = json.loads(text)
        coeffs = {int(m): complex(re, im) for m, re, im in obj["coeffs"]}
        return TrigPoly(coeffs, real=bool(obj["real"]))


def zero() -> TrigPoly:
    return TrigPoly({}, real=True)


def constant(value) -> TrigPoly:
    c = complex(value)
    return TrigPoly({0: c}, real=(c.imag == 0.0))


def character(m: int, coefficient=1.0) -> TrigPoly:
    """The single-frequency polynomial coefficient * exp(2*pi*i*m*t)."""
    return TrigPoly({int(m): complex(coefficient)}, real=(m == 0))


def dirichlet(n: int) -> TrigPoly:
    """Kernel with coefficient 1 on every frequency |k| <= n."""
    if n < 1:
        raise ValueError(f"dirichlet kernel needs n >= 1, got {n}")
    return TrigPoly.from_arrays(np.arange(-n, n + 1), np.ones(2 * n + 1), real=True)


def fejer(n: int) -> TrigPoly:
    """Kernel with triangular coefficients 1 - |k|/n for |k| < n.

    Non-negative on the circle with maximum value n at t = 0.
    """
    if n < 1:
        raise ValueError(f"fejer kernel needs n >= 1, got {n}")
    k = np.arange(-n + 1, n)
    return TrigPoly.from_arrays(k, 1.0 - np.abs(k) / n, real=True)


def evaluate(f: TrigPoly, t: float) -> complex:
    """Direct summation of sum_m c_m exp(2*pi*i*m*t); m*t mod 1 is exact."""
    p, q = float(t).as_integer_ratio()
    phase = (f.freqs.astype(object) * p % q / q).astype(float)
    return complex((f.values * np.exp(2j * np.pi * phase)).sum())


def sample_values(f: TrigPoly, grid: int) -> np.ndarray:
    """Values of ``f`` at the ``grid`` uniform points g/grid, g = 0..grid-1.

    Frequencies are folded mod ``grid`` first, which is exact at these
    points (exp(2*pi*i*m*g/grid) depends on m only through m mod grid);
    the folded sum is one inverse FFT, grid * ifft(folded).  For a
    ``real``-flagged ``f`` the values are real: Re f, one ``irfft`` of the
    Hermitian part (folded[k] + conj(folded[-k]))/2 on k <= grid/2, folded
    there directly (c_m at k = m mod grid, or conj(c_m) at grid - k).
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    at = f.freqs % grid
    if not f.real:
        folded = np.bincount(at, f.values.real, grid) + 1j * np.bincount(at, f.values.imag, grid)
        return np.fft.ifft(folded) * grid
    upper = at > grid // 2
    at = np.minimum(at, grid - at)
    twice = np.empty(grid // 2 + 1, dtype=complex)  # twice the Hermitian part
    twice.real = np.bincount(at, f.values.real, twice.size)
    twice.imag = np.bincount(at, np.where(upper, -f.values.imag, f.values.imag), twice.size)
    own = [0, grid // 2] if grid % 2 == 0 else [0]  # k == -k: folded + conj(folded)
    twice[own] = 2 * twice[own].real
    values = np.fft.irfft(twice, grid)
    values *= grid / 2
    return values


def grid_min(f: TrigPoly, grid: int) -> float:
    """Minimum of Re f over the uniform grid (an oracle, not a proof of positivity)."""
    return float(sample_values(f, grid).real.min())


def positivity_grid(degree: int) -> int:
    """Grid size on which the oracle rows sample a degree-d polynomial's minimum."""
    return max(1024, 8 * degree)


def add(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    freqs, values = np.concatenate([f.freqs, g.freqs]), np.concatenate([f.values, g.values])
    return TrigPoly.from_arrays(freqs, values, f.real and g.real)


def scale(f: TrigPoly, a) -> TrigPoly:
    a = complex(a)
    return TrigPoly.from_arrays(f.freqs, a * f.values, real=f.real and a.imag == 0.0)


def conjugate_reflect(f: TrigPoly) -> TrigPoly:
    """The polynomial t -> conj(f(t)); coefficients conj(c_{-m}) at m."""
    return TrigPoly.from_arrays(-f.freqs[::-1], np.conj(f.values[::-1]), real=f.real)


def antihermitian_norm(f: TrigPoly) -> float:
    """l1 norm of the anti-Hermitian part (f - conj(f))/2, whose coefficients
    are (c_m - conj(c_-m))/2; it bounds |Im f| on the circle."""
    if np.array_equal(f.freqs, -f.freqs[::-1]):  # c_-m sits at the mirrored index
        skew = np.conj(f.values[::-1])
        np.subtract(f.values, skew, out=skew)  # into the one temporary
    else:
        skew = add(f, scale(conjugate_reflect(f), -1.0)).values
    return float(np.abs(skew).sum()) / 2


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product; coefficients convolve over frequencies."""
    _fits_int64(f.degree + g.degree)
    freqs = np.add.outer(f.freqs, g.freqs).ravel()
    values = np.multiply.outer(f.values, g.values).ravel()
    return TrigPoly.from_arrays(freqs, values, f.real and g.real)


def convolve(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Function convolution over the circle; coefficients multiply."""
    common, i, j = np.intersect1d(f.freqs, g.freqs, assume_unique=True, return_indices=True)
    return TrigPoly.from_arrays(common, f.values[i] * g.values[j], f.real and g.real)


def dilate(f: TrigPoly, a: int) -> TrigPoly:
    """Frequency dilation: the polynomial t -> f(a*t).

    Coefficient at a*m equals coeff(m); every non-multiple of a gets 0.
    """
    if a < 1:
        raise ValueError(f"dilation factor must be >= 1, got {a}")
    _fits_int64(a * f.degree)
    return TrigPoly.from_arrays(a * f.freqs, f.values, real=f.real)


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
    values = profile.values
    freqs = np.arange(-profile.cutoff, profile.cutoff + 1)
    return TrigPoly.from_arrays(freqs, np.concatenate((values[:0:-1], values)), real=True)


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
    c = z[1::2] + 1j * z[2::2]
    values = np.concatenate((np.conj(c[::-1]), z[:1], c))
    return TrigPoly.from_arrays(np.arange(-degree, degree + 1), values, real=True)


def kernel_residuals(grid: int, nmax: int, rng) -> dict:
    """Worst deviations from the kernel identities.  On the grid (size above
    2*nmax^2), for n, m <= nmax: F_n(t)*F_m(n*t) = F_nm(t) and 0 <= F_n <= n.
    Over 20 random trials each: multiply against pointwise products; the
    domination kernel's unit coefficients on |m| <= RL, its fixpoint
    f conv K = f for f = |g|^2 and the grid minimum of 4R*(f conv F_L) - f;
    convex-profile grid minima; the sampling identity mean = coeff(0)."""
    if nmax < 1:
        raise ValueError(f"kernel identities need nmax >= 1, got {nmax}")
    orders = range(1, nmax + 1)
    fej = {k: sample_values(fejer(k), grid).real for k in {n * m for n in orders for m in orders}}

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
        f = multiply(g, conjugate_reflect(g))
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
            float(np.abs(fej[n] * fej[m][n * np.arange(grid) % grid] - fej[n * m]).max())
            for n in orders for m in orders
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
    """The acceptance table of kernel_residuals: identities below their tolerance,
    the Fejer upper bound at most it, lower bounds and minima at least minus it."""
    floor = lambda value, tol: value >= -tol
    rows = [
        ("fejer_product_identity", EVAL_TOL, operator.lt),
        ("fejer_lower_bound", COEFF_TOL, floor),
        ("fejer_upper_bound", COEFF_TOL, operator.le),
        ("multiply_pointwise", EVAL_TOL, operator.lt),
        ("domination_kernel_coeffs", COEFF_TOL, operator.lt),
        ("domination_fixpoint", COEFF_TOL, operator.lt),
        ("domination_lower_bound", EVAL_TOL, floor),
        ("convex_profile_positivity", EVAL_TOL, floor),
        ("sampling_identity", EVAL_TOL, operator.lt),
    ]
    return [Check(name, compare(res[name], tol), res[name], tol) for name, tol, compare in rows]
