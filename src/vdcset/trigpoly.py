"""Trigonometric polynomials with integer frequencies.

A polynomial is a finitely supported map ``m -> coefficient`` representing
``t -> sum_m c_m exp(2*pi*i*m*t)`` on the unit circle.  Coefficients double
as Fourier transform values: for ``f`` stored here, ``f_hat(m) == coeff(m)``.

Everything is double precision.  Identities that hold exactly in real
arithmetic are verified elsewhere with absolute tolerances 1e-12
(coefficient arithmetic) and 1e-9 (evaluation); positivity of a polynomial
is certified on a uniform grid, which is a heuristic, not a proof.  Grid
values come from one inverse FFT of the coefficients folded mod the grid.
"""

from dataclasses import dataclass

import numpy as np

COEFF_TOL = 1e-12
EVAL_TOL = 1e-9


class ProfileError(ValueError):
    """A convex-profile invariant failed; the message names the index."""


@dataclass(frozen=True, eq=False)
class TrigPoly:
    """Sparse trigonometric polynomial.

    ``coeffs`` maps integer frequency to complex coefficient; exact zeros
    are dropped at construction.  ``real`` flags polynomials satisfying
    coeff(-m) == conj(coeff(m)), i.e. real-valued on the circle.
    """

    coeffs: dict
    real: bool = False

    def __post_init__(self):
        clean = {}
        for m, c in self.coeffs.items():
            c = complex(c)
            if c != 0:
                clean[int(m)] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def degree(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)

    @property
    def support(self) -> tuple:
        return tuple(sorted(self.coeffs))

    def coeff(self, m: int) -> complex:
        return self.coeffs.get(int(m), 0j)

    def to_json(self) -> str:
        rows = ", ".join(
            f"[{m}, {c.real:.17g}, {c.imag:.17g}]" for m, c in sorted(self.coeffs.items())
        )
        return f'{{"real": {"true" if self.real else "false"}, "coeffs": [{rows}]}}'

    @staticmethod
    def from_json(text: str) -> "TrigPoly":
        import json

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
    return TrigPoly({k: 1.0 for k in range(-n, n + 1)}, real=True)


def fejer(n: int) -> TrigPoly:
    """Kernel with triangular coefficients 1 - |k|/n for |k| < n.

    Non-negative on the circle with maximum value n at t = 0.
    """
    if n < 1:
        raise ValueError(f"fejer kernel needs n >= 1, got {n}")
    return TrigPoly({k: 1.0 - abs(k) / n for k in range(-n + 1, n)}, real=True)


def evaluate(f: TrigPoly, t: float) -> complex:
    """Direct summation of sum_m c_m exp(2*pi*i*m*t)."""
    return sum(c * np.exp(2j * np.pi * m * t) for m, c in f.coeffs.items()) + 0j


def sample_values(f: TrigPoly, grid: int) -> np.ndarray:
    """Values of ``f`` at the ``grid`` uniform points g/grid, g = 0..grid-1.

    Frequencies are folded mod ``grid`` first, which is exact at these
    points (exp(2*pi*i*m*g/grid) depends on m only through m mod grid);
    the folded sum is one inverse FFT, grid * ifft(folded).
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    folded = np.zeros(grid, dtype=complex)
    for m, c in f.coeffs.items():
        folded[m % grid] += c
    return np.fft.ifft(folded) * grid


def grid_min(f: TrigPoly, grid: int) -> float:
    """Minimum of Re f over the uniform grid (positivity heuristic)."""
    return float(sample_values(f, grid).real.min())


def positivity_grid(degree: int) -> int:
    """Grid size used to certify non-negativity of a degree-d polynomial."""
    return max(1024, 8 * degree)


def add(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    out = dict(f.coeffs)
    for m, c in g.coeffs.items():
        out[m] = out.get(m, 0j) + c
    return TrigPoly(out, real=f.real and g.real)


def scale(f: TrigPoly, a) -> TrigPoly:
    a = complex(a)
    return TrigPoly({m: a * c for m, c in f.coeffs.items()}, real=f.real and a.imag == 0.0)


def conjugate_reflect(f: TrigPoly) -> TrigPoly:
    """The polynomial t -> conj(f(t)); coefficients conj(c_{-m}) at m."""
    return TrigPoly({-m: c.conjugate() for m, c in f.coeffs.items()}, real=f.real)


def multiply(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Pointwise product; coefficients convolve over frequencies."""
    out = {}
    for m1, c1 in f.coeffs.items():
        for m2, c2 in g.coeffs.items():
            k = m1 + m2
            out[k] = out.get(k, 0j) + c1 * c2
    return TrigPoly(out, real=f.real and g.real)


def convolve(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """Function convolution over the circle; coefficients multiply."""
    out = {m: c * g.coeffs[m] for m, c in f.coeffs.items() if m in g.coeffs}
    return TrigPoly(out, real=f.real and g.real)


def dilate(f: TrigPoly, a: int) -> TrigPoly:
    """Frequency dilation: the polynomial t -> f(a*t).

    Coefficient at a*m equals coeff(m); every non-multiple of a gets 0.
    """
    if a < 1:
        raise ValueError(f"dilation factor must be >= 1, got {a}")
    return TrigPoly({a * m: c for m, c in f.coeffs.items()}, real=f.real)


@dataclass(frozen=True)
class ConvexProfile:
    """Values f(0), ..., f(ell) of a non-negative, non-increasing, convex
    function with f(ell) = 0.  Inequalities are checked with absolute
    tolerance 1e-12; equality is accepted."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise ProfileError("profile must contain at least f(0)")
        for i, v in enumerate(vals):
            if v < -COEFF_TOL:
                raise ProfileError(f"profile negative at index {i}: f({i}) = {v}")
        if abs(vals[-1]) > COEFF_TOL:
            raise ProfileError(
                f"profile must vanish at its last index {len(vals) - 1}: got {vals[-1]}"
            )
        for i in range(len(vals) - 1):
            if vals[i + 1] > vals[i] + COEFF_TOL:
                raise ProfileError(
                    f"profile not non-increasing at index {i}: f({i}) = {vals[i]} < f({i + 1}) = {vals[i + 1]}"
                )
        for i in range(1, len(vals) - 1):
            if 2.0 * vals[i] > vals[i - 1] + vals[i + 1] + COEFF_TOL:
                raise ProfileError(
                    f"profile not convex at index {i}: 2*f({i}) > f({i - 1}) + f({i + 1})"
                )

    @property
    def cutoff(self) -> int:
        return len(self.values) - 1


def convex_poly(profile: ConvexProfile) -> TrigPoly:
    """Polynomial with coefficient f(|m|) from a convex profile.

    Such a polynomial is non-negative on the circle; construction places
    the coefficients and certifies min >= -1e-9 on a uniform grid.
    """
    coeffs = {}
    for m, v in enumerate(profile.values):
        if v != 0.0:
            coeffs[m] = v
            if m:
                coeffs[-m] = v
    poly = TrigPoly(coeffs, real=True)
    low = grid_min(poly, positivity_grid(poly.degree))
    if low < -EVAL_TOL:
        raise ProfileError(f"convex profile produced grid minimum {low} < -{EVAL_TOL}")
    return poly


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
