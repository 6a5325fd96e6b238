"""Non-negative atomic measures on the N-th roots of unity.

Weight j sits at the point j/N of the circle; the Fourier transform
``fourier(k) = sum_j w_j exp(-2*pi*i*k*j/N)`` is N-periodic, and the weights
are real, so fourier(-k) = conj(fourier(k)): one real FFT (``rfft``) of the
weights, the half spectrum 0 <= k <= N/2, holds all of it.  ``fourier`` is
the one reader of that layout.  Measures are immutable; operations return
new measures.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trigpoly import EVAL_TOL, TrigPoly, antihermitian_norm, sample_values

WEIGHT_TOL = 1e-12          # float noise clamped to zero at construction
SAMPLE_REJECT_TOL = 1e-6    # more negative than this signals a bad polynomial
LCM_ATOM_LIMIT = 1 << 40    # hard cap on common-order lifts


@dataclass(frozen=True, eq=False)
class AtomicMeasure:
    order: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).copy()
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if w.shape != (self.order,):
            raise ValueError(f"expected {self.order} weights, got shape {w.shape}")
        bad = np.flatnonzero(~np.isfinite(w))
        if bad.size:
            raise ValueError(f"weight {bad[0]} is not finite: {w[bad[0]]}")
        low = w.min()
        if low < -WEIGHT_TOL:
            raise ValueError(f"negative weight {low} below clamp scale {-WEIGHT_TOL}")
        np.clip(w, 0.0, None, out=w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    def mass(self) -> float:
        return float(self.weights.sum())

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Read-only half spectrum: spectrum[k] == fourier(k), 0 <= k <= order//2."""
        half = np.fft.rfft(self.weights)
        half.setflags(write=False)
        return half

    def fourier(self, k):
        """Transform at an integer k of any sign (a complex), or elementwise at
        an integer array: the half spectrum at k mod N, or its conjugate at
        N - (k mod N)."""
        k = np.asarray(k)
        r = np.atleast_1d(k) % self.order  # a new array, so the caller's k is never written
        upper = 2 * r > self.order
        values = self.spectrum[np.subtract(self.order, r, out=r, where=upper)]  # folded in place
        np.conjugate(values, out=values, where=upper)
        return complex(values[0]) if k.ndim == 0 else values

    def to_json(self) -> str:
        body = ", ".join(f"{w:.17g}" for w in self.weights)
        return f'{{"order": {self.order}, "weights": [{body}]}}'

    @staticmethod
    def from_json(text: str) -> "AtomicMeasure":
        obj = json.loads(text)
        return AtomicMeasure(int(obj["order"]), np.array(obj["weights"], dtype=float))


def dirac(order: int, position: int) -> AtomicMeasure:
    """Unit mass at the point position/order."""
    w = np.zeros(order)
    w[position % order] = 1.0
    return AtomicMeasure(order, w)


def uniform(order: int) -> AtomicMeasure:
    return AtomicMeasure(order, np.full(order, 1.0 / order))


def _lift(m: AtomicMeasure, order: int) -> np.ndarray:
    step, rem = divmod(order, m.order)
    if rem:
        raise ValueError("lift target must be a multiple of the measure order")
    w = np.zeros(order)
    w[np.arange(m.order) * step] = m.weights
    return w


def _common_order(m1: AtomicMeasure, m2: AtomicMeasure) -> int:
    common = math.lcm(m1.order, m2.order)
    if common > LCM_ATOM_LIMIT:
        raise ValueError(
            f"common order {common} exceeds the {LCM_ATOM_LIMIT} atom limit"
        )
    return common


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Circular convolution after lifting both measures to lcm order.

    Fourier transforms multiply: fourier(out, k) = fourier(m1, k) * fourier(m2, k)
    on k <= common/2, inverted by one ``irfft``.  The inverse leaves float
    noise around zero weights, which the WEIGHT_TOL clamp of AtomicMeasure
    absorbs.
    """
    common = _common_order(m1, m2)
    k = np.arange(common // 2 + 1)
    return AtomicMeasure(common, np.fft.irfft(m1.fourier(k) * m2.fourier(k), common))


def from_samples(poly: TrigPoly, order: int) -> AtomicMeasure:
    """Measure with weight poly(n/order)/order placed at the point -n/order.

    Requires a real-flagged polynomial, conjugate-symmetric up to EVAL_TOL
    in the l1 norm of its anti-Hermitian part (a bound on the imaginary part
    the real samples leave out), whose samples are non-negative up to float
    noise: anything below -1e-6 signals a genuinely non-positive polynomial
    and is rejected; small negatives are clamped to zero.
    """
    if not poly.real:
        raise ValueError("from_samples needs a real-flagged polynomial")
    skew = antihermitian_norm(poly)
    if skew > EVAL_TOL:
        raise ValueError(f"coefficients are not conjugate-symmetric: anti-Hermitian l1 norm {skew}")
    samples = sample_values(poly, order)
    low = float(samples.min())
    if low < -SAMPLE_REJECT_TOL:
        raise ValueError(
            f"sample minimum {low} < -{SAMPLE_REJECT_TOL}: polynomial is not non-negative"
        )
    np.clip(samples, 0.0, None, out=samples)
    w = np.concatenate((samples[:1], samples[:0:-1])) / order  # w[j] = samples[-j mod order]
    return AtomicMeasure(order, w)


def scale_add(a: float, m1: AtomicMeasure, b: float, m2: AtomicMeasure) -> AtomicMeasure:
    """The measure a*m1 + b*m2 on the common (lcm) order."""
    if a < 0 or b < 0:
        raise ValueError("scale_add coefficients must be non-negative")
    common = _common_order(m1, m2)
    return AtomicMeasure(common, a * _lift(m1, common) + b * _lift(m2, common))
