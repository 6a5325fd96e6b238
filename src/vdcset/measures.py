"""Non-negative atomic measures on the N-th roots of unity.

Weight j sits at the point j/N of the circle; the Fourier transform
``fourier(k) = sum_j w_j exp(-2*pi*i*k*j/N)`` is N-periodic, and the weights
are real, so fourier(-k) = conj(fourier(k)): one real FFT (``rfft``) of the
weights, the half spectrum 0 <= k <= N/2, holds all of it.  ``fourier`` is
the one reader of that layout, and reads a range of frequencies with no
index gather: as a view of the half, or from 0 past it as one mirrored
period tiled.  Measures are immutable; operations return new measures.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trigpoly import COEFF_TOL, TrigPoly, sample_values

SAMPLE_REJECT_TOL = 1e-6    # more negative than this signals a bad polynomial
DEFAULT_ATOM_BUDGET = 1 << 26


def atom_budget() -> int:
    """Cap on the atoms (or array entries) one measure, LP or product
    may allocate; override with the VDC_ATOM_BUDGET env var.

    A block costs about 39 bytes of peak RSS per atom: build_block of
    (ell, Q, k) = (2, 64, 3), order 2^24, took 1.7-2.8 s CPU and 619 MiB
    max RSS on a shared 2-vCPU x86-64 VM (numpy 2.4), against 646 MiB
    while the block path made more order-N temporaries; sample_values'
    order-N irfft of s, beside s's half spectrum, sets the peak.  Both
    figures depend on the host.  At that rate the default cap 2^26 admits
    blocks of about 2.4 GiB.
    """
    raw = os.environ.get("VDC_ATOM_BUDGET")
    return int(raw) if raw else DEFAULT_ATOM_BUDGET


class AtomBudgetError(RuntimeError):
    """An allocation over atom_budget(), refused before it is made."""


def require_budget(count: int, what: str) -> None:
    """The one atom-budget gate: AtomBudgetError naming what when count > atom_budget()."""
    budget = atom_budget()
    if count > budget:
        raise AtomBudgetError(f"{what} exceeds the atom budget {budget}")


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
        if not np.isfinite(w).all():
            bad = np.flatnonzero(~np.isfinite(w))[0]
            raise ValueError(f"weight {bad} is not finite: {w[bad]}")
        low = w.min()
        if low < -COEFF_TOL:
            raise ValueError(f"negative weight {low} below clamp scale {-COEFF_TOL}")
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
        """Transform at an integer k of any sign (a complex), or elementwise at an integer array or
        range: spectrum at k mod N, or its conjugate at N - (k mod N).  A step-1 range ending within
        the half (stop <= N//2 + 1) is a read-only view of it, one from 0 past it a mirrored period tiled."""
        if isinstance(k, range):
            if k.step == 1 and 0 <= k.start <= k.stop <= self.spectrum.size:
                return self.spectrum[k.start:k.stop]
            if k.step == 1 and k.start == 0 < k.stop:  # whole periods, then the rest of one
                period = np.concatenate((self.spectrum, self.spectrum[self.order % 2 - 2:0:-1].conj()))
                return np.concatenate((period,) * (k.stop // self.order) + (period[:k.stop % self.order],))
            k = np.arange(k.start, k.stop, k.step)
        k = np.asarray(k)
        r = np.atleast_1d(k) % self.order  # a new array, so the caller's k is never written
        upper = 2 * r > self.order
        values = self.spectrum[np.subtract(self.order, r, out=r, where=upper)]  # folded in place
        np.conjugate(values, out=values, where=upper)
        return complex(values[0]) if k.ndim == 0 else values

    def to_json(self) -> str:
        body = ", ".join(f"{w:.17g}" for w in self.weights)
        return f'{{"order": {self.order}, "weights": [{body}]}}'


def uniform(order: int) -> AtomicMeasure:
    return AtomicMeasure(order, np.full(order, 1.0 / order))


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Circular convolution after lifting both measures to lcm order.

    Fourier transforms multiply: fourier(out, k) = fourier(m1, k) * fourier(m2, k)
    on k <= common/2, inverted by one ``irfft``.  The inverse leaves float
    noise around zero weights, which the COEFF_TOL clamp of AtomicMeasure
    absorbs.
    """
    common = math.lcm(m1.order, m2.order)
    require_budget(common, f"common order {common}")
    k = range(common // 2 + 1)
    return AtomicMeasure(common, np.fft.irfft(m1.fourier(k) * m2.fourier(k), common))


def from_samples(poly: TrigPoly, order: int) -> AtomicMeasure:
    """Measure with weight poly(n/order)/order placed at the point -n/order.

    The samples of the (real) polynomial must be non-negative up to float
    noise: anything below -1e-6 signals a genuinely non-positive polynomial
    and is rejected; small negatives are clamped to zero.
    """
    samples = sample_values(poly, order)
    low = float(samples.min())
    if low < -SAMPLE_REJECT_TOL:
        raise ValueError(
            f"sample minimum {low} < -{SAMPLE_REJECT_TOL}: polynomial is not non-negative"
        )
    np.clip(samples, 0.0, None, out=samples)
    samples[1:], samples[0] = samples[:0:-1] / order, samples[0] / order  # w[j] = samples[-j mod order]
    return AtomicMeasure(order, samples)
