"""Non-negative atomic measures on the N-th roots of unity.

Weight j sits at the point j/N of the circle; the Fourier transform
``fourier(k) = sum_j w_j exp(-2*pi*i*k*j/N)`` is N-periodic, and the weights
are real, so fourier(-k) = conj(fourier(k)): one real FFT (``rfft``) of the
weights, the half spectrum 0 <= k <= N/2, holds all of it.  ``fourier`` is
the one reader of that layout.  Measures are immutable; one takes over a
read-only float64 array that owns its data (its maker froze it to hand it
over) and copies other weights.  ``lifted_product`` multiplies transforms
over the half of a common order, each broadcast from its own period.
"""

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .trigpoly import COEFF_TOL, TrigPoly, sample_values

SAMPLE_REJECT_TOL = 1e-6    # more negative than this signals a bad polynomial
DEFAULT_ATOM_BUDGET = 1 << 25


def atom_budget() -> int:
    """Cap on the atoms (or array entries) one measure, LP, product or
    digit grid may allocate; override with the VDC_ATOM_BUDGET env var.

    A block costs about 40 bytes of peak RSS per atom: build_block of
    (ell, Q, k) = (2, 64, 3), order 2^24, took 1.5-1.6 s CPU and 615 MiB
    max RSS, and (2, 32, 4), order 2^25, 3.3 s and 1355 MiB; build_witness
    of Q = 64, P = 4 (order 2^24) took 3.2-3.5 s and 952 MiB, and the
    largest witness the cap admits, Q = 5792, P = 2 (order 33,547,264),
    27.9 s and 1855 MiB; the largest grid, lemma-pair of Q = 2, P = 25,
    3.2-4.4 s and 1028 MiB, its neighbourhood chain's P + 1 grids setting
    the peak; on a shared 2-vCPU x86-64 VM (numpy 2.4).
    sample_values' order-N irfft of s, beside s's half spectrum, sets a
    block's peak.  The figures depend on the host.  The cap 2^25 is the
    largest power of two whose blocks and witnesses build within 2 GiB of
    address space: numpy's irfft at order 2^26 alone peaks at 2075 MiB, so
    under that limit an order-2^26 block (8192^2) is refused by name.
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
        w = self.weights  # taken over when frozen and owning its data, else copied: its caller may write it
        handed = isinstance(w, np.ndarray) and w.flags.owndata and not w.flags.writeable
        w = np.array(w, dtype=float, copy=None if handed else True)
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
        w.setflags(write=True)  # a handed-over array too: the clip also maps -0.0 to +0.0
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
        the half (stop <= N//2 + 1) is a read-only view of it."""
        if isinstance(k, range):
            if k.step == 1 and 0 <= k.start <= k.stop <= self.spectrum.size:
                return self.spectrum[k.start:k.stop]
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


def lifted_product(measures, order: int) -> np.ndarray:
    """prod_i measures[i].fourier(k) at k = 0..order//2 for orders dividing order, a new array: the
    first factor written once, each later one multiplied in place, in order, broadcast from its period."""
    out = np.empty(order // 2 + 1, complex)
    for i, m in enumerate(measures):
        period = m.fourier(range(min(m.order, out.size)))  # one gathered period, or the half as a view
        rows, rest = divmod(out.size, period.size)  # rows >= 1: a proper divisor is at most order/2
        body = out[:out.size - rest].reshape(rows, -1)
        for part, factor in ((body, period), (out[out.size - rest:], period[:rest])):
            np.multiply(part, factor, out=part) if i else np.copyto(part, factor)
    return out


def convolve(m1: AtomicMeasure, m2: AtomicMeasure) -> AtomicMeasure:
    """Circular convolution after lifting both measures to lcm order: the lifted_product of
    their transforms on k <= common/2, inverted by one ``irfft``, whose float noise around
    zero weights the COEFF_TOL clamp of AtomicMeasure absorbs."""
    common = math.lcm(m1.order, m2.order)
    require_budget(common, f"common order {common}")
    weights = np.fft.irfft(lifted_product((m1, m2), common), common)
    weights.setflags(write=False)  # handed over
    return AtomicMeasure(common, weights)


def cache_point_mass_spectrum(mu: AtomicMeasure, sigma: AtomicMeasure, norm: float) -> None:
    """Cache mu's spectrum as norm*(sigma's + 1), for mu = norm*(sigma + dirac_0), in place of its rfft;
    the two differ by FFT roundoff, within 1e-15 (measured: at most 7.5e-16, at j, Q, P = 3, 146, 1)."""
    mu.__dict__["spectrum"] = half = sigma.spectrum + 1.0
    half *= norm
    half.setflags(write=False)


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
    samples.setflags(write=False)  # handed over
    return AtomicMeasure(order, samples)
