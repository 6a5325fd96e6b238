"""Band-engineered block measures and product witnesses.

A block of parameters (ell, Q, k) is a non-negative measure on the
Q^(k+1)-th roots of unity whose transform equals +1 on the low band
[Q^k, ell*Q^k], equals -1 on the shifted band [N/2, N/2 + ell*Q^k]
(N = Q^(k+1)), and whose total mass exceeds 1 by at most 320*ell^3/Q^2.
Convolving blocks for k = 0..P-1 and mixing in a point mass at 0 yields a
probability measure whose transform vanishes on every base-Q digit
pattern, the witness driving both certifiers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import digit_pattern_members, digit_windows  # R is defined in combinatorics
from .measures import (DEFAULT_ATOM_BUDGET, AtomBudgetError, AtomicMeasure,  # budget re-exported
                       atom_budget, convolve, from_samples, require_budget)
from .reports import require, row
from .trigpoly import EVAL_TOL, ConvexProfile, TrigPoly, convex_poly, modulus

MASS_CONSTANT = 320.0


class BlockParamsError(ValueError):
    """A block parameter inequality failed; the message names it."""


class BlockBulletError(RuntimeError):
    """A constructed block missed one of its transform guarantees."""


class _Ledger:
    """The one check of a parameter ledger: each row is (name, holds), and
    construction refuses, naming every failed row after the class's message head."""

    def __post_init__(self):
        bad = [name for name, ok in self.ledger() if not ok]
        if bad:
            raise BlockParamsError(f"{self._head} violate: " + "; ".join(bad))


def _block_rows(ell: int, q: int, k: int) -> list:
    """The 'Q sufficiently large' rows of the block (ell, Q, k); a negative k
    fails 'k >= 0' and is read as 0 by the others, so every row is an integer test."""
    low = q ** max(k, 0)
    e, half = ell * low, low * q // 2
    return [
        ("ell >= 1", ell >= 1),
        ("k >= 0", k >= 0),
        ("Q even", q >= 2 and q % 2 == 0),
        ("Q > 4*ell", q > 4 * ell),
        ("Q/2 - 2*ell > ell", q > 6 * ell),
        ("ell*Q^k < Q^(k+1)/2 - ell*Q^k", 2 * e < half),
        ("-Q^(k+1)/2 + ell*Q^k < -Q^k", e + low < half),
        ("2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k", 3 * e < half),
    ]


@dataclass(frozen=True)
class BlockParams(_Ledger):
    """(ell, Q, k), valid by construction under the 'Q sufficiently large' ledger."""

    ell: int
    q: int
    k: int

    def ledger(self) -> list:
        return _block_rows(self.ell, self.q, self.k)

    @property
    def _head(self) -> str:
        return f"block parameters (ell={self.ell}, Q={self.q}, k={self.k})"

    @property
    def order(self) -> int:
        return self.q ** (self.k + 1)

    @property
    def sample_degree(self) -> int:
        """Degree N/2 + 2*ell*Q^k - 1 of the block polynomial s (p vanishes at +-ell*Q^k)."""
        return self.order // 2 + 2 * self.ell * self.q**self.k - 1

    @property
    def mass_bound(self) -> float:
        return 1.0 + MASS_CONSTANT * self.ell**3 / self.q**2


def block_polynomials(params: BlockParams):
    """The three real polynomials (p, r, s) behind a block measure.

    p has coefficients 1 - cos(2*pi*(ell*Q^k - |m|)/N) on |m| <= ell*Q^k;
    r carries spikes +1 at |m| = ell*Q^k and -1/2 at |m| = N/2 -+ ell*Q^k.
    s = 16*ell*(p conv F_{Q^k}) + r*p = 4*(4*ell*(p conv F_{Q^k}) - p) + (4 + r)*p
    is non-negative by construction, so no grid is evaluated:
    - p >= 0 by Polya's criterion (convex_poly): ConvexProfile checks its
      profile, convex because the ledger row 'ell*Q^k < Q^(k+1)/2 -
      ell*Q^k' (4*ell*Q^k < N) keeps the angle of 1 - cos below pi/2;
    - 4*R*(f conv F_L) >= f for f >= 0 of degree <= R*L (the domination
      rows of verify-kernels), here with R = ell and L = Q^k;
    - |r| <= 4, the sum of its |coefficients|.
    The argument holds for p's float coefficients.  Assembling s in floats
    moves each coefficient by at most 3.1e-16 of itself and s by at most
    6.1e-17 of its l1 norm, measured against extended precision at the
    blocks of the tests.  from_samples' -1e-6 rejection and AtomicMeasure's
    clamp still guard the sampled weights.

    s is even, so it is assembled as one array of its coefficients at
    m >= 0, the half TrigPoly.from_half stores: the Fejer-weighted profile of
    p on m < Q^k, plus p's profile added as a slice at each spike of r at
    m > 0 (the spike at -ell*Q^k reaches only m = 0, where p(ell*Q^k) = 0).
    The sums run in the order of the polynomial products they replace.
    """
    n_total, half = params.order, params.order // 2
    edge, width = params.ell * params.q**params.k, params.q**params.k

    m = np.arange(-edge, edge + 1)
    profile = 1.0 - np.cos(2.0 * np.pi * (edge - np.abs(m)) / n_total)
    p = convex_poly(ConvexProfile(profile[edge:]))
    spikes = np.array([edge, half - edge, half + edge])
    r = TrigPoly.from_half(spikes, [1.0, -0.5, -0.5])

    even = np.zeros(params.sample_degree + 2)  # s at m = 0 .. N/2 + 2*ell*Q^k
    even[:width] = 16.0 * params.ell * (profile[edge : edge + width] * (1.0 - np.arange(width) / width))
    for spike, weight in zip(spikes, (1.0, -0.5, -0.5)):
        even[spike - edge : spike + edge + 1] += weight * profile
    at = np.flatnonzero(even)
    s = TrigPoly.from_half(at, even[at])
    return p, r, s


def block_residuals(sigma: AtomicMeasure, params: BlockParams) -> dict:
    """Worst-case deviations of a block from its four guarantees."""
    e = params.ell * params.q**params.k
    half = params.order // 2
    plus_band = np.abs(sigma.fourier(range(params.q**params.k, e + 1)) - 1.0)
    minus_band = np.abs(sigma.fourier(np.arange(half, half + e + 1)) + 1.0)
    return {
        "mass_excess": sigma.mass() - params.mass_bound,
        "plus_band_residual": float(plus_band.max()),
        "minus_band_residual": float(minus_band.max()),
        "min_weight": float(sigma.weights.min()),
    }


@dataclass(frozen=True, eq=False)
class BlockMeasure(AtomicMeasure):
    """A block measure with its parameters; checks is the table build_block required."""

    params: BlockParams

    @functools.cached_property
    def checks(self) -> list:
        """The acceptance table of a block, from block_residuals (min_weight has
        no row: AtomicMeasure already rejects or clips negative weights)."""
        res = block_residuals(self, self.params)
        return [row(name, res[name], "at_most", tolerance=EVAL_TOL)
                for name in ("mass_excess", "plus_band_residual", "minus_band_residual")]


def build_block(params: BlockParams) -> BlockMeasure:
    """Block measure of order Q^(k+1): the point-pair at +-1/N plus the
    sampled polynomial s, every row of its checks (the guarantees) passed."""
    n_total = params.order
    require_budget(n_total, f"block order {params.q}^{params.k + 1}")  # Q^(k+1) may pass 4300 digits
    weights = from_samples(block_polynomials(params)[2], n_total).weights.copy()
    weights[[1, -1]] += 0.5
    sigma = BlockMeasure(n_total, weights, params)
    del weights  # sigma holds its own copy: one order-N array through the residuals
    require(sigma.checks, BlockBulletError,
            f"block (ell={params.ell}, Q={params.q}, k={params.k}; a "
            f"'sufficiently large Q' condition is marginal)")
    return sigma


@dataclass(frozen=True)
class WitnessParams(_Ledger):
    """Witness parameters (j, epsilon, Q, P), valid by construction.

    The canonical depth is canonical_depth(j, Q) = floor(Q*log(2*j^2)) + 1;
    any smaller P is a desk-scale relaxation.  Digit-pattern vanishing of
    the witness transform holds at every depth; the epsilon bound on the
    atom at 0 is only claimed at the canonical depth.
    """

    j: int
    epsilon: float
    q: int
    p: int

    @property
    def canonical_p(self) -> int:
        return canonical_depth(self.j, self.q)

    @property
    def relaxed(self) -> bool:
        return self.p < self.canonical_p

    @property
    def ell(self) -> int:
        return 8 * self.j

    @property
    def order(self) -> int:
        return self.q**self.p

    def ledger(self) -> list:
        """R's range, as the row digit_windows decides (named by its message
        when it refuses), the witness inequalities, then the block ledger of
        k = 0, which stands for every k < P: for even Q each block
        inequality is homogeneous in Q^k (2*ell*Q^k < Q^(k+1)/2 exactly when
        4*ell < Q), and an odd Q fails 'Q even' at every k."""
        try:
            digit_windows(self.j, self.q, self.p)
            pattern = ("digit_windows(j, Q, P)", True)
        except ValueError as exc:
            pattern = (str(exc), False)
        return [
            pattern,
            ("0 < epsilon < 1/2", 0.0 < self.epsilon < 0.5),
        ] + [(f"block k=0: {name}", ok) for name, ok in _block_rows(self.ell, self.q, 0)]

    @property
    def _head(self) -> str:
        return f"witness parameters (j={self.j}, Q={self.q}, P={self.p})"

    def atom_lower_bound(self) -> float:
        return 1.0 / (1.0 + BlockParams(self.ell, self.q, 0).mass_bound ** self.p)


def canonical_depth(j: int, q: int) -> int:
    return math.floor(q * math.log(2.0 * j**2)) + 1


def max_feasible_depth(q: int) -> int:
    p = 0
    while q ** (p + 1) <= atom_budget():
        p += 1
    return p


def build_witness(params: WitnessParams):
    """Convolve the depth-P tower of blocks and normalise with a point mass.

    Returns (mu, sigma): sigma is the convolution of the blocks for
    k = 0..P-1 (order Q^P) and the WitnessMeasure mu = (sigma + dirac_0) /
    (sigma_mass + 1).  Verified before returning: sigma_hat(y) =
    prod_k block_k_hat(y mod Q^(k+1)) at every frequency, and every row of
    mu.checks: mu_hat vanishes on the digit patterns, mu has unit mass, and
    its atom at 0 is at least 1/(1 + (1 + 320*(8j)^3/Q^2)^P).
    """
    feasible = max_feasible_depth(params.q)
    if params.p > feasible:
        raise AtomBudgetError(
            f"witness order {params.q}^{params.p} exceeds the atom budget "
            f"{atom_budget()}; maximal feasible P for Q={params.q} is {feasible}"
        )
    factors = [build_block(BlockParams(params.ell, params.q, k)) for k in range(params.p)]
    sigma = functools.reduce(convolve, factors)
    k = range(sigma.order // 2 + 1)  # real weights: k > N/2 repeats conjugates
    predicted = np.require(factors[0].fourier(k), requirements="W")  # the tile, or the view copied at P = 1
    for f in factors[1:]:
        predicted *= f.fourier(k)  # in place, in the order of the product
    product = float(np.abs(np.subtract(sigma.fourier(k), predicted, out=predicted)).max())
    require([row("block product identity", product, "at_most", tolerance=EVAL_TOL)],
            BlockBulletError, "witness spectrum")
    norm = 1.0 / (sigma.mass() + 1.0)
    weights = norm * sigma.weights  # a scaled copy; dirac_0 adds one atom
    weights[0] += norm
    mu = WitnessMeasure(params.order, weights, params)
    require(mu.checks, BlockBulletError,
            f"witness (j={params.j}, Q={params.q}, P={params.p})")
    return mu, sigma


def witness_residuals(mu: AtomicMeasure, params: WitnessParams) -> dict:
    """A witness against its guarantees: the digit patterns counted against
    P*8j*(8j-1)^(P-1), the worst |mu_hat| on them, the mass, and the atom
    at 0 beside its guaranteed lower bound."""
    members = np.array(digit_pattern_members(params.j, params.q, params.p))
    zeros = mu.fourier(members)
    return {
        "pattern_count": len(members),
        "expected_pattern_count": params.p * params.ell * (params.ell - 1) ** (params.p - 1),
        "pattern_zeros_residual": float(modulus(zeros).max()),
        "mass": mu.mass(),
        "atom": float(mu.weights[0]),
        "atom_lower_bound": params.atom_lower_bound(),
    }


@dataclass(frozen=True, eq=False)
class WitnessMeasure(AtomicMeasure):
    """A witness measure with its parameters; checks is the table build_witness required."""

    params: WitnessParams

    @functools.cached_property
    def checks(self) -> list:
        """The acceptance table of a witness, from its witness_residuals."""
        res = witness_residuals(self, self.params)
        bound = res["atom_lower_bound"]
        return [
            row("digit_pattern_count", res["pattern_count"], "within", res["expected_pattern_count"]),
            row("pattern_zeros_residual", res["pattern_zeros_residual"], "at_most", tolerance=EVAL_TOL),
            row("mass", res["mass"], "within", 1.0, EVAL_TOL),
            row("atom_lower_bound", res["atom"], "at_least", bound, EVAL_TOL, f"guaranteed {bound:.6g}"),
        ]


def zero_set(mu: AtomicMeasure, bound: int) -> set:
    """Frequencies 1 <= r <= bound where |mu_hat(r)| < EVAL_TOL."""
    if bound > mu.order:
        raise ValueError(f"bound {bound} exceeds the measure order {mu.order}")
    small = np.abs(mu.fourier(range(bound + 1))[1:]) < EVAL_TOL  # small[r - 1] at r = 1..bound
    return set((np.flatnonzero(small) + 1).tolist())
