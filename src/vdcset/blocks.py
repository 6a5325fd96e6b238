"""Band-engineered block measures and product witnesses.

A block of parameters (ell, Q, k) is a non-negative measure on the
Q^(k+1)-th roots of unity whose transform equals +1 on the low band
[Q^k, ell*Q^k], equals -1 on the shifted band [N/2, N/2 + ell*Q^k]
(N = Q^(k+1)), and whose total mass exceeds 1 by at most 320*ell^3/Q^2.
Convolving blocks for k = 0..P-1 and mixing in a point mass at 0 yields a
probability measure whose transform vanishes on every base-Q digit
pattern, the witness driving both certifiers.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from . import measures, trigpoly
from .measures import AtomicMeasure, convolve, dirac, from_samples, scale_add
from .trigpoly import TrigPoly, add, convolve as poly_convolve, fejer, grid_min, multiply, scale

MASS_CONSTANT = 320.0
DEFAULT_ATOM_BUDGET = 1 << 26


def atom_budget() -> int:
    """Atom cap for builders; override with the VDC_ATOM_BUDGET env var."""
    raw = os.environ.get("VDC_ATOM_BUDGET")
    return int(raw) if raw else DEFAULT_ATOM_BUDGET


class BlockParamsError(ValueError):
    """A block parameter inequality failed; the message names it."""


class BlockBulletError(RuntimeError):
    """A constructed block missed one of its transform guarantees."""


class AtomBudgetError(RuntimeError):
    def __init__(self, message: str, max_feasible_p: int | None = None):
        super().__init__(message)
        self.max_feasible_p = max_feasible_p


@dataclass(frozen=True)
class BlockParams:
    """(ell, Q, k) with the 'Q sufficiently large' inequality ledger."""

    ell: int
    q: int
    k: int
    c: float = MASS_CONSTANT

    def ledger(self) -> list:
        e = self.ell * self.q**self.k
        half = self.q ** (self.k + 1) // 2
        return [
            ("ell >= 1", self.ell >= 1),
            ("k >= 0", self.k >= 0),
            ("Q even", self.q >= 2 and self.q % 2 == 0),
            ("Q > 4*ell", self.q > 4 * self.ell),
            ("Q/2 - 2*ell > ell", self.q > 6 * self.ell),
            ("ell*Q^k < Q^(k+1)/2 - ell*Q^k", 2 * e < half),
            ("-Q^(k+1)/2 + ell*Q^k < -Q^k", e + self.q**self.k < half),
            ("2*ell*Q^k - Q^(k+1)/2 < -ell*Q^k", 3 * e < half),
        ]

    def violations(self) -> list:
        return [name for name, ok in self.ledger() if not ok]

    def validate(self):
        bad = self.violations()
        if bad:
            raise BlockParamsError(
                f"block parameters (ell={self.ell}, Q={self.q}, k={self.k}) violate: "
                + "; ".join(bad)
            )

    @property
    def order(self) -> int:
        return self.q ** (self.k + 1)

    @property
    def mass_bound(self) -> float:
        return 1.0 + self.c * self.ell**3 / self.q**2


def block_polynomials(params: BlockParams):
    """The three real polynomials (p, r, s) behind a block measure.

    p has coefficients 1 - cos(2*pi*(ell*Q^k - |m|)/N) on |m| <= ell*Q^k
    (a convex profile, hence p >= 0); r carries spikes +1 at |m| = ell*Q^k
    and -1/2 at |m| = N/2 -+ ell*Q^k; s = 16*ell*(p conv F_{Q^k}) + r*p is
    non-negative, certified here on a uniform grid.
    """
    params.validate()
    n_total = params.order
    edge = params.ell * params.q**params.k

    p_coeffs = {}
    for m in range(-edge, edge + 1):
        p_coeffs[m] = 1.0 - math.cos(2.0 * math.pi * (edge - abs(m)) / n_total)
    p = TrigPoly(p_coeffs, real=True)

    half = n_total // 2
    r = TrigPoly(
        {
            edge: 1.0,
            -edge: 1.0,
            half - edge: -0.5,
            -(half - edge): -0.5,
            half + edge: -0.5,
            -(half + edge): -0.5,
        },
        real=True,
    )

    smoothed = scale(poly_convolve(p, fejer(params.q**params.k)), 16.0 * params.ell)
    s = add(smoothed, multiply(r, p))
    low = grid_min(s, max(4096, 2 * s.degree + 1))
    if low < -trigpoly.EVAL_TOL:
        raise BlockBulletError(f"block polynomial grid minimum {low} < -{trigpoly.EVAL_TOL}")
    return p, r, s


def block_residuals(sigma: AtomicMeasure, params: BlockParams) -> dict:
    """Worst-case deviations of a block from its four guarantees."""
    e = params.ell * params.q**params.k
    half = params.order // 2
    spectrum = sigma.spectrum
    plus_band = np.abs(spectrum[params.q**params.k : e + 1] - 1.0)
    minus_band = np.abs(spectrum[half : half + e + 1] + 1.0)
    return {
        "mass_excess": sigma.mass() - params.mass_bound,
        "plus_band_residual": float(plus_band.max()),
        "minus_band_residual": float(minus_band.max()),
        "min_weight": float(sigma.weights.min()),
    }


def build_block(params: BlockParams, *, check: bool = True, tol: float = 1e-9) -> AtomicMeasure:
    """Block measure of order Q^(k+1): the point-pair at +-1/N plus the
    sampled polynomial s, with the four transform guarantees verified."""
    params.validate()
    n_total = params.order
    if n_total > atom_budget():
        raise AtomBudgetError(
            f"block order {n_total} exceeds the atom budget {atom_budget()}"
        )
    _, _, s = block_polynomials(params)
    pair = scale_add(0.5, dirac(n_total, 1), 0.5, dirac(n_total, n_total - 1))
    sigma = scale_add(1.0, pair, 1.0, from_samples(s, n_total))
    if check:
        res = block_residuals(sigma, params)
        failures = [
            name
            for name, bad in [
                ("mass_excess", res["mass_excess"] > tol),
                ("plus_band_residual", res["plus_band_residual"] > tol),
                ("minus_band_residual", res["minus_band_residual"] > tol),
                ("min_weight", res["min_weight"] < -measures.WEIGHT_TOL),
            ]
            if bad
        ]
        if failures:
            raise BlockBulletError(
                f"block (ell={params.ell}, Q={params.q}, k={params.k}) failed "
                f"{failures}: residuals {res} (a 'sufficiently large Q' condition is marginal)"
            )
    return sigma


@dataclass(frozen=True)
class WitnessParams:
    """Witness parameters (j, epsilon, Q, P).

    The canonical depth is floor(Q*log(2*j^2)) + 1; any smaller P is a
    desk-scale relaxation.  Digit-pattern vanishing of the witness
    transform holds at every depth; the epsilon bound on the atom at 0 is
    only claimed at the canonical depth.
    """

    j: int
    epsilon: float
    q: int
    p: int

    @property
    def canonical_p(self) -> int:
        return math.floor(self.q * math.log(2.0 * self.j**2)) + 1

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
        entries = [
            ("j >= 1", self.j >= 1),
            ("P >= 1", self.p >= 1),
            ("0 < epsilon < 1/2", 0.0 < self.epsilon < 0.5),
            ("Q/2 + 8*j < Q", 16 * self.j < self.q),
            ("(8*j - 1)/(Q - 1) <= 1", 8 * self.j <= self.q),
        ]
        for k in range(max(self.p, 1)):
            block = BlockParams(self.ell, self.q, k)
            entries += [(f"block k={k}: {name}", ok) for name, ok in block.ledger()]
        return entries

    def validate(self):
        bad = [name for name, ok in self.ledger() if not ok]
        if bad:
            raise BlockParamsError(
                f"witness parameters (j={self.j}, Q={self.q}, P={self.p}) violate: "
                + "; ".join(bad)
            )

    def atom_lower_bound(self) -> float:
        return 1.0 / (1.0 + (1.0 + MASS_CONSTANT * self.ell**3 / self.q**2) ** self.p)


def max_feasible_depth(q: int, budget: int | None = None) -> int:
    budget = atom_budget() if budget is None else budget
    p = 0
    while q ** (p + 1) <= budget:
        p += 1
    return p


def build_witness(params: WitnessParams, *, tol: float = 1e-9):
    """Convolve the depth-P tower of blocks and normalise with a point mass.

    Returns (mu, sigma): sigma is the convolution of the blocks for
    k = 0..P-1 (order Q^P) and mu = (sigma + dirac_0) / (sigma_mass + 1).
    The atom of mu at 0 is at least 1/(1 + (1 + 320*(8j)^3/Q^2)^P).
    """
    params.validate()
    if params.order > atom_budget():
        raise AtomBudgetError(
            f"witness order {params.q}^{params.p} exceeds the atom budget "
            f"{atom_budget()}; maximal feasible P for Q={params.q} is "
            f"{max_feasible_depth(params.q)}",
            max_feasible_p=max_feasible_depth(params.q),
        )
    sigma = build_block(BlockParams(params.ell, params.q, 0), tol=tol)
    for k in range(1, params.p):
        sigma = convolve(sigma, build_block(BlockParams(params.ell, params.q, k), tol=tol))
    total = sigma.mass()
    norm = 1.0 / (total + 1.0)
    mu = scale_add(norm, sigma, norm, dirac(params.order, 0))
    atom = float(mu.weights[0])
    if atom < params.atom_lower_bound() - tol:
        raise BlockBulletError(
            f"witness atom {atom} fell below the guaranteed {params.atom_lower_bound()}"
        )
    return mu, sigma


def digit_pattern_members(j: int, q: int, p: int) -> list:
    """All integers whose base-Q digits are in [1, 8j) except exactly one
    digit in [Q/2, Q/2 + 8j), listed ascending.

    Count is P * 8j * (8j - 1)^(P-1); every member is a zero of the witness
    transform.
    """
    if q % 2 or 16 * j >= q:
        raise ValueError("digit patterns need Q even with Q/2 + 8*j < Q")
    if p < 1 or j < 1:
        raise ValueError("digit patterns need j >= 1 and P >= 1")
    low = range(1, 8 * j)
    high = range(q // 2, q // 2 + 8 * j)
    members = []

    def fill(position, acc, distinguished_used):
        if position == p:
            if distinguished_used:
                members.append(acc)
            return
        scale_q = q**position
        for d in high if not distinguished_used else ():
            fill(position + 1, acc + d * scale_q, True)
        for d in low:
            fill(position + 1, acc + d * scale_q, distinguished_used)

    fill(0, 0, False)
    members.sort()
    return members


def zero_set(mu: AtomicMeasure, bound: int, tol: float = 1e-9) -> set:
    """Frequencies 1 <= r <= bound where the transform of mu vanishes."""
    if bound > mu.order:
        raise ValueError(f"bound {bound} exceeds the measure order {mu.order}")
    freqs = np.arange(1, bound + 1)
    return {int(r) for r in freqs[np.abs(mu.spectrum[freqs % mu.order]) < tol]}
