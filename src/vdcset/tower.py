"""Finite towers of dilated non-negative polynomials with frozen spectra.

Each stage j consumes a probability measure beta whose transform vanishes
on the stage's recurrence set and whose atom at 0 exceeds eps_prime, and
produces a positive polynomial b_j with unit mean whose transform equals
beta_hat - eps_prime on the window 0 < |m| <= n_j and vanishes beyond
max_freq.  Stages multiply together after dilation by 2*dilation_j:

    c_j(t) = c_{j-1}(t) * b_j(2 * N_j * t),      c_0 = 1.

The running product's transform then satisfies, at every stage: it
vanishes at frequencies >= the next stage's dilation, it never changes
again below that threshold, it is 1 at frequency 0, and it equals
-eps_prime at 2*N_j*m for every m in the stage's recurrence set.  Stage 1
is treated uniformly (c_1 is the dilated b_1), which is what makes the
fourth guarantee hold at j = 1 as well.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import AtomBudgetError, atom_budget
from .measures import AtomicMeasure
from .reports import Check
from .trigpoly import EVAL_TOL, TrigPoly, add, constant, dilate, modulus, multiply


@dataclass(frozen=True)
class TowerStage:
    """One tower stage: recurrence set inside [1, n], smoothing degree
    max_freq (must exceed n*(n+1)/eps_prime), dilation scale."""

    r_set: tuple
    n: int
    eps_prime: float
    max_freq: int
    dilation: int

    def __post_init__(self):
        object.__setattr__(self, "r_set", tuple(sorted(set(int(r) for r in self.r_set))))

    def validate(self):
        if not 0.0 < self.eps_prime < 0.5:
            raise ValueError(f"eps_prime must lie in (0, 1/2), got {self.eps_prime}")
        if self.r_set and (self.r_set[0] < 1 or self.r_set[-1] > self.n):
            raise ValueError(f"recurrence set {self.r_set} not inside [1, {self.n}]")
        if self.max_freq * self.eps_prime <= self.n * (self.n + 1):
            raise ValueError(
                f"max_freq {self.max_freq} must exceed n*(n+1)/eps_prime = "
                f"{self.n * (self.n + 1) / self.eps_prime}"
            )
        if self.dilation < 1:
            raise ValueError("dilation must be >= 1")


def validate_stages(stages) -> None:
    """Whole-tower growth ledger: stage 1 has dilation == max_freq, later
    stages need dilation > 2*(prev.max_freq + 1)*prev.dilation, and
    eps_prime is shared."""
    for stage in stages:
        stage.validate()
    if not stages:
        return
    eps = stages[0].eps_prime
    for i, stage in enumerate(stages):
        if stage.eps_prime != eps:
            raise ValueError("all stages must share one eps_prime")
        if i == 0:
            if stage.dilation != stage.max_freq:
                raise ValueError(
                    f"stage 1 needs dilation == max_freq, got {stage.dilation} != {stage.max_freq}"
                )
        else:
            prev = stages[i - 1]
            need = 2 * (prev.max_freq + 1) * prev.dilation
            if stage.dilation <= need:
                raise ValueError(
                    f"stage {i + 1} dilation {stage.dilation} must exceed "
                    f"2*(max_freq+1)*dilation of the previous stage = {need}"
                )


def eps_prime_for(eps: float) -> float:
    """Smallest workable eps_prime with eps_prime/(1 + eps_prime) > eps."""
    if not 0.0 < eps < 1.0 / 3.0:
        raise ValueError(f"eps must lie in (0, 1/3), got {eps}")
    candidate = eps / (1.0 - eps) + 1e-9
    if candidate >= 0.5 or candidate / (1.0 + candidate) <= eps:
        raise ValueError(f"eps {eps} needs eps_prime {candidate}, not below the bound 1/2")
    return candidate


def check_beta(stage: TowerStage, beta: AtomicMeasure) -> None:
    if abs(beta.mass() - 1.0) > EVAL_TOL:
        raise ValueError(f"beta mass {beta.mass()} is not 1 within {EVAL_TOL}")
    values = modulus(beta.fourier(np.array(stage.r_set, dtype=np.int64)))
    for r, val in zip(stage.r_set, values):
        if val > EVAL_TOL:
            raise ValueError(f"beta transform at {r} is {val}, not 0 within {EVAL_TOL}")
    if beta.weights[0] <= stage.eps_prime:
        raise ValueError(
            f"beta atom at 0 is {beta.weights[0]}, not above eps_prime {stage.eps_prime}"
        )


def tower_correction(stage: TowerStage, beta: AtomicMeasure) -> TrigPoly:
    """The ripple with coefficients (beta_hat(m) - eps')*|m|/max_freq on
    |m| <= n, eps' = eps_prime: |beta_hat(m) - eps'| <= mass - eps', so its
    sup norm is at most (mass - eps')*n*(n+1)/max_freq < eps'."""
    m = np.arange(-stage.n, stage.n + 1)
    ripple = (beta.fourier(m) - stage.eps_prime) * np.abs(m) / stage.max_freq
    return TrigPoly.from_arrays(m, ripple, real=True)


def tower_block(stage: TowerStage, beta: AtomicMeasure) -> TrigPoly:
    """The stage polynomial b: correction + eps' + Fejer-smoothed
    (beta - eps'*dirac_0), with eps' = eps_prime and M = max_freq.
    coeff(0) is beta's mass, 1 within EVAL_TOL; coeff(m) = beta_hat(m) - eps'
    for 0 < |m| <= n; coeff(m) = 0 for |m| >= M.

    b >= floor = eps' - (mass - eps')*n*(n+1)/M, with no grid: for
    beta_hat(m) = sum_j w_j e(-m*j/N), the smoothed part is
    sum_j w_j F_M(t - j/N) - eps'*F_M(t) + eps' >= eps', as F_M >= 0 and
    w_0 > eps' (check_beta), and tower_correction bounds the rest.
    validate (M*eps' > n*(n+1)) and mass <= 1 + EVAL_TOL give
    floor > eps'*(eps' - EVAL_TOL); a floor <= 0 raises.  The float
    coefficients are off by at most 1.7e-15 in l1 norm, against
    np.longdouble at the stages and betas of tests/test_tower.py (floor 0.1).
    """
    stage.validate()
    check_beta(stage, beta)
    eps, big_m = stage.eps_prime, stage.max_freq
    floor = eps - (beta.mass() - eps) * stage.n * (stage.n + 1) / big_m
    if floor <= 0.0:
        raise ValueError(f"stage polynomial has no positive floor: {floor}")
    m = np.arange(-big_m + 1, big_m)
    smoothed = (1.0 - np.abs(m) / big_m) * (beta.fourier(m) - eps)
    smoothed[big_m - 1] += eps  # the m = 0 entry
    return add(TrigPoly.from_arrays(m, smoothed, real=True), tower_correction(stage, beta))


def tower_extend(c_prev: TrigPoly, block: TrigPoly, dilation: int) -> TrigPoly:
    """Next running product: c_prev(t) * block(2*dilation*t).

    The previous product must have degree < dilation, which is what the
    growth inequality on dilations guarantees; without it the frozen-
    spectrum property fails.
    """
    if c_prev.degree >= dilation:
        raise ValueError(
            f"growth inequality violated: previous product degree {c_prev.degree} "
            f">= dilation {dilation}"
        )
    # block first: the frequencies b + c (b a multiple of 2*dilation, |c| <
    # dilation) then ascend in ravel order and the reducer skips its sort
    return multiply(dilate(block, 2 * dilation), c_prev)


def build_tower(stages, betas) -> list:
    """Run all stages; returns the list of running products c_1, ..., c_J.

    AtomBudgetError before any stage is built when c_J's up to prod_j (2*max_freq_j - 1)
    terms exceed blocks.atom_budget(); a product costs about 25 bytes of peak RSS
    per term (16.0M terms: 0.53 s CPU, 383 MiB on a shared 2-vCPU x86-64 VM)."""
    stages = list(stages)
    betas = list(betas)
    if len(stages) != len(betas):
        raise ValueError("need exactly one beta measure per stage")
    validate_stages(stages)
    terms, budget = math.prod(2 * stage.max_freq - 1 for stage in stages), atom_budget()
    if terms > budget:
        raise AtomBudgetError(f"tower product of {terms} terms exceeds the atom budget {budget}")
    products = []
    current = constant(1.0)
    for stage, beta in zip(stages, betas):
        block = tower_block(stage, beta)
        current = tower_extend(current, block, stage.dilation)
        products.append(current)
    return products


def claim_residuals(stages, products) -> list:
    """Per-stage worst deviations from the four frozen-spectrum guarantees.

    For the last stage the vanishing threshold is the smallest admissible
    next dilation.  Each window |m| < threshold is one slice [lo:hi] of a
    product's freqs, strictly ascending in the TrigPoly normal form.
    """
    out = []
    for i, (stage, c) in enumerate(zip(stages, products)):
        if i + 1 < len(stages):
            threshold = stages[i + 1].dilation
        else:
            threshold = 2 * (stage.max_freq + 1) * stage.dilation + 1
        lo, hi = np.searchsorted(c.freqs, (1 - threshold, threshold))
        tail = float(modulus(np.concatenate((c.values[:lo], c.values[hi:]))).max(initial=0.0))
        if i + 1 < len(products):  # the window is the union of both supports below threshold
            nxt = products[i + 1]
            nlo, nhi = np.searchsorted(nxt.freqs, (1 - threshold, threshold))
            frozen = max(
                float(modulus(c.values[lo:hi] - nxt.coeff(c.freqs[lo:hi])).max(initial=0.0)),
                float(modulus(c.coeff(nxt.freqs[nlo:nhi]) - nxt.values[nlo:nhi]).max(initial=0.0)),
            )
        else:
            frozen = 0.0
        mean_dev = abs(c.coeff(0) - 1.0)
        marked_freqs = 2 * stage.dilation * np.array(stage.r_set, dtype=np.int64)
        marked = float(modulus(c.coeff(marked_freqs) + stage.eps_prime).max(initial=0.0))
        out.append({"stage": i + 1, "vanishing_tail": tail, "frozen_window": frozen,
                    "mean_deviation": mean_dev, "marked_frequency": marked})
    return out


def claim_checks(residuals) -> list:
    """The acceptance table of a tower, from claim_residuals: per stage, each
    guarantee's worst deviation at most EVAL_TOL."""
    named = {"vanishing_tail": "vanishing_tail", "frozen_window": "frozen_window",
             "mean": "mean_deviation", "marked_frequency": "marked_frequency"}
    return [Check(f"stage{res['stage']}_{name}", res[key] <= EVAL_TOL, res[key], EVAL_TOL)
            for res in residuals for name, key in named.items()]
