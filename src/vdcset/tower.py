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
import numbers
from dataclasses import dataclass

import numpy as np

from .certify import LpInfeasibleError, max_atom_lp
from .measures import AtomicMeasure, require_budget
from .reports import row
from .trigpoly import EVAL_TOL, TrigPoly, constant, dilate, modulus, multiply


@dataclass(frozen=True)
class TowerStage:
    """One tower stage, valid by construction: recurrence set inside [1, n],
    smoothing degree max_freq (must exceed n*(n+1)/eps_prime), dilation scale."""

    r_set: tuple
    n: int
    eps_prime: float
    max_freq: int
    dilation: int

    def __post_init__(self):
        members = tuple(self.r_set) if hasattr(self.r_set, "__iter__") else (None,)  # a lone value: no set
        fields = dict(r_set=members, n=[self.n], max_freq=[self.max_freq], dilation=[self.dilation])
        for name, values in fields.items():  # a float, string or bool is refused, never truncated
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in values):
                kind = "a list of integers" if name == "r_set" else "an integer"
                raise ValueError(f"{name} must be {kind}, got {getattr(self, name)!r}")
        if isinstance(self.eps_prime, bool) or not isinstance(self.eps_prime, numbers.Real):
            raise ValueError(f"eps_prime must be a number, got {self.eps_prime!r}")
        object.__setattr__(self, "r_set", tuple(sorted(set(map(int, members)))))
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
    """Whole-tower growth ledger (each stage checks itself): stage 1 has
    dilation == max_freq, later stages need dilation > 2*(prev.max_freq +
    1)*prev.dilation, and eps_prime is shared.  A tower has at least one stage."""
    if not stages:
        raise ValueError("a tower needs at least one stage")
    for i, stage in enumerate(stages):
        if stage.eps_prime != stages[0].eps_prime:
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


def lp_beta(stage: TowerStage) -> AtomicMeasure:
    """A probability measure killing the stage's recurrence set with atom
    above eps_prime, from the LP certifier (smallest workable order)."""
    top = max(stage.r_set) if stage.r_set else 1
    for order in range(top + 1, 4 * top + 5):
        try:
            witness = max_atom_lp(stage.r_set, order)
        except LpInfeasibleError:
            continue
        if witness.atom > stage.eps_prime:
            return witness.measure
    raise ValueError(f"no LP witness with atom above {stage.eps_prime} found for {stage.r_set}")


def tower_block(stage: TowerStage, beta: AtomicMeasure) -> TrigPoly:
    """The stage polynomial b as one half spectrum, from beta_hat on 0 <= m < M
    (eps' = eps_prime, M = max_freq): coeff(m) = beta_hat(m) - eps' on the window
    0 < |m| <= n, (1 - |m|/M)*(beta_hat(m) - eps') on n < |m| < M, 0 for |m| >= M,
    and coeff(0) = (beta_hat(0) - eps') + eps', beta's mass, 1 within EVAL_TOL.

    b >= floor = eps' - (mass - eps')*n*(n+1)/M, with no grid: b is eps' plus the
    Fejer-smoothed (beta - eps'*dirac_0), sum_j w_j F_M(t - j/N) - eps'*F_M(t) >= 0
    as F_M >= 0 and w_0 > eps' (check_beta), plus the ripple (beta_hat(m) - eps')*|m|/M
    on |m| <= n, whose sup norm is at most (mass - eps')*n*(n+1)/M.  TowerStage
    (M*eps' > n*(n+1)) and mass <= 1 + EVAL_TOL give floor > eps'*(eps' - EVAL_TOL);
    a floor <= 0 raises before M is checked against the atom budget.  The floats are
    off by at most 1.6e-15 in l1 norm over both signs, against np.longdouble on 48
    blocks from the stages and betas of tests/test_tower.py (floor 0.1).
    """
    check_beta(stage, beta)
    eps, big_m = stage.eps_prime, stage.max_freq
    floor = eps - (beta.mass() - eps) * stage.n * (stage.n + 1) / big_m
    if floor <= 0.0:
        raise ValueError(f"stage polynomial has no positive floor: {floor}")
    require_budget(big_m, f"stage polynomial of {big_m} terms")
    m = np.arange(big_m)  # m >= 0: from_half mirrors beta_hat(-m) = conj(beta_hat(m))
    half = beta.fourier(m) - eps
    tail = slice(stage.n + 1, None)
    half[tail] = (1.0 - m[tail] / big_m) * half[tail]
    half[0] += eps
    half += 0.0  # a zero part reads +0, as in the Hermitian half (c_m + conj(c_-m))/2
    return TrigPoly.from_half(m, half)


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
    terms exceed measures.atom_budget(); stored as its half, a product costs about 13 bytes
    of peak RSS per term (16.0M terms: 0.09-0.14 s CPU, 192 MiB, shared 2-vCPU x86-64 VM)."""
    stages = list(stages)
    betas = list(betas)
    if len(stages) != len(betas):
        raise ValueError("need exactly one beta measure per stage")
    validate_stages(stages)
    terms = math.prod(2 * stage.max_freq - 1 for stage in stages)
    require_budget(terms, f"tower product of {terms} terms")
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
    next dilation.  Each window |m| < threshold is the prefix [0:hi] of a
    product's half spectrum m >= 0, strictly ascending in the TrigPoly
    normal form.
    """
    out = []
    for i, (stage, c) in enumerate(zip(stages, products)):
        if i + 1 < len(stages):
            threshold = stages[i + 1].dilation
        else:
            threshold = 2 * (stage.max_freq + 1) * stage.dilation + 1
        hi = np.searchsorted(c.freqs, threshold)
        tail = float(modulus(c.values[hi:]).max(initial=0.0))
        if i + 1 < len(products):  # the window is the union of both supports below threshold
            nxt = products[i + 1]
            nhi = np.searchsorted(nxt.freqs, threshold)
            gaps = (c.values[:hi] - nxt.coeff(c.freqs[:hi]), c.coeff(nxt.freqs[:nhi]) - nxt.values[:nhi])
            frozen = max(float(modulus(gap).max(initial=0.0)) for gap in gaps)
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
    return [row(f"stage{res['stage']}_{name}", res[key], "at_most", tolerance=EVAL_TOL)
            for res in residuals for name, key in named.items()]
