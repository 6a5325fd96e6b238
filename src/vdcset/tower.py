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

from dataclasses import dataclass

from .measures import AtomicMeasure
from .trigpoly import TrigPoly, constant, dilate, grid_min, multiply, positivity_grid


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
    assert candidate / (1.0 + candidate) > eps and candidate < 0.5
    return candidate


def check_beta(stage: TowerStage, beta: AtomicMeasure, tol: float = 1e-9) -> None:
    if abs(beta.mass() - 1.0) > tol:
        raise ValueError(f"beta mass {beta.mass()} is not 1 within {tol}")
    for r in stage.r_set:
        val = abs(beta.fourier(r))
        if val > tol:
            raise ValueError(f"beta transform at {r} is {val}, not 0 within {tol}")
    if beta.weights[0] <= stage.eps_prime:
        raise ValueError(
            f"beta atom at 0 is {beta.weights[0]}, not above eps_prime {stage.eps_prime}"
        )


def tower_correction(stage: TowerStage, beta: AtomicMeasure) -> TrigPoly:
    """The small ripple polynomial with coefficients
    (beta_hat(m) - eps_prime)*|m|/max_freq on |m| <= n; its sup norm stays
    below eps_prime because max_freq > n*(n+1)/eps_prime."""
    coeffs = {}
    for m in range(-stage.n, stage.n + 1):
        coeffs[m] = (beta.fourier(m) - stage.eps_prime) * abs(m) / stage.max_freq
    return TrigPoly(coeffs, real=True)


def tower_block(stage: TowerStage, beta: AtomicMeasure, *, tol: float = 1e-9) -> TrigPoly:
    """The stage polynomial b: correction + eps_prime + Fejer-smoothed
    (beta - eps_prime*dirac_0).

    Guarantees: coeff(0) = 1; coeff(m) = beta_hat(m) - eps_prime for
    0 < |m| <= n; coeff(m) = 0 for |m| >= max_freq; positive on the circle.
    """
    stage.validate()
    check_beta(stage, beta, tol=tol)
    big_m = stage.max_freq
    coeffs = {}
    for m in range(-big_m + 1, big_m):
        shifted = beta.fourier(m) - stage.eps_prime
        val = (1.0 - abs(m) / big_m) * shifted
        if abs(m) <= stage.n:
            val += shifted * abs(m) / big_m
        if m == 0:
            val += stage.eps_prime
        coeffs[m] = val
    block = TrigPoly(coeffs, real=True)
    assert abs(block.coeff(0) - 1.0) <= 1e-12
    low = grid_min(block, positivity_grid(block.degree))
    if low <= 0.0:
        raise ValueError(f"stage polynomial is not positive: grid minimum {low}")
    return block


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
    return multiply(c_prev, dilate(block, 2 * dilation))


def build_tower(stages, betas, *, tol: float = 1e-9) -> list:
    """Run all stages; returns the list of running products c_1, ..., c_J."""
    stages = list(stages)
    betas = list(betas)
    if len(stages) != len(betas):
        raise ValueError("need exactly one beta measure per stage")
    validate_stages(stages)
    products = []
    current = constant(1.0)
    for stage, beta in zip(stages, betas):
        block = tower_block(stage, beta, tol=tol)
        current = tower_extend(current, block, stage.dilation)
        products.append(current)
    return products


def claim_residuals(stages, products, *, next_dilation: int | None = None) -> list:
    """Per-stage worst deviations from the four frozen-spectrum guarantees.

    For the last stage the vanishing threshold uses ``next_dilation`` when
    given, else the smallest admissible next dilation.
    """
    out = []
    for i, (stage, c) in enumerate(zip(stages, products)):
        if i + 1 < len(stages):
            threshold = stages[i + 1].dilation
        elif next_dilation is not None:
            threshold = next_dilation
        else:
            threshold = 2 * (stage.max_freq + 1) * stage.dilation + 1
        tail = max(
            (abs(c.coeff(m)) for m in c.coeffs if abs(m) >= threshold), default=0.0
        )
        if i + 1 < len(products):
            nxt = products[i + 1]
            freqs = {m for m in c.coeffs if abs(m) < threshold}
            freqs |= {m for m in nxt.coeffs if abs(m) < threshold}
            frozen = max((abs(c.coeff(m) - nxt.coeff(m)) for m in freqs), default=0.0)
        else:
            frozen = 0.0
        mean_dev = abs(c.coeff(0) - 1.0)
        marked = max(
            (
                abs(c.coeff(2 * stage.dilation * m) + stage.eps_prime)
                for m in stage.r_set
            ),
            default=0.0,
        )
        out.append(
            {
                "stage": i + 1,
                "vanishing_tail": tail,
                "frozen_window": frozen,
                "mean_deviation": mean_dev,
                "marked_frequency": marked,
            }
        )
    return out
