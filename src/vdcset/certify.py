"""Independent certifiers for the two defining finite-scale properties.

Recurrence side: a set R is certified epsilon-recurrent at horizon n when
every subset of {0..n-1} larger than epsilon*n contains a pair differing
by an element of R; equivalently the maximum R-difference-avoiding subset
has size alpha <= epsilon*n.  alpha is computed exactly by a Russian-doll
search over the prefixes of the difference graph (Verfaillie, Lemaitre and
Schiex; Ostergard), whose witness is some maximum set, not a fixed one.

Failure-of-vdC side: a probability measure on the order-N roots of unity
whose transform vanishes on R and whose atom at 0 exceeds epsilon is a
witness that R is not an epsilon-vdC set.  The best such atom is a linear
program, solved with the dense simplex from a uniform measure and
re-verified independently of the solver.  Averaging a feasible measure with
its reflection j -> -j keeps it feasible and keeps the atom, so the LP is
solved over symmetric measures: orbit weights on {h, N - h} and one cosine
row per r.  Its dual is a real cosine polynomial f with f(j/N) >= [j = 0]
at every root, whose constant term bounds the atom from above (the finite
form of the Kamae-Mendes France / Ruzsa characterisation of vdC sets);
matching the atom proves optimality.
"""

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .measures import AtomicMeasure
from .reports import Check, require
from .simplex import LpDegenerateError, LpInfeasibleError, solve_lp
from .trigpoly import COEFF_TOL, EVAL_TOL, TrigPoly, modulus, sample_values

MAX_EXACT_HORIZON = 80
RESIDUAL_TOL = EVAL_TOL  # transform residuals and dual slacks are evaluations


class WitnessVerificationError(RuntimeError):
    """An LP witness failed its re-verification outside the solver."""


@dataclass(frozen=True)
class RecurrenceCertificate:
    r_set: tuple
    epsilon: float
    n: int
    alpha: int
    witness: tuple
    certified: bool
    # a certificate at n extends to every multiple of n by splitting any
    # dense subset of [k*n] into length-n windows
    extends_to_multiples: bool

    def to_json(self) -> str:
        return json.dumps(
            {
                "R": list(self.r_set),
                "epsilon": self.epsilon,
                "n": self.n,
                "alpha": self.alpha,
                "witness": list(self.witness),
                "certified": self.certified,
                "extends_to_multiples": self.extends_to_multiples,
            }
        )


@dataclass(frozen=True)
class VdcFailureWitness:
    r_set: tuple
    epsilon: float | None
    order: int
    measure: AtomicMeasure
    atom: float
    not_vdc: bool
    # LP dual: constant term, then the (cos, sin) coefficients for each r.
    # The solver's dual is even (every sine coefficient 0); the checks accept
    # any sine part, as a replaced dual (or the lift of one) may carry
    dual: np.ndarray
    # solve_lp's diagnostics (rows, crossover steps, phase-2 pivots, basis
    # condition); not part of the witness, so neither compared nor in to_json
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def residual(self) -> float:
        """Worst |measure_hat(r)| over r_set, straight from the weights."""
        values = self.measure.fourier(np.array(self.r_set, dtype=np.int64))
        return float(modulus(values).max(initial=0.0))

    @cached_property
    def checks(self) -> list:
        """The acceptance table, from reverify_witness: a unit-mass measure
        (non-negative by construction) with a vanishing transform, and a
        feasible dual whose bound meets the atom.  Weak duality then bounds
        the atom of every feasible measure by atom + 2*tol.  Computed once
        per witness; dataclasses.replace builds a new witness, which
        computes its own."""
        res, tol = reverify_witness(self), RESIDUAL_TOL
        return [
            Check("witness_mass", res["mass_error"] <= COEFF_TOL, res["mass_error"], COEFF_TOL),
            Check("witness_residual", res["residual"] < tol, res["residual"], tol),
            Check("dual_bound", res["dual_bound"] >= self.atom - tol, res["dual_bound"], tol),
            Check("dual_min_slack", res["dual_min_slack"] >= -tol, res["dual_min_slack"], tol),
            Check("duality_gap", abs(res["duality_gap"]) <= tol, res["duality_gap"], tol),
        ]

    def to_json(self) -> str:
        return json.dumps(
            {
                "R": list(self.r_set),
                "epsilon": self.epsilon,
                "order": self.order,
                "atom": self.atom,
                "residual": self.residual,
                "weights": [float(w) for w in self.measure.weights],
                "not_vdc": self.not_vdc,
            }
        )


def _clique_cover_bound(candidates: int, adjacency: list, need: int) -> int:
    """Greedy partition of the candidate vertices into cliques, grown from
    the highest vertex down; the number of cliques bounds any independent
    set inside the candidates.  Counting stops once it reaches need."""
    cliques = 0
    remaining = candidates
    while remaining and cliques < need:
        v = remaining.bit_length() - 1
        remaining ^= 1 << v
        cliques += 1
        clique_compat = adjacency[v]
        scan = remaining & clique_compat
        while scan:
            u = scan.bit_length() - 1
            remaining ^= 1 << u
            clique_compat &= adjacency[u]
            scan = remaining & clique_compat
    return cliques


def _extend(candidates: int, chosen: int, need: int, alpha: list, adjacency: list):
    """Mask of chosen plus need pairwise non-adjacent candidates, or None.
    Branches on the highest candidate hi, taken first and then dropped;
    alpha[hi - lo + 1] bounds what candidates within [lo, hi] can add, and
    as chosen holds 0, alpha[hi + 1] bounds them together with 0."""
    if not need:
        return chosen
    while candidates.bit_count() >= need:
        hi = candidates.bit_length() - 1
        lo = (candidates & -candidates).bit_length() - 1
        if (alpha[hi - lo + 1] < need or alpha[hi + 1] <= need
                or _clique_cover_bound(candidates, adjacency, need) < need):
            return None
        bit = 1 << hi
        candidates ^= bit
        found = _extend(candidates & ~adjacency[hi], chosen | bit, need - 1, alpha, adjacency)
        if found is not None:
            return found
    return None


def max_avoiding_set(r_set, n: int):
    """Exact maximum subset of {0..n-1} whose pairwise differences avoid
    r_set, by a Russian-doll search over prefixes of the difference graph.

    A shifted copy of an avoiding set still avoids r_set, so every interval
    of length L has the same maximum alpha_L.  alpha_k exceeds alpha_{k-1}
    (by one) when some avoiding set in {0..k-1} has that size; it contains
    both 0 and k-1, or a shift would fit it in {0..k-2}.  A depth-first
    search from the pair decides this, pruned by alpha of the intervals its
    candidates span and by a greedy clique cover.  Returns (alpha,
    witness), witness some maximum set, sorted.  Horizons above 80 are
    refused to keep the exactness promise honest.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if n > MAX_EXACT_HORIZON:
        raise ValueError(
            f"horizon {n} exceeds the exact branch-and-bound cap {MAX_EXACT_HORIZON}"
        )
    diffs = sorted({int(r) for r in r_set if 0 < int(r) < n})
    adjacency = [0] * n
    for r in diffs:
        for v in range(n - r):
            adjacency[v] |= 1 << (v + r)
            adjacency[v + r] |= 1 << v

    alpha = [0, 1] + [0] * (n - 1)
    best_mask = 1
    for k in range(2, n + 1):
        bit = 1 << (k - 1)
        found = None
        if not adjacency[k - 1] & 1:
            candidates = (bit - 2) & ~adjacency[k - 1] & ~adjacency[0]
            found = _extend(candidates, bit | 1, alpha[k - 1] - 1, alpha, adjacency)
        alpha[k] = alpha[k - 1]
        if found is not None:
            alpha[k] += 1
            best_mask = found

    witness = [v for v in range(n) if best_mask >> v & 1]
    return alpha[n], witness


def certify_recurrence(r_set, epsilon: float, n: int) -> RecurrenceCertificate:
    alpha, witness = max_avoiding_set(r_set, n)
    certified = alpha <= epsilon * n
    return RecurrenceCertificate(
        r_set=tuple(sorted({int(r) for r in r_set})),
        epsilon=float(epsilon),
        n=int(n),
        alpha=alpha,
        witness=tuple(witness),
        certified=certified,
        extends_to_multiples=certified,
    )


def truncate_preserving(r_set, epsilon: float, n: int):
    """R intersect {0..n-1}: differences inside the horizon never exceed
    n-1, so certification survives truncation with identical alpha."""
    cert = certify_recurrence(r_set, epsilon, n)
    if not cert.certified:
        raise ValueError(
            f"cannot truncate an uncertified set: alpha {cert.alpha} > {epsilon * n}"
        )
    return {r for r in cert.r_set if r < n}


def max_atom_lp(r_set, order: int) -> VdcFailureWitness:
    """Probability measure on the order-N roots of unity maximising the
    weight at 0 subject to a vanishing transform on r_set.

    The LP is solved over reflection-symmetric measures.  The reflection
    j -> -j of a feasible measure is feasible (real weights: its transform
    is the conjugate) and keeps the atom, so their average is a symmetric
    optimum.  The unknowns are the orbit weights u_h, the mass on
    {h, N - h} for h = 0..N//2, and the rows are the mass and one
    cos(2*pi*r*h/N) per r: 1 + |R| rows on N//2 + 1 columns.  An orbit's
    dual constraint reads mult_h * f(h/N) >= [h = 0] for the even dual
    f = y_0 + sum_r y_r cos(2*pi*r*t), so f(j/N) >= [j = 0] at every root;
    the dual is returned in the (y_0, then y_c, y_s per r) layout of the
    full problem with every y_s = 0, and u is unfolded to weights.

    The solve starts from the uniform measure on the smallest subgroup,
    of order d | N, with no r a multiple of d (its transform is 1 there, 0
    elsewhere), so the crossover has few atoms to drop.  d = N qualifies
    unless some r is a multiple of N, where the transform equals the mass
    1: that raises LpInfeasibleError without a solve.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    r_set = tuple(sorted({int(r) for r in r_set}))
    multiples = [r for r in r_set if r % order == 0]
    if multiples:
        raise LpInfeasibleError(
            f"r = {multiples[0]} is a multiple of the order {order}: every "
            f"probability measure has transform 1 there"
        )
    j = np.arange(order)
    orbit = np.minimum(j, order - j)  # root j lies in the orbit {h, N - h}
    h = np.arange(order // 2 + 1)
    residues = np.array(r_set, dtype=np.int64)[:, None] % order
    matrix = np.vstack((np.ones(h.size), np.cos(2.0 * np.pi * residues * h / order)))
    rhs = np.zeros(matrix.shape[0])
    rhs[0] = 1.0
    costs = np.zeros(h.size)
    costs[0] = 1.0
    d = next(d for d in range(1, order + 1) if order % d == 0 and all(r % d for r in r_set))
    start = np.bincount(orbit[::order // d], minlength=h.size) / d
    result = solve_lp(costs, matrix, rhs, start)
    measure = AtomicMeasure(order, result.x[orbit] / np.bincount(orbit)[orbit])
    dual = np.zeros(1 + 2 * len(r_set))
    dual[0], dual[1::2] = result.dual[0], result.dual[1:]
    return VdcFailureWitness(
        r_set=r_set,
        epsilon=None,
        order=order,
        measure=measure,
        atom=float(measure.weights[0]),
        not_vdc=False,
        dual=dual,
        diagnostics=result.diagnostics,
    )


def reverify_witness(witness: VdcFailureWitness) -> dict:
    """Trust anchor outside the solver: non-negativity, unit mass, and the
    vanishing-transform residual recomputed straight from the weights; the
    dual polynomial f = y_0 + sum_r (y_c cos + y_s sin)(2*pi*r*t) sampled at
    the N roots, its least slack min_j f(j/N) - [j = 0], its bound f's
    constant term, and that bound's gap to the atom."""
    w = witness.measure.weights
    y = witness.dual
    r = np.array(witness.r_set, dtype=np.int64)
    half = (y[1::2] - 1j * y[2::2]) / 2  # the coefficient at r; conjugated at -r
    dual = TrigPoly.from_arrays(np.concatenate((-r[::-1], [0], r)),
                                np.concatenate((np.conj(half[::-1]), [y[0]], half)), real=True)
    slack = sample_values(dual, witness.order)
    slack[0] -= 1.0
    return {
        "min_weight": float(w.min()),
        "mass_error": abs(witness.measure.mass() - 1.0),
        "residual": witness.residual,
        "dual_bound": float(y[0]),
        "dual_min_slack": float(slack.min()),
        "duality_gap": float(y[0]) - witness.atom,
    }


def certify_not_vdc(r_set, epsilon: float, order: int) -> VdcFailureWitness:
    """LP witness with independent re-verification; the certificate claims
    not-epsilon-vdC exactly when the verified atom clears epsilon.  The
    returned witness carries the table it passed as its checks."""
    base = max_atom_lp(r_set, order)
    witness = replace(base, epsilon=float(epsilon), not_vdc=base.atom > epsilon + RESIDUAL_TOL)
    require(witness.checks, WitnessVerificationError, "LP witness re-verification")
    return witness


def lift_witness(witness: VdcFailureWitness, factor: int) -> VdcFailureWitness:
    """Push the witness onto the factor-fold cover: weights move from
    position j/N to j/(c*N), so the transform at c*r equals the old value
    at r and the atom at 0 is unchanged.  Certifies c*R at order c*N."""
    if factor < 1:
        raise ValueError("factor must be >= 1")
    order = witness.order * factor
    w = np.zeros(order)
    w[np.arange(witness.order)] = witness.measure.weights
    measure = AtomicMeasure(order, w)
    return replace(
        witness,
        r_set=tuple(factor * r for r in witness.r_set),
        order=order,
        measure=measure,
        atom=float(measure.weights[0]),
    )
