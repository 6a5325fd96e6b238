"""Independent certifiers for the two defining finite-scale properties.

Recurrence side: a set R is certified epsilon-recurrent at horizon n when
every subset of {0..n-1} larger than epsilon*n contains a pair differing
by an element of R; equivalently the maximum R-difference-avoiding subset
has size alpha <= epsilon*n.  alpha is computed exactly by a Russian-doll
search over the prefixes of the difference graph (Verfaillie, Lemaitre and
Schiex; Ostergard): a prefix extends the last witness when it can, and
otherwise searches with the greedy-clique colour bound of Tomita and Seki's
MCQ/MCS, once per node, and the reflection x -> k-1-x broken at the root.
The witness is some maximum set, not a fixed one.

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

from .measures import AtomicMeasure, require_budget
from .reports import require, row
from .simplex import LpDegenerateError, LpInfeasibleError, solve_lp
from .trigpoly import COEFF_TOL, EVAL_TOL, TrigPoly, modulus, sample_values

MAX_EXACT_HORIZON = 80


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

    def to_json(self) -> str:
        return json.dumps(
            {
                "R": list(self.r_set),
                "epsilon": self.epsilon,
                "n": self.n,
                "alpha": self.alpha,
                "witness": list(self.witness),
                "certified": self.certified,
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
    # LP dual: constant term y_0, then the cosine coefficient y_r for each r
    dual: np.ndarray
    # solve_lp's diagnostics (rows, crossover steps, phase-2 pivots, basis
    # condition); not part of the witness, so neither compared nor in to_json
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def residual(self) -> float:
        """Worst |measure_hat(r)| over r_set, straight from the weights."""
        values = self.measure.fourier(_residues(self.r_set, self.order))
        return float(modulus(values).max(initial=0.0))

    @cached_property
    def checks(self) -> list:
        """The acceptance table, from reverify_witness: a unit-mass measure
        (non-negative by construction) with a vanishing transform, and a
        feasible dual whose bound meets the atom.  Weak duality then bounds
        the atom of every feasible measure by atom + 2*tol.  Computed once
        per witness; dataclasses.replace builds a new witness, which
        computes its own."""
        res, tol = reverify_witness(self), EVAL_TOL  # residuals and dual slacks are evaluations
        return [
            row("witness_mass", res["mass_error"], "at_most", tolerance=COEFF_TOL),
            row("witness_residual", res["residual"], "at_most", tolerance=tol),
            row("dual_bound", res["dual_bound"], "at_least", self.atom, tol),
            row("dual_min_slack", res["dual_min_slack"], "at_least", tolerance=tol),
            row("duality_gap", res["duality_gap"], "within", tolerance=tol),
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


def _uncovered(candidates: int, adjacency: list, cliques: int) -> int:
    """The candidates outside `cliques` greedy cliques, each grown from the
    lowest remaining one: any larger independent set holds one of them."""
    remaining = candidates
    while remaining and cliques:
        cliques -= 1
        low = remaining & -remaining
        remaining ^= low
        clique_compat = adjacency[low.bit_length() - 1]
        scan = remaining & clique_compat
        while scan:
            low = scan & -scan
            remaining ^= low
            clique_compat &= adjacency[low.bit_length() - 1]
            scan = remaining & clique_compat
    return remaining


def _bounded(candidates: int, need: int, alpha: list) -> bool:
    """Whether candidates may hold need more vertices, by popcount, by alpha
    of the interval [lo, hi] they span and, as the chosen hold 0, of [0, hi]."""
    hi = candidates.bit_length() - 1
    lo = (candidates & -candidates).bit_length() - 1
    return candidates.bit_count() >= need and alpha[hi - lo + 1] >= need and alpha[hi + 1] > need


def _extend(candidates: int, chosen: int, need: int, alpha: list, adjacency: list):
    """Mask of chosen plus need pairwise non-adjacent candidates, or None.
    Each solution takes a candidate outside need - 1 greedy cliques grown once
    per node; only those are branched on, highest first, taken then dropped."""
    if not need:
        return chosen
    branch = _uncovered(candidates, adjacency, need - 1)
    while branch and _bounded(candidates, need, alpha):
        v = branch.bit_length() - 1
        branch ^= 1 << v
        candidates ^= 1 << v
        found = _extend(candidates & ~adjacency[v], chosen | 1 << v, need - 1, alpha, adjacency)
        if found is not None:
            return found
    return None


def _extend_pair(k: int, need: int, alpha: list, adjacency: list):
    """Mask of an avoiding set of need + 2 vertices holding 0 and k-1, or None.
    The root branches on the second-highest member s from the top down, and
    x -> k-1-x maps a set whose second-lowest member t < k-1-s to one with
    the higher, refuted second-highest member k-1-t, so candidates below
    k-1-s are dropped: valid only while s is the top candidate."""
    if adjacency[k - 1] & 1:
        return None
    candidates = ((1 << (k - 1)) - 2) & ~adjacency[k - 1] & ~adjacency[0]
    while candidates:
        s = candidates.bit_length() - 1
        candidates &= -1 << (k - 1 - s)
        if not (candidates >> s & 1 and _bounded(candidates, need, alpha)
                and _uncovered(candidates, adjacency, need - 1)):
            return None
        candidates ^= 1 << s
        found = _extend(candidates & ~adjacency[s], 1 | 1 << s | 1 << (k - 1), need - 1, alpha, adjacency)
        if found is not None:
            return found
    return None


def _normal_form(r_set) -> tuple:
    """R as every certifier reads it, {|r|} ascending: r and -r are one constraint."""
    return tuple(sorted({abs(int(r)) for r in r_set}))


def max_avoiding_set(r_set, n: int):
    """Exact maximum subset of {0..n-1} whose pairwise differences avoid
    r_set (r and -r alike), by a Russian-doll search over prefixes of the
    difference graph.

    A shifted copy of an avoiding set still avoids r_set, so every interval
    of length L has the same maximum alpha_L.  alpha_k exceeds alpha_{k-1}
    (by one) when some avoiding set in {0..k-1} has that size; it contains
    both 0 and k-1, or a shift would fit it in {0..k-2}.  The last witness
    plus k-1 is one when k-1 is compatible with it; otherwise a depth-first
    search from the pair decides, pruned by alpha of the intervals its
    candidates span and by greedy cliques grown once per node (the colour
    bound of Tomita and Seki's MCQ/MCS), with the reflection x -> k-1-x
    broken at the root.  Returns (alpha, witness), witness some maximum
    set, sorted.  Horizons above 80 are refused to keep the exactness
    promise honest.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    if n > MAX_EXACT_HORIZON:
        raise ValueError(
            f"horizon {n} exceeds the exact branch-and-bound cap {MAX_EXACT_HORIZON}"
        )
    diffs = [r for r in _normal_form(r_set) if 0 < r < n]
    adjacency = [0] * n
    for r in diffs:
        for v in range(n - r):
            adjacency[v] |= 1 << (v + r)
            adjacency[v + r] |= 1 << v

    alpha = [0, 1] + [0] * (n - 1)
    best_mask = 1
    for k in range(2, n + 1):
        alpha[k] = alpha[k - 1]
        if not adjacency[k - 1] & best_mask:
            found = best_mask | 1 << (k - 1)
        else:
            found = _extend_pair(k, alpha[k - 1] - 1, alpha, adjacency)
        if found is not None:
            alpha[k] += 1
            best_mask = found

    witness = [v for v in range(n) if best_mask >> v & 1]
    return alpha[n], witness


def _check_epsilon(epsilon) -> None:
    if not 0 < epsilon < 1:  # NaN fails the comparison too
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")


def certify_recurrence(r_set, epsilon: float, n: int) -> RecurrenceCertificate:
    _check_epsilon(epsilon)
    alpha, witness = max_avoiding_set(r_set, n)
    return RecurrenceCertificate(
        r_set=_normal_form(r_set),
        epsilon=float(epsilon),
        n=int(n),
        alpha=alpha,
        witness=tuple(witness),
        certified=alpha <= epsilon * n,
    )


def _residues(r_set, order: int) -> np.ndarray:
    """Each r mod N, reduced in Python ints since r may pass int64; the order-N roots see only that."""
    return np.array([r % order for r in r_set], dtype=np.int64)


def max_atom_lp(r_set, order: int) -> VdcFailureWitness:
    """Probability measure on the order-N roots of unity maximising the
    weight at 0 subject to a vanishing transform on r_set.  The transform
    of a real measure at -r is the conjugate of that at r, so r_set is read
    as {|r|}, and so is the witness's r_set.

    The LP is solved over reflection-symmetric measures.  The reflection
    j -> -j of a feasible measure is feasible (real weights: its transform
    is the conjugate) and keeps the atom, so their average is a symmetric
    optimum.  The unknowns are the orbit weights u_h, the mass on
    {h, N - h} for h = 0..N//2, and the rows are the mass and one
    cos(2*pi*r*h/N) per r: 1 + |R| rows on N//2 + 1 columns.  An orbit's
    dual constraint reads mult_h * f(h/N) >= [h = 0] for the even dual
    f = y_0 + sum_r y_r cos(2*pi*r*t), so f(j/N) >= [j = 0] at every root;
    the dual is returned as (y_0, then y_r per r), and u is unfolded to
    weights.

    The solve starts from the uniform measure on the smallest subgroup,
    of order d | N, with no r a multiple of d (its transform is 1 there, 0
    elsewhere), so the crossover has few atoms to drop.  d = N qualifies
    unless some r is a multiple of N, where the transform equals the mass
    1: that raises LpInfeasibleError without a solve.
    An LP over the atom budget raises AtomBudgetError before it allocates.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    r_set = _normal_form(r_set)
    multiples = [r for r in r_set if r % order == 0]
    if multiples:
        raise LpInfeasibleError(
            f"r = {multiples[0]} is a multiple of the order {order}: every "
            f"probability measure has transform 1 there"
        )
    rows, columns = 1 + len(r_set), order // 2 + 1
    entries = rows * columns  # below N only for an empty R, whose gate is then the measure's N atoms
    require_budget(max(entries, order), f"LP of {rows} rows on {columns} orbit columns ({entries} entries)"
                   if entries >= order else f"LP measure of order {order}")
    j = np.arange(order)
    orbit = np.minimum(j, order - j)  # root j lies in the orbit {h, N - h}
    h = np.arange(columns)
    residues = _residues(r_set, order)[:, None]
    matrix = np.vstack((np.ones(h.size), np.cos(2.0 * np.pi * residues * h / order)))
    rhs = np.zeros(matrix.shape[0])
    rhs[0] = 1.0
    costs = np.zeros(h.size)
    costs[0] = 1.0
    d = next(d for d in range(1, order + 1) if order % d == 0 and all(r % d for r in r_set))
    start = np.bincount(orbit[::order // d], minlength=h.size) / d
    result = solve_lp(costs, matrix, rhs, start)
    measure = AtomicMeasure(order, result.x[orbit] / np.bincount(orbit)[orbit])
    return VdcFailureWitness(
        r_set=r_set,
        epsilon=None,
        order=order,
        measure=measure,
        atom=float(measure.weights[0]),
        not_vdc=False,
        dual=result.dual,
        diagnostics=result.diagnostics,
    )


def reverify_witness(witness: VdcFailureWitness) -> dict:
    """Trust anchor outside the solver: non-negativity, unit mass, and the
    vanishing-transform residual recomputed straight from the weights; the
    dual polynomial f = y_0 + sum_r y_r cos(2*pi*r*t), coefficient y_r/2 at
    r and at -r, sampled at the N roots, its least slack
    min_j f(j/N) - [j = 0], its bound f's constant term, and that bound's
    gap to the atom."""
    w = witness.measure.weights
    y = witness.dual
    dual = TrigPoly.from_half(np.append(0, _residues(witness.r_set, witness.order)),
                              np.concatenate((y[:1], y[1:] / 2)))
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
    _check_epsilon(epsilon)
    base = max_atom_lp(r_set, order)
    witness = replace(base, epsilon=float(epsilon), not_vdc=base.atom > epsilon + EVAL_TOL)
    require(witness.checks, WitnessVerificationError, "LP witness re-verification")
    return witness

