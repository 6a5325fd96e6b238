"""Dense simplex for small equality-form linear programs, entered by
crossover from a feasible point.

Solves  max c.x  subject to  A x = b,  x >= 0.  The row space of A is
orthonormalised first (SVD), which removes redundant rows exactly and
detects inconsistent systems; the feasible set is unchanged.

The solve starts from the caller's feasible point.  A crossover walks it
to a basic feasible solution without lowering c.x: m+1 support columns
always carry a null vector, and stepping along it (signed so that c.x
does not fall) until one weight reaches 0 drops that column.
Once the support is at most m independent columns (at once, for a start
with that few atoms) it is extended to a full basis, and phase 2
optimises from there.  Bland's smallest-index rule picks the entering
variable and breaks leaving-row ties, so it terminates on degenerate bases.

Each pivot inverts the m x m basis B afresh from the cleaned data (these
programs are tiny), so roundoff never accumulates across pivots.  That one
inverse prices the columns through the dual y = c_B B^-1 and the reduced
costs c - y A, forms the entering column B^-1 a_q (the only column
formed) and the basic values B^-1 b.  The last pivot's dual, mapped back
to the caller's rows, is returned: A^T y >= c and b.y equal to the
optimum certify optimality.  Callers should still re-verify solutions
independently; the diagnostics carry the basis condition number for that
purpose.
"""

from dataclasses import dataclass, field

import numpy as np

PIVOT_TOL = 1e-9
RATIO_TIE_TOL = 1e-9
MAX_ITERATIONS = 20000


class LpInfeasibleError(RuntimeError):
    """No feasible point: the constraint rows are inconsistent."""


class LpUnboundedError(RuntimeError):
    pass


class LpDegenerateError(RuntimeError):
    """The pivot sequence stalled or a basis became numerically singular."""


@dataclass
class LpResult:
    x: np.ndarray
    objective: float
    iterations: int
    dual: np.ndarray
    diagnostics: dict = field(default_factory=dict)


def _rank_tol(shape) -> float:
    """Relative singular-value cut below which columns count as dependent."""
    return max(shape) * np.finfo(float).eps * 10


def _orthonormal_rows(matrix, rhs):
    """Equivalent system (transform @ matrix, transform @ rhs) with
    orthonormal rows; raises on inconsistency."""
    u, singular, vt = np.linalg.svd(matrix, full_matrices=False)
    if singular.size == 0 or singular[0] == 0.0:
        if np.abs(rhs).max(initial=0.0) > PIVOT_TOL:
            raise LpInfeasibleError("zero system with non-zero right-hand side")
        return np.zeros((0, matrix.shape[1])), np.zeros(0), np.zeros((0, matrix.shape[0]))
    rank = int(np.sum(singular > singular[0] * _rank_tol(matrix.shape)))
    dropped = u[:, rank:].T @ rhs
    if dropped.size and np.abs(dropped).max() > PIVOT_TOL:
        raise LpInfeasibleError(
            f"inconsistent constraints: residual {np.abs(dropped).max()} outside the row space"
        )
    transform = u[:, :rank].T / singular[:rank, None]
    return vt[:rank], transform @ rhs, transform


def _run_simplex(matrix, rhs, costs, basis):
    """Bland-rule iterations on (matrix, rhs), one basis inverse per pivot;
    mutates basis, returns (iterations, basic values, dual)."""
    iterations = 0
    while True:
        basis_matrix = matrix[:, basis]
        if iterations > MAX_ITERATIONS:
            cond = float(np.linalg.cond(basis_matrix))
            raise LpDegenerateError(
                f"no convergence within {MAX_ITERATIONS} pivots "
                f"(final basis condition number {cond:g})"
            )
        try:
            inverse = np.linalg.inv(basis_matrix)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(basis_matrix))
            raise LpDegenerateError(
                f"singular working basis {basis} (condition number {cond:g})"
            ) from exc
        basic_values = inverse @ rhs
        dual = costs[basis] @ inverse
        reduced = costs - dual @ matrix
        reduced[basis] = 0.0
        improving = np.flatnonzero(reduced > PIVOT_TOL)
        if not improving.size:
            return iterations, basic_values, dual
        entering = int(improving[0])
        column = inverse @ matrix[:, entering]
        rows = np.flatnonzero(column > PIVOT_TOL)
        if not rows.size:
            raise LpUnboundedError(f"objective unbounded along column {entering}")
        ratios = np.maximum(basic_values[rows], 0.0) / column[rows]
        # Bland's leaving rule among numerically tied minimal ratios
        tied = rows[ratios <= ratios.min() + RATIO_TIE_TOL]
        leaving_row = min(tied, key=lambda i: basis[i])
        basis[leaving_row] = entering
        iterations += 1


def _crossover(matrix, costs, x):
    """Walk the feasible point x >= 0 to a basis without lowering costs.x.

    Keeps a working set of at most m+1 support columns; while it holds m+1
    columns, or at the end is rank deficient, its last right singular
    vector d solves A d = 0 (up to roundoff).  Stepping along d until a
    weight reaches 0 stays feasible and drops that column; the next
    support column then joins.  Returns (basis, steps)."""
    m = matrix.shape[0]
    x = np.maximum(x, 0.0)
    queue = np.flatnonzero(x > 0)
    work, weights, queue = queue[:m + 1], x[queue[:m + 1]], queue[m + 1:]
    steps = 0
    while work.size:
        _, singular, vt = np.linalg.svd(matrix[:, work])
        if work.size <= m and singular[-1] > singular[0] * _rank_tol((m, work.size)):
            break
        d = vt[-1]
        gain = costs[work] @ d
        if gain < 0:
            d, gain = -d, -gain
        if d.min() >= -PIVOT_TOL:
            # a non-negative null direction: unbounded if it gains, else go back
            if gain > PIVOT_TOL:
                raise LpUnboundedError(f"objective unbounded along columns {work.tolist()}")
            d = -d
        falling = np.flatnonzero(d < 0)
        ratios = weights[falling] / -d[falling]
        weights = np.maximum(weights + ratios.min() * d, 0.0)
        weights[falling[ratios.argmin()]] = 0.0
        kept = weights > 0
        room = m + 1 - np.count_nonzero(kept)
        joining, queue = queue[:room], queue[room:]
        work = np.concatenate((work[kept], joining))
        weights = np.concatenate((weights[kept], x[joining]))
        steps += 1
    return _extend_basis(matrix, work.tolist()), steps


def _extend_basis(matrix, columns):
    """Complete independent columns to a basis, greedily adding the column
    with the largest component orthogonal to those chosen so far."""
    rest = matrix.copy()
    basis = []
    for k in range(matrix.shape[0]):
        if k < len(columns):
            j = columns[k]
        else:
            norms = np.einsum("ij,ij->j", rest, rest)
            norms[basis] = -1.0
            j = int(np.argmax(norms))
        v = rest[:, j] / np.linalg.norm(rest[:, j])
        rest -= np.outer(v, v @ rest)
        basis.append(j)
    return basis


def solve_lp(costs, matrix, rhs, start) -> LpResult:
    """Maximise costs.x subject to matrix @ x = rhs, x >= 0.

    Every input must be finite.  ``start`` must be a feasible point:
    non-negative and solving the system to within PIVOT_TOL.
    """
    costs, matrix, rhs, start = (np.asarray(a, dtype=float) for a in (costs, matrix, rhs, start))
    if matrix.ndim != 2 or matrix.shape[0] != rhs.shape[0] or matrix.shape[1] != costs.shape[0]:
        raise ValueError("inconsistent LP dimensions")
    for name, data in (("costs", costs), ("matrix", matrix), ("rhs", rhs), ("start", start)):
        if not np.isfinite(data).all():
            raise ValueError(f"non-finite LP {name}")
    matrix, rhs, transform = _orthonormal_rows(matrix, rhs)
    m, n = matrix.shape
    if m == 0:
        raise LpDegenerateError("empty constraint system after preprocessing")

    if start.shape != (n,) or start.min() < -PIVOT_TOL:
        raise ValueError("start must be a non-negative point with one entry per column")
    gap = float(np.linalg.norm(matrix @ start - rhs))
    if gap > PIVOT_TOL:
        raise ValueError(f"start is not feasible: equality residual {gap} > {PIVOT_TOL}")
    basis, steps = _crossover(matrix, costs, start)
    phase2, basic_values, dual = _run_simplex(matrix, rhs, costs, basis)

    x = np.zeros(n)
    x[basis] = np.maximum(basic_values, 0.0)
    cond = float(np.linalg.cond(matrix[:, basis]))
    residual = float(np.linalg.norm(matrix @ x - rhs))
    if residual > PIVOT_TOL:  # the clamp moved a basic value by more than roundoff
        raise LpDegenerateError(f"final basis misses the constraints: equality residual {residual:g} "
                                f"> {PIVOT_TOL} (basis condition number {cond:g})")
    diag = {"rows": m, "crossover_steps": steps, "phase2_pivots": phase2, "basis_condition": cond}
    return LpResult(
        x=x,
        objective=float(costs @ x),
        iterations=phase2,
        dual=transform.T @ dual,
        diagnostics=diag,
    )
