import itertools

import numpy as np
import pytest

from vdcset import simplex as sx


def enumerate_vertices(matrix, rhs):
    """Oracle: every basic feasible point of {Ax = b, x >= 0}."""
    matrix = np.asarray(matrix, dtype=float)
    rank = np.linalg.matrix_rank(matrix)
    n = matrix.shape[1]
    points = []
    for cols in itertools.combinations(range(n), rank):
        sub = matrix[:, cols]
        if np.linalg.matrix_rank(sub) < rank:
            continue
        sol, residual, *_ = np.linalg.lstsq(sub, rhs, rcond=None)
        x = np.zeros(n)
        x[list(cols)] = sol
        if np.abs(matrix @ x - rhs).max() < 1e-9 and x.min() >= -1e-9:
            points.append(np.clip(x, 0.0, None))
    return points


def test_simple_equality_program():
    # max x0 with x0 + x1 = 1, x0 - x1 = 0 -> x = (1/2, 1/2)
    res = sx.solve_lp([1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0.5, 0.5])
    assert res.objective == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(res.x, [0.5, 0.5], atol=1e-12)


def test_matches_vertex_enumeration_on_random_programs():
    rng = np.random.default_rng(0)
    solved = 0
    for _ in range(60):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 1, 7))
        matrix = rng.normal(size=(m, n))
        # force feasibility: rhs generated from a non-negative point
        x0 = rng.random(n)
        rhs = matrix @ x0
        costs = rng.normal(size=n)
        vertices = enumerate_vertices(matrix, rhs)
        if not vertices:
            continue
        best = max(costs @ v for v in vertices)
        try:
            res = sx.solve_lp(costs, matrix, rhs, x0)
        except sx.LpUnboundedError:
            # unboundedness can't be read off the vertex list; skip
            continue
        assert res.objective == pytest.approx(best, abs=1e-7)
        assert res.x.min() >= -1e-12
        assert np.abs(matrix @ res.x - rhs).max() < 1e-9
        # the dual certifies the optimum: A^T y >= c and b.y = c.x
        assert (matrix.T @ res.dual - costs).min() >= -1e-9
        assert rhs @ res.dual == pytest.approx(res.objective, abs=1e-9)
        solved += 1
    assert solved >= 30


def test_start_must_be_feasible():
    matrix, rhs = [[1.0, 1.0, 1.0]], [1.0]
    with pytest.raises(ValueError, match="not feasible"):
        sx.solve_lp([1.0, 0.0, 0.0], matrix, rhs, [0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        sx.solve_lp([1.0, 0.0, 0.0], matrix, rhs, [1.5, -0.5, 0.0])
    with pytest.raises(ValueError, match="non-negative"):
        sx.solve_lp([1.0, 0.0, 0.0], matrix, rhs, [1.0, 0.0])
    res = sx.solve_lp([1.0, 0.0, 0.0], matrix, rhs, [0.2, 0.3, 0.5])
    assert np.allclose(res.x, [1.0, 0.0, 0.0], atol=1e-12, rtol=0)


def test_matches_highs_on_random_programs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for _ in range(40):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(m + 2, 40))
        matrix = rng.normal(size=(m, n))
        x0 = rng.random(n)
        rhs = matrix @ x0
        costs = rng.normal(size=n)
        ref = optimize.linprog(-costs, A_eq=matrix, b_eq=rhs, bounds=(0, None), method="highs")
        if ref.status == 3:
            with pytest.raises(sx.LpUnboundedError):
                sx.solve_lp(costs, matrix, rhs, x0)
            continue
        assert ref.status == 0
        res = sx.solve_lp(costs, matrix, rhs, x0)
        assert res.objective == pytest.approx(-ref.fun, abs=1e-8)


def test_infeasible_detection():
    with pytest.raises(sx.LpInfeasibleError):
        sx.solve_lp([1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [0.5, 0.5])


def test_unbounded_detection():
    with pytest.raises(sx.LpUnboundedError):
        sx.solve_lp([1.0, 1.0], [[1.0, -1.0]], [0.0], [1.0, 1.0])


def test_redundant_rows_are_harmless():
    res = sx.solve_lp(
        [1.0, 0.0, 0.0],
        [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, -1.0, 0.0]],
        [1.0, 2.0, 0.0],
        [1 / 3] * 3,
    )
    assert res.objective == pytest.approx(0.5, abs=1e-12)


def test_zero_rows_filtered():
    res = sx.solve_lp([1.0, 0.0], [[0.0, 0.0], [1.0, 1.0]], [0.0, 1.0], [0.5, 0.5])
    assert res.objective == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(sx.LpInfeasibleError):
        sx.solve_lp([1.0, 0.0], [[0.0, 0.0], [1.0, 1.0]], [1.0, 1.0], [0.5, 0.5])


def test_degenerate_trig_system_stays_clean():
    # near-parallel trigonometric rows: the historical hard case
    j = np.arange(64)
    rows = [np.ones(64)]
    rhs = [1.0]
    for r in range(24, 41):
        rows.append(np.cos(2 * np.pi * r * j / 64))
        rhs.append(0.0)
        rows.append(np.sin(2 * np.pi * r * j / 64))
        rhs.append(0.0)
    costs = np.zeros(64)
    costs[0] = 1.0
    res = sx.solve_lp(costs, np.array(rows), np.array(rhs), np.full(64, 1 / 64))
    assert res.x.min() >= -1e-12
    assert abs(res.x.sum() - 1.0) < 1e-12
    assert res.objective == pytest.approx((2 + np.sqrt(2)) / 8, abs=1e-9)
    assert res.diagnostics["basis_condition"] < 1e12


@pytest.mark.parametrize("costs, matrix, rhs", [
    pytest.param([1.0, 0.0], [1.0, 1.0], [1.0], id="matrix-one-dimensional"),
    pytest.param([1.0, 0.0], [[1.0, 1.0]], [1.0, 0.0], id="rhs-rows"),
    pytest.param([1.0, 0.0, 0.0], [[1.0, 1.0]], [1.0], id="costs-columns"),
])
def test_inconsistent_dimensions_are_refused(costs, matrix, rhs):
    with pytest.raises(ValueError, match="inconsistent LP dimensions"):
        sx.solve_lp(costs, matrix, rhs, [0.5, 0.5])


@pytest.mark.parametrize("costs, matrix, rhs, start, name", [
    pytest.param([np.nan, 0.0], [[1.0, 1.0]], [1.0], [0.5, 0.5], "costs", id="costs"),
    pytest.param([1.0, 0.0], [[1.0, np.nan]], [1.0], [0.5, 0.5], "matrix", id="matrix"),
    pytest.param([1.0, 0.0], [[1.0, 1.0]], [np.inf], [0.5, 0.5], "rhs", id="rhs"),
    pytest.param([1.0, 0.0], [[1.0, 1.0]], [1.0], [np.nan, 0.5], "start", id="start"),
])
def test_non_finite_data_is_refused(costs, matrix, rhs, start, name):
    with pytest.raises(ValueError, match=f"non-finite LP {name}"):
        sx.solve_lp(costs, matrix, rhs, start)
