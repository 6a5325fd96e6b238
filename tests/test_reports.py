"""The one verdict rule, reports.row, and the modules allowed to bypass it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import vdcset
from vdcset.reports import Check, row

# dyadic, with every edge within a factor 2 of the bound, so the edges, one ulp past them,
# and their distances to the bound are all exact; a relation's edges lie at bound + side*tol
BOUND, TOL = 0.5, 0.125
SIDES = {"at_most": [1], "at_least": [-1], "within": [-1, 1]}


@pytest.mark.parametrize("relation", sorted(SIDES))
def test_row_passes_at_its_edge_and_fails_one_ulp_past(relation):
    assert row("r", BOUND, relation, BOUND, TOL).passed
    for side in SIDES[relation]:
        edge = BOUND + side * TOL
        assert row("r", edge, relation, BOUND, TOL).passed
        assert not row("r", np.nextafter(edge, side * np.inf), relation, BOUND, TOL).passed


def test_within_compares_the_value_with_its_edges():
    # |value - bound| rounds onto tol here: one ulp below bound - tol = 0.25 lies 0.25 + 2^-55
    # below 0.5, a tie that rounds to 0.25, so only a comparison with the edge refuses it
    below = np.nextafter(0.25, -np.inf)
    assert abs(below - 0.5) == 0.25
    assert not row("r", below, "within", 0.5, 0.25).passed
    assert row("r", 0.25, "within", 0.5, 0.25).passed


@pytest.mark.parametrize("relation", sorted(SIDES))
def test_row_without_a_tolerance_is_exact(relation):
    assert row("r", BOUND, relation, BOUND) == Check("r", True, BOUND, None)
    for side in SIDES[relation]:
        assert not row("r", np.nextafter(BOUND, side * np.inf), relation, BOUND).passed


@pytest.mark.parametrize("relation", sorted(SIDES))
def test_row_fails_nan(relation):
    assert not row("r", math.nan, relation, BOUND, TOL).passed
    assert not row("r", math.nan, relation, 0.0, math.inf).passed


def test_row_keeps_value_tolerance_and_detail():
    assert row("r", 0.3, "at_most", BOUND, TOL, "d") == Check("r", True, 0.3, TOL, "d")
    assert row("n", 4, "within", 4) == Check("n", True, 4, None)


def test_only_reports_and_the_cli_build_check_rows():
    # every library table builds its rows through row, so one rule decides each verdict;
    # the CLI's count rows carry their verdicts explicitly
    direct = []
    for path in sorted(Path(vdcset.__file__).parent.glob("*.py")):
        if path.name in ("reports.py", "cli.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "Check" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                direct.append(f"{path.name}:{node.lineno}")
    assert direct == []
