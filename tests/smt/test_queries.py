"""Union-of-regions and DNF query combination tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.expr import var
from repro.intervals import Box
from repro.smt import (
    Atom,
    IcpConfig,
    Or,
    Subproblem,
    Verdict,
    check_exists,
    check_exists_on_boxes,
    ge,
    le,
)

X, Y = var("x"), var("y")
NAMES = ["x", "y"]


class TestCheckExistsOnBoxes:
    def test_empty_union_unsat(self):
        result = check_exists_on_boxes([], NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_all_unsat(self):
        sub1 = Subproblem([ge(X, 10.0)], Box.from_bounds([0, 0], [1, 1]))
        sub2 = Subproblem([ge(X, 10.0)], Box.from_bounds([2, 2], [3, 3]))
        result = check_exists_on_boxes([sub1, sub2], NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_second_region_sat(self):
        sub1 = Subproblem([ge(X, 2.5)], Box.from_bounds([0, 0], [1, 1]))
        sub2 = Subproblem([ge(X, 2.5)], Box.from_bounds([2, 0], [3, 1]))
        result = check_exists_on_boxes([sub1, sub2], NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness[0] >= 2.5 - 1e-3

    def test_stats_merged_across_regions(self):
        subs = [
            Subproblem([le(X * X + Y * Y, -1.0)], Box.from_bounds([i, 0], [i + 1, 1]))
            for i in range(4)
        ]
        result = check_exists_on_boxes(subs, NAMES)
        assert result.verdict is Verdict.UNSAT
        assert result.stats.boxes_processed >= 4

    def test_unknown_propagates(self):
        from repro.smt import eq

        tight = Subproblem(
            [eq(X - Y, 0.0)], Box.from_bounds([-1, -1], [1, 1])
        )
        config = IcpConfig(delta=1e-12, max_boxes=2)
        result = check_exists_on_boxes([tight], NAMES, config)
        assert result.verdict is Verdict.UNKNOWN


class TestCheckExists:
    def test_single_region_single_atom(self):
        box = Box.from_bounds([-1, -1], [1, 1])
        result = check_exists(ge(X, 0.5), box, NAMES)
        assert result.verdict is Verdict.DELTA_SAT

    def test_disjunction_case_split(self):
        box = Box.from_bounds([-1, -1], [1, 1])
        formula = Or([Atom(ge(X, 0.9)), Atom(le(X, -0.9))])
        result = check_exists(formula, box, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert abs(result.witness[0]) >= 0.9 - 1e-3

    def test_disjunction_all_unsat(self):
        box = Box.from_bounds([-0.5, -0.5], [0.5, 0.5])
        formula = Or([Atom(ge(X, 0.9)), Atom(le(X, -0.9))])
        result = check_exists(formula, box, NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_multiple_regions(self):
        regions = [
            Box.from_bounds([-1, -1], [0, 0]),
            Box.from_bounds([0, 0], [1, 1]),
        ]
        result = check_exists(ge(X + Y, 1.8), regions, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness is not None
        assert result.witness[0] + result.witness[1] >= 1.8 - 1e-2
