"""Batched branch-and-prune vs the scalar solver: verdicts and witnesses.

``IcpSolver`` (the ``native`` reference) contracts every survivor with
HC4; ``BatchedIcpSolver`` prunes by the forward pass and bisects.  The
two run different searches, so single-region queries must agree on the
verdict, and every batched witness must validate.  Take the contraction
out of the scalar solver and the two are the same search: batched
without HC4 equals scalar without HC4 exactly, with the same witnesses
and the same box counts.  ``solve_union`` trades the per-region
traversal for one union frontier; verdicts stay identical and witnesses
must still validate and respect the serial lowest-region-first contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expr import cos, exp, sin, sqrt, sum_expr, tanh, var
from repro.intervals import Box, Interval
from repro.smt import icp as icp_module
from repro.smt import (
    BatchedIcpSolver,
    IcpConfig,
    IcpSolver,
    Verdict,
    eq,
    ge,
    gt,
    le,
    lt,
    solve_conjunction_batched,
)

X, Y = var("x"), var("y")
NAMES = ["x", "y"]
BOX22 = Box([Interval(-2.0, 2.0), Interval(-2.0, 2.0)])


CASES = [
    ([ge(X * X + Y * Y, 1.0), le(X * X + Y * Y, 1.1)], BOX22),
    ([ge(sin(X) + cos(Y), 1.9)], Box([Interval(-4, 4), Interval(-4, 4)])),
    ([ge(sin(X) + cos(Y), 2.5)], Box([Interval(-4, 4), Interval(-4, 4)])),
    ([le(tanh(X) * 2.0 - Y, 0.0), ge(X - Y * Y, 0.5)], Box([Interval(-3, 3), Interval(-3, 3)])),
    ([eq(X * X - 2.0, 0.0)], Box([Interval(0, 2), Interval(0, 1)])),
    ([ge(exp(X) - 3.0 * Y, 0.0), le(X + Y, -1.0), ge(Y, 0.25)], Box([Interval(-3, 3), Interval(-3, 3)])),
    ([ge(sqrt(X) - Y, 1.0)], Box([Interval(0, 4), Interval(-1, 1)])),
    ([gt(X / Y, 10.0), le(X, 0.5), ge(Y, 0.001)], Box([Interval(0, 1), Interval(0.001, 1)])),
    ([ge(X * Y, 100.0)], BOX22),
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_solve_matches_scalar(case):
    constraints, region = CASES[case]
    config = IcpConfig(delta=1e-3)
    scalar = IcpSolver(config).solve(constraints, region, NAMES)
    batched = BatchedIcpSolver(config).solve(constraints, region, NAMES)
    assert batched.verdict is scalar.verdict
    if batched.verdict is Verdict.DELTA_SAT:
        assert batched.witness_validated
        assert all(
            c.satisfied_at(batched.witness, NAMES, slack=config.delta)
            for c in constraints
        )


#: building blocks of the random constraints: low-degree monomials and
#: tanh of a monomial, so the property covers both polynomial and
#: transcendental interval rules
TERMS = [
    lambda: X,
    lambda: Y,
    lambda: X * X,
    lambda: X * Y,
    lambda: Y * Y * Y,
    lambda: tanh(X),
    lambda: tanh(X * Y),
    lambda: tanh(Y * 2.0 - X),
]
RELATIONS = [le, lt, ge, gt]

coefficient = st.floats(-2.0, 2.0, allow_nan=False).map(lambda c: round(c, 3))
random_constraint = st.builds(
    lambda picks, rel, rhs: RELATIONS[rel](
        sum_expr([c * TERMS[t]() for t, c in picks]), rhs
    ),
    st.lists(
        st.tuples(st.integers(0, len(TERMS) - 1), coefficient),
        min_size=1,
        max_size=4,
    ),
    st.integers(0, len(RELATIONS) - 1),
    st.floats(-3.0, 3.0, allow_nan=False),
)
random_box = st.lists(
    st.tuples(st.floats(-3.0, 2.5), st.floats(0.05, 3.0)),
    min_size=2,
    max_size=2,
).map(lambda sides: Box([Interval(lo, lo + w) for lo, w in sides]))


@given(
    st.lists(random_constraint, min_size=1, max_size=3),
    random_box,
    st.integers(0, 2**32 - 1),
)
def test_unsat_has_no_sampled_solution(constraints, region, seed):
    """Soundness: no point of a box the batched solver refutes satisfies
    the constraints exactly."""
    config = IcpConfig(delta=1e-2, max_boxes=20_000)
    result = BatchedIcpSolver(config).solve(constraints, region, NAMES)
    if result.verdict is not Verdict.UNSAT:
        return
    rng = np.random.default_rng(seed)
    points = rng.uniform(region.lower(), region.upper(), size=(1000, 2))
    for point in points:
        assert not all(c.satisfied_at(point, NAMES, slack=0.0) for c in constraints), (
            f"UNSAT box {region} holds a solution at {point}"
        )


def test_no_constraints_trivially_sat():
    result = BatchedIcpSolver().solve([], BOX22, NAMES)
    assert result.verdict is Verdict.DELTA_SAT
    np.testing.assert_allclose(result.witness, [0.0, 0.0])


def test_unbounded_region_rejected():
    from repro.errors import SolverError

    region = Box([Interval.entire(), Interval(0, 1)])
    with pytest.raises(SolverError):
        BatchedIcpSolver().solve([ge(X, 0.0)], region, NAMES)


def test_max_boxes_budget_unknown():
    config = IcpConfig(delta=1e-9, max_boxes=50)
    result = BatchedIcpSolver(config).solve(
        [eq(X * X + Y * Y - 1.9, 0.0)], BOX22, NAMES
    )
    assert result.verdict is Verdict.UNKNOWN


def test_matches_scalar_without_contraction(monkeypatch):
    # every tape is longer than zero instructions, so the scalar solver
    # skips HC4 and runs the batched solver's search box for box
    monkeypatch.setattr(icp_module, "_CONTRACTOR_NODE_LIMIT", 0)
    config = IcpConfig(delta=1e-3)
    for constraints, region in CASES:
        scalar = IcpSolver(config).solve(constraints, region, NAMES)
        batched = BatchedIcpSolver(config).solve(constraints, region, NAMES)
        assert batched.verdict is scalar.verdict
        assert batched.stats.boxes_processed == scalar.stats.boxes_processed
        assert batched.stats.boxes_split == scalar.stats.boxes_split
        assert scalar.stats.contractions == 0
        if scalar.verdict is Verdict.DELTA_SAT:
            np.testing.assert_array_equal(batched.witness, scalar.witness)
            assert batched.witness_validated == scalar.witness_validated


def test_solve_conjunction_batched_wrapper():
    result = solve_conjunction_batched([ge(X, 1.5)], BOX22, NAMES)
    assert result.verdict is Verdict.DELTA_SAT
    assert result.witness[0] >= 1.5 - 1e-3


class TestSolveUnion:
    def test_unsat_union(self):
        constraint = ge(X, 100.0)
        regions = [
            Box([Interval(-1.0, 0.0), Interval(0, 1)]),
            Box([Interval(0.0, 1.0), Interval(0, 1)]),
            Box([Interval(1.0, 2.0), Interval(0, 1)]),
        ]
        result = BatchedIcpSolver().solve_union([constraint], regions, NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_lowest_region_witness_wins(self):
        # both regions satisfy; the serial contract says region 0 reports
        constraint = le(X, 10.0)
        regions = [
            Box([Interval(5.0, 6.0), Interval(0, 1)]),
            Box([Interval(-6.0, -5.0), Interval(0, 1)]),
        ]
        result = BatchedIcpSolver().solve_union([constraint], regions, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert 5.0 <= result.witness[0] <= 6.0

    def test_later_region_wins_only_after_earlier_refuted(self):
        constraint = ge(X, 1.0)
        regions = [
            Box([Interval(-3.0, -2.0), Interval(0, 1)]),  # unsat
            Box([Interval(0.0, 2.0), Interval(0, 1)]),    # sat
        ]
        result = BatchedIcpSolver().solve_union([constraint], regions, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness[0] >= 1.0 - 1e-3

    def test_matches_serial_verdict_on_hard_conjunction(self):
        constraints = [ge(sin(X) * 4.0 - Y * Y, 0.5), le(X, 1.0)]
        regions = [
            Box([Interval(-4.0, -2.0), Interval(-2, 2)]),
            Box([Interval(-2.0, 0.0), Interval(-2, 2)]),
            Box([Interval(0.0, 2.0), Interval(-2, 2)]),
        ]
        config = IcpConfig(delta=1e-3)
        serial_verdicts = [
            IcpSolver(config).solve(constraints, r, NAMES).verdict
            for r in regions
        ]
        union = BatchedIcpSolver(config).solve_union(constraints, regions, NAMES)
        expected = (
            Verdict.DELTA_SAT
            if Verdict.DELTA_SAT in serial_verdicts
            else Verdict.UNSAT
        )
        assert union.verdict is expected
        if union.verdict is Verdict.DELTA_SAT:
            assert union.witness_validated

    def test_empty_regions_unsat(self):
        result = BatchedIcpSolver().solve_union([ge(X, 0.0)], [], NAMES)
        assert result.verdict is Verdict.UNSAT

    def test_no_constraints_first_region_midpoint(self):
        regions = [
            Box([Interval(2.0, 4.0), Interval(0, 1)]),
            Box([Interval(-4.0, -2.0), Interval(0, 1)]),
        ]
        result = BatchedIcpSolver().solve_union([], regions, NAMES)
        assert result.verdict is Verdict.DELTA_SAT
        np.testing.assert_allclose(result.witness, [3.0, 0.5])

    def test_budget_exhaustion_matches_serial(self):
        # serial semantics under exhaustion: region 0 burns its budget
        # (UNKNOWN), but a later region's δ-SAT still reports — the
        # union search must agree with one batched solve per region,
        # with its budget scaled to the serial aggregate (max_boxes per
        # region).
        config = IcpConfig(delta=1e-9, max_boxes=60)
        constraints = [eq(X * X + Y * Y - 1.9, 0.0)]
        regions = [BOX22, Box([Interval(0, 1), Interval(0, 1)])]
        serial = [
            BatchedIcpSolver(config).solve(constraints, r, NAMES)
            for r in regions
        ]
        union = BatchedIcpSolver(config).solve_union(
            constraints, regions, NAMES
        )
        expected = (
            Verdict.DELTA_SAT
            if any(r.verdict is Verdict.DELTA_SAT for r in serial)
            else Verdict.UNKNOWN
        )
        assert union.verdict is expected

    def test_budget_unknown_when_no_region_resolves(self):
        config = IcpConfig(delta=1e-12, max_boxes=40)
        regions = [BOX22, Box([Interval(-3, -1), Interval(-3, -1)])]
        result = BatchedIcpSolver(config).solve_union(
            [eq(X * X + Y * Y - 1.9, 0.0)], regions, NAMES
        )
        assert result.verdict is Verdict.UNKNOWN
