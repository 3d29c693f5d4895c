"""Microbenchmarks of the performance-critical substrates.

These are regression guards, not paper artifacts: batched interval tape
evaluation (the ICP hot path), vectorized numeric tape evaluation, the
generator LP, and a single UNSAT proof of the paper's Eq. (5).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.barrier import (
    QuadraticTemplate,
    condition5_subproblems,
    fit_generator,
)
from repro.dynamics import error_dynamics_system
from repro.expr import compile_expression
from repro.experiments import case_study_controller, paper_problem
from repro.smt import check_exists_on_boxes


@pytest.fixture(scope="module")
def system100():
    return error_dynamics_system(case_study_controller(100))


def test_bench_tape_eval_boxes(benchmark, system100):
    """Batched interval evaluation of a 100-neuron closed-loop field."""
    tape = compile_expression(system100.field_exprs[1], system100.state_names)
    rng = np.random.default_rng(0)
    lo = rng.uniform([-5, -1.4], [4, 1.2], size=(512, 2))
    hi = lo + 0.25

    out_lo, out_hi = benchmark(tape.eval_boxes, lo, hi)
    assert np.all(out_lo <= out_hi)


def test_bench_tape_eval_points(benchmark, system100):
    """Vectorized numeric evaluation over 4096 points."""
    tape = compile_expression(system100.field_exprs[1], system100.state_names)
    rng = np.random.default_rng(0)
    points = rng.uniform([-5, -1.4], [5, 1.4], size=(4096, 2))

    values = benchmark(tape.eval_points, points)
    assert values.shape == (4096,)


def test_bench_generator_lp(benchmark, system100):
    """The margin-maximizing LP on 2000 sample points."""
    rng = np.random.default_rng(0)
    points = rng.uniform([-4.5, -1.3], [4.5, 1.3], size=(2000, 2))
    template = QuadraticTemplate(2)

    candidate = benchmark(fit_generator, template, points, system100)
    assert candidate.margin > 0.0


def test_bench_condition5_unsat_proof(benchmark, system100):
    """One complete UNSAT proof of Eq. (5) for a fitted candidate."""
    problem = paper_problem(case_study_controller(100))
    rng = np.random.default_rng(0)
    points = rng.uniform([-4.5, -1.3], [4.5, 1.3], size=(2000, 2))
    candidate = fit_generator(QuadraticTemplate(2), points, problem.system)
    subproblems = condition5_subproblems(candidate.expression, problem, 1e-6)

    result = benchmark.pedantic(
        check_exists_on_boxes,
        args=(subproblems, problem.state_names),
        rounds=1,
        iterations=1,
    )
    assert result.is_unsat
