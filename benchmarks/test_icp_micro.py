"""ICP micro-benchmark: scalar vs structure-of-arrays δ-SAT solving.

Reproduces the Table-1 dubins SMT stage — the condition-(5) Lie-
derivative check on the fitted candidate plus the level-set checks (6)
and (7) — and times the ``native`` serial scalar stack against the
``batched-icp`` SoA stack (one union-seeded ``BoxArray`` frontier,
pruned by forward interval passes and bisected).  The two run different
searches: ``native`` narrows every surviving box with scalar HC4
contraction, ``batched-icp`` does not contract at all.

Writes ``benchmarks/results/BENCH_icp.json``.  Acceptance bar: the
batched stack must cut the SMT-stage wall clock by >= 5x while
returning the same verdicts.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import get_scenario
from repro.barrier import (
    QuadraticTemplate,
    condition5_subproblems,
    condition6_subproblems,
    condition7_subproblems,
)
from repro.barrier.levelset import ellipsoid_bounding_rectangle, quadratic_forms
from repro.engine import get_engine
from repro.sim import sample_uniform

REPEATS = 3
SPEEDUP_BAR = 5.0


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_icp_micro(emit, results_dir):
    scenario = get_scenario("dubins")
    problem = scenario.problem()
    system = problem.system
    names = problem.state_names
    icp = scenario.config.icp

    native = get_engine("native")
    batched = get_engine("batched-icp")

    # The Table-1 stage inputs: LP candidate fitted on the seed traces.
    rng = np.random.default_rng(0)
    starts = sample_uniform(problem.domain.to_box(), 50, rng)
    traces = native.sim.simulate(system, starts, 12.0, 0.05)
    template = QuadraticTemplate(system.dimension)
    candidate = native.lp.fit(
        template,
        np.vstack([t.states for t in traces]),
        system,
        scenario.config.lp,
    )

    subs5 = condition5_subproblems(
        candidate.expression, problem, scenario.config.gamma
    )
    p_matrix, q_vector = quadratic_forms(template, candidate.coefficients)
    level = 0.5  # a mid-range level exercises both (6) and (7)
    subs6 = condition6_subproblems(candidate.expression, problem, level)
    subs7 = condition7_subproblems(
        candidate.expression,
        problem,
        level,
        ellipsoid_bounding_rectangle(p_matrix, q_vector, level),
    )

    def smt_stage(backend):
        return (
            backend.check(subs5, names, icp),
            backend.check(subs6, names, icp),
            backend.check(subs7, names, icp) if subs7 else None,
        )

    native_s, native_res = _best_of(REPEATS, lambda: smt_stage(native.smt))
    batched_s, batched_res = _best_of(REPEATS, lambda: smt_stage(batched.smt))
    native5_s, native5 = _best_of(REPEATS, lambda: native.smt.check(subs5, names, icp))
    batched5_s, batched5 = _best_of(REPEATS, lambda: batched.smt.check(subs5, names, icp))

    # Identical verdicts, stage-wide.
    for a, b in zip(native_res, batched_res):
        if a is not None:
            assert a.verdict is b.verdict
    assert native5.verdict is batched5.verdict

    stage_speedup = native_s / batched_s
    check5_speedup = native5_s / batched5_s

    payload = {
        "scenario": "dubins",
        "cpu_count": os.cpu_count(),
        "delta": icp.delta,
        "smt_stage": {
            "checks": ["condition5", "condition6", "condition7"],
            "subproblems": [len(subs5), len(subs6), len(subs7)],
            "verdicts": [
                r.verdict.value if r is not None else "skipped"
                for r in native_res
            ],
            "native_seconds": round(native_s, 6),
            "batched_seconds": round(batched_s, 6),
            "speedup": round(stage_speedup, 2),
        },
        "condition5": {
            "subproblems": len(subs5),
            "verdict": native5.verdict.value,
            "native_seconds": round(native5_s, 6),
            "batched_seconds": round(batched5_s, 6),
            "speedup": round(check5_speedup, 2),
        },
        "speedup_bar": SPEEDUP_BAR,
    }
    (results_dir / "BENCH_icp.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"table-1 dubins SMT stage (delta={icp.delta:g}):",
        f"  native (serial scalar ICP)  {native_s:8.4f}s",
        f"  batched-icp (SoA frontier)  {batched_s:8.4f}s   ({stage_speedup:.1f}x)",
        f"condition (5) alone ({len(subs5)} subproblems, {native5.verdict.value}):",
        f"  native   {native5_s:8.4f}s",
        f"  batched  {batched5_s:8.4f}s   ({check5_speedup:.1f}x)",
    ]
    emit("icp_micro", "\n".join(lines))

    assert stage_speedup >= SPEEDUP_BAR, (
        f"batched SMT-stage speedup {stage_speedup:.2f}x below the "
        f"{SPEEDUP_BAR}x bar"
    )
