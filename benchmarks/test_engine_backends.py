"""Engine-backend benchmark: native vs ``batched-icp`` seed-sim on the
paper's dubins workload.

Writes ``benchmarks/results/BENCH_engines.json`` alongside the
human-readable text artifact.  The batch simulator must beat the native
per-trace loop by >= 3x.  Condition-(5) SMT timing lives in
``test_icp_micro.py``.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.api import get_scenario
from repro.engine import get_engine
from repro.sim import sample_uniform

#: seed traces integrated per timing pass (the Table-1 default is ~25;
#: a larger batch makes the wall-clock contrast stable under CI noise)
TRACES = 200
DURATION = 12.0
DT = 0.05
REPEATS = 3


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_engine_backends(emit, results_dir):
    problem = get_scenario("dubins").problem()
    system = problem.system
    rng = np.random.default_rng(0)
    starts = sample_uniform(problem.domain.to_box(), TRACES, rng)

    native = get_engine("native")
    batched = get_engine("batched-icp")

    native_sim_s, native_traces = _best_of(
        REPEATS,
        lambda: native.sim.simulate(system, starts, DURATION, DT),
    )
    vector_sim_s, vector_traces = _best_of(
        REPEATS,
        lambda: batched.sim.simulate(system, starts, DURATION, DT),
    )
    assert len(native_traces) == len(vector_traces) == TRACES
    for a, b in zip(native_traces[:10], vector_traces[:10]):
        np.testing.assert_allclose(a.states, b.states, atol=1e-8)
    sim_speedup = native_sim_s / vector_sim_s

    payload = {
        "scenario": "dubins",
        "cpu_count": os.cpu_count(),
        "seed_sim": {
            "traces": TRACES,
            "steps_per_trace": len(native_traces[0]) - 1,
            "native_seconds": round(native_sim_s, 6),
            "vectorized_seconds": round(vector_sim_s, 6),
            "speedup": round(sim_speedup, 2),
        },
    }
    (results_dir / "BENCH_engines.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        f"seed-sim ({TRACES} traces x {payload['seed_sim']['steps_per_trace']} steps):",
        f"  native       {native_sim_s:8.4f}s",
        f"  batched-icp  {vector_sim_s:8.4f}s   ({sim_speedup:.1f}x)",
    ]
    emit("engine_backends", "\n".join(lines))

    assert sim_speedup >= 3.0, (
        f"batched-icp seed-sim speedup {sim_speedup:.2f}x below the 3x bar"
    )
