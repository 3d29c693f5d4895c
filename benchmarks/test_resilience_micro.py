"""Resilience benchmark: the fault-free cost of the fault-injection seams.

The dubins end-to-end verify runs through an artifact store, so it
crosses real seams (``store.read``/``store.write``).  With no plan
installed (the production state) each seam costs one
:func:`repro.resilience.faults.fire` fast path: an attribute read and a
``None`` check.  The gate counts the seam hits of one run (an
action-free plan counts without firing anything), times the fast path
with ``timeit``, and requires ``hits × fast-path cost`` to stay within
``MAX_SEAM_OVERHEAD - 1`` of the run's wall clock.  Timing the run
twice — seams on vs. bypassed — cannot resolve a cost this small
against run-to-run noise, so the bound is computed instead.

Writes ``benchmarks/results/BENCH_resilience.json``.
"""

from __future__ import annotations

import dataclasses
import json
import time
import timeit

from repro import api
from repro.api.family import get_family
from repro.api.runner import derive_scenario_seed
from repro.resilience import faults
from repro.resilience.faults import FaultPlan
from repro.store import ArtifactStore

SEED = 0
#: fault-free runs with seams wired may cost at most this factor
MAX_SEAM_OVERHEAD = 1.05
#: timing is noisy; the run time is the median over this many runs
OVERHEAD_RUNS = 3


def _dubins_setup():
    scenario = get_family("dubins").instantiate()
    config = dataclasses.replace(
        scenario.config, seed=derive_scenario_seed(SEED, scenario.name)
    )
    return scenario, config


def _timed_store_run(scenario, config, root):
    """One cold run through a fresh store under ``root`` (seams crossed)."""
    store = ArtifactStore(root)
    t0 = time.perf_counter()
    api.run(scenario, config=config, engine="batched-icp", cache=store)
    return time.perf_counter() - t0


def test_fault_free_seam_overhead(emit, results_dir, tmp_path):
    scenario, config = _dubins_setup()
    _timed_store_run(scenario, config, tmp_path / "warm")  # first-run noise

    # An action-free plan counts every seam hit and fires nothing.
    with faults.injected(FaultPlan(())):
        _timed_store_run(scenario, config, tmp_path / "count")
        hits = dict(faults._STATE.hits)
    seam_hits = sum(hits.values())
    assert seam_hits > 0, "the workload crossed no fault-injection seam"

    faults.clear_plan()
    run_s = sorted(
        _timed_store_run(scenario, config, tmp_path / f"run{i}")
        for i in range(OVERHEAD_RUNS)
    )[OVERHEAD_RUNS // 2]
    timer = timeit.Timer('fire("store.read")', globals={"fire": faults.fire})
    calls, _ = timer.autorange()
    fire_s = min(timer.repeat(repeat=5, number=calls)) / calls
    seam_s = seam_hits * fire_s
    overhead = 1.0 + seam_s / run_s

    payload = {
        "benchmark": "fault-free seam overhead (dubins end-to-end, via store)",
        "runs": OVERHEAD_RUNS,
        "seam_hits": hits,
        "fire_fast_path_ns": round(fire_s * 1e9, 1),
        "median_run_s": round(run_s, 4),
        "seam_cost_s": seam_s,
        "overhead_factor": round(overhead, 6),
        "max_overhead_bar": MAX_SEAM_OVERHEAD,
    }
    path = results_dir / "BENCH_resilience.json"
    existing = json.loads(path.read_text()) if path.is_file() else {}
    existing["seam_overhead"] = payload
    path.write_text(json.dumps(existing, indent=2) + "\n")

    emit(
        "resilience_seam_overhead",
        (
            f"dubins verify through a store, median of {OVERHEAD_RUNS}:\n"
            f"  run                       {run_s:8.3f}s\n"
            f"  seam hits                 {seam_hits:8d}   {hits}\n"
            f"  fire() fast path          {fire_s * 1e9:8.1f}ns\n"
            f"  overhead                  {overhead:8.6f}x   "
            f"(bar {MAX_SEAM_OVERHEAD}x)"
        ),
    )
    assert seam_s <= (MAX_SEAM_OVERHEAD - 1.0) * run_s, (
        f"fault-free seam overhead {overhead:.6f}x exceeds the "
        f"{MAX_SEAM_OVERHEAD}x bar"
    )
