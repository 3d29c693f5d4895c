"""End-to-end synthesis benchmark: the whole loop vs the pre-PR baseline.

Three measurements, one run:

* **End-to-end verify latency** on the paper's dubins workload, over the
  {engine} x {kernel layer on/off} matrix.  The pre-PR baseline is the
  ``native`` engine with ``REPRO_KERNELS`` off (the interpreted tape
  walkers); the shipped fast path is ``batched-icp`` with kernels on.
* **Path parity** on every builtin scenario: with wall-clock solver
  limits neutralized (box budgets are deterministic, wall clocks are
  not), the kernel-compiled and interpreted paths must return
  bit-identical statuses, levels, counterexample witnesses, and LP
  coefficients.
* **Cold sweep throughput** against a fresh artifact store on the PR-4
  benchmark grid, via the warm worker pool — compared against PR 4's
  recorded 88.55 scenarios/min @ 2 workers.

Writes ``benchmarks/results/BENCH_synthesis.json``.  Acceptance bars:
>= 2x end-to-end dubins speedup (fast path vs pre-PR baseline) and
>= 1.5x the PR-4 cold sweep rate, with all parity checks holding.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time

from repro.api import get_scenario, run, scenario_names, sweep
from repro.perf import use_kernels
from repro.store import ArtifactStore

REPEATS = 3
E2E_SPEEDUP_BAR = 2.0
#: PR 4's recorded cold rate (benchmarks/results/BENCH_sweep.json then)
PR4_COLD_RATE = 88.55
SWEEP_RATE_BAR = 1.5 * PR4_COLD_RATE
#: hardware-independent fallback: the same-run speedup over the PR-4
#: configuration (default engine, one-shot executor) must reach 1.5x —
#: so the CI gate holds on runners slower than the recording box
SWEEP_RATIO_BAR = 1.5
#: the PR-4 sweep benchmark grid, unchanged for comparability
GRID = {"speed": "1:2:3", "nn_width": "8,10"}
SWEEP_WORKERS = 2
SWEEP_ENGINE = "batched-icp"

#: per-scenario deterministic solver budget overrides for the parity
#: matrix: wall-clock limits are machine-dependent (the same search can
#: be UNKNOWN on a slow box and UNSAT on a fast one), so they are
#: removed; cartpole's box/iteration/LP budgets are cut to keep the 4-D
#: stress workload bounded (32 samples/edge in 4-D is ~240k distinct
#: boundary points, one LP row each — several seconds of HiGHS per fit).
PARITY_BUDGETS = {
    "cartpole": {
        "max_boxes": 200,
        "max_candidate_iterations": 2,
        "separation_samples": 4,
    }
}


def _best_of(repeats, fn):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _parity_config(scenario):
    budget = dict(PARITY_BUDGETS.get(scenario.name, {}))
    icp = dataclasses.replace(
        scenario.config.icp,
        time_limit=None,
        max_boxes=budget.pop("max_boxes", scenario.config.icp.max_boxes),
    )
    lp = scenario.config.lp
    if "separation_samples" in budget:
        lp = dataclasses.replace(
            lp, separation_samples=budget.pop("separation_samples")
        )
    return dataclasses.replace(scenario.config, icp=icp, lp=lp, **budget)


def _artifact_fingerprint(artifact):
    report = artifact.report
    cert = artifact.certificate or {}
    return {
        "status": artifact.status,
        "level": artifact.level,
        "iterations": artifact.candidate_iterations,
        "counterexamples": [
            [float(v) for v in witness] for witness in report.counterexamples
        ],
        "coefficients": cert.get("coefficients"),
        "check5": (
            report.final_check5.verdict.value if report.final_check5 else None
        ),
    }


def test_synthesis_end_to_end(emit, results_dir, tmp_path):
    # ------------------------------------------------------------------
    # 1. dubins end-to-end latency matrix
    # ------------------------------------------------------------------
    matrix = {}
    for engine in ("native", "batched-icp"):
        for kernels in (False, True):
            with use_kernels(kernels):
                seconds, artifact = _best_of(
                    REPEATS, lambda: run("dubins", engine=engine, cache=False)
                )
            assert artifact.verified
            matrix[f"{engine}/kernels-{'on' if kernels else 'off'}"] = round(
                seconds, 6
            )
    baseline_s = matrix["native/kernels-off"]
    fast_s = matrix["batched-icp/kernels-on"]
    e2e_speedup = baseline_s / fast_s

    # ------------------------------------------------------------------
    # 2. kernel-path parity across every builtin scenario
    # ------------------------------------------------------------------
    parity = {}
    parity_seconds = {}
    for name in scenario_names():
        scenario = get_scenario(name)
        config = _parity_config(scenario)
        with use_kernels(False):
            off_s, off = _best_of(
                1, lambda: run(scenario, config=config, cache=False)
            )
        with use_kernels(True):
            on_s, on = _best_of(
                1, lambda: run(scenario, config=config, cache=False)
            )
        identical = _artifact_fingerprint(off) == _artifact_fingerprint(on)
        parity[name] = {
            "status": on.status,
            "identical": identical,
            "interpreted_seconds": round(off_s, 4),
            "kernel_seconds": round(on_s, 4),
        }
        parity_seconds[name] = (off_s, on_s)
        assert identical, (
            f"{name}: kernel-compiled path diverged from the interpreted "
            f"path ({_artifact_fingerprint(off)} vs {_artifact_fingerprint(on)})"
        )

    # ------------------------------------------------------------------
    # 3. cold sweep throughput on the warm worker pool
    # ------------------------------------------------------------------
    # Baseline: the PR-4 configuration in this same run — default
    # engine, one-shot executor — so the ratio bar below stays valid on
    # hardware slower or faster than the box that recorded 88.55/min.
    baseline_store = ArtifactStore(tmp_path / "baseline-store")
    t0 = time.perf_counter()
    baseline = sweep(
        "dubins",
        grid=GRID,
        workers=SWEEP_WORKERS,
        cache=baseline_store,
        pool=False,
    )
    baseline_s = time.perf_counter() - t0
    assert baseline.cache_hits == 0
    baseline_rate = baseline.total / baseline_s * 60.0

    store = ArtifactStore(tmp_path / "store")
    t0 = time.perf_counter()
    report = sweep(
        "dubins",
        grid=GRID,
        workers=SWEEP_WORKERS,
        engine=SWEEP_ENGINE,
        cache=store,
    )
    sweep_s = time.perf_counter() - t0
    assert report.cache_hits == 0
    assert all(a.status != "error" for a in report.artifacts)
    cold_rate = report.total / sweep_s * 60.0
    sweep_ratio = cold_rate / baseline_rate

    payload = {
        "benchmark": "end-to-end synthesis latency + sweep throughput",
        "cpu_count": os.cpu_count(),
        "end_to_end": {
            "scenario": "dubins",
            "matrix_seconds": matrix,
            "baseline": "native/kernels-off",
            "fast_path": "batched-icp/kernels-on",
            "speedup": round(e2e_speedup, 2),
            "speedup_bar": E2E_SPEEDUP_BAR,
        },
        "parity": parity,
        "cold_sweep": {
            "family": "dubins",
            "grid": GRID,
            "workers": SWEEP_WORKERS,
            "engine": SWEEP_ENGINE,
            "points": report.total,
            "wall_seconds": round(sweep_s, 4),
            "scenarios_per_minute": round(cold_rate, 2),
            "baseline_scenarios_per_minute": round(baseline_rate, 2),
            "speedup_vs_baseline": round(sweep_ratio, 2),
            "pr4_scenarios_per_minute": PR4_COLD_RATE,
            "speedup_vs_pr4": round(cold_rate / PR4_COLD_RATE, 2),
            "rate_bar": round(SWEEP_RATE_BAR, 2),
            "ratio_bar": SWEEP_RATIO_BAR,
        },
    }
    (results_dir / "BENCH_synthesis.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = [
        "dubins end-to-end verify_system (best of 3):",
        *(
            f"  {key:<24} {seconds:8.4f}s"
            for key, seconds in matrix.items()
        ),
        f"  fast path vs pre-PR baseline: {e2e_speedup:.1f}x (bar {E2E_SPEEDUP_BAR}x)",
        "kernel-path parity (interpreted vs compiled, identical artifacts):",
        *(
            f"  {name:<18} {info['status']:<14} "
            f"{info['interpreted_seconds']:7.3f}s -> {info['kernel_seconds']:7.3f}s"
            for name, info in parity.items()
        ),
        f"cold sweep ({report.total} points, {SWEEP_WORKERS} workers, "
        f"{SWEEP_ENGINE}): {sweep_s:.2f}s = {cold_rate:.1f} scenarios/min "
        f"({cold_rate / PR4_COLD_RATE:.1f}x PR4's {PR4_COLD_RATE}, "
        f"{sweep_ratio:.1f}x the same-run PR4-config baseline "
        f"{baseline_rate:.1f}/min)",
    ]
    emit("synthesis_micro", "\n".join(lines))

    assert e2e_speedup >= E2E_SPEEDUP_BAR, (
        f"end-to-end speedup {e2e_speedup:.2f}x below the {E2E_SPEEDUP_BAR}x bar"
    )
    assert cold_rate >= SWEEP_RATE_BAR or sweep_ratio >= SWEEP_RATIO_BAR, (
        f"cold sweep rate {cold_rate:.1f}/min below the absolute bar "
        f"{SWEEP_RATE_BAR:.1f}/min (1.5x PR4's recorded figure) AND "
        f"the same-run speedup {sweep_ratio:.2f}x is below "
        f"{SWEEP_RATIO_BAR}x the PR4-configuration baseline"
    )


def test_collect_summary(emit, results_dir):
    """Fold every BENCH_*.json into BENCH_summary.json (runs last here)."""
    import collect_results

    target = collect_results.write_summary(results_dir)
    summary = json.loads(target.read_text())
    assert summary["benchmarks"], "no benchmark artifacts to summarize"
    assert "synthesis" in summary["benchmarks"]
    lines = [f"{key}: {value}" for key, value in summary["headline"].items()]
    emit("bench_summary", "\n".join(lines))
