#!/usr/bin/env python
"""Aggregate the scattered ``BENCH_*.json`` files into one summary.

Every benchmark writes its own machine-readable artifact under the
results directory (``BENCH_icp.json``, ``BENCH_sweep.json``,
``BENCH_engines.json``, ``BENCH_synthesis.json``, ...).  This collector
merges them into a single ``BENCH_summary.json`` with a flat
``headline`` section of the numbers worth tracking PR-over-PR, so the
perf trajectory is one file to diff instead of four.

Run directly (``python benchmarks/collect_results.py [DIR]``) or let
the benchmark suite's final test regenerate it; CI uploads the result
next to the per-benchmark artifacts.  ``DIR`` defaults to the
git-ignored ``benchmarks/out/`` a plain test run writes; the
tracked record in ``benchmarks/results/`` is refreshed only by
``pytest benchmarks/ --update-results``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: the tracked record, written only under ``--update-results``
RESULTS_DIR = Path(__file__).parent / "results"
#: where test runs write by default (git-ignored)
LATEST_DIR = Path(__file__).parent / "out"
SUMMARY_NAME = "BENCH_summary.json"


def _dig(data: dict, *path, default=None):
    for key in path:
        if not isinstance(data, dict) or key not in data:
            return default
        data = data[key]
    return data


def collect(results_dir: Path = LATEST_DIR) -> dict:
    """Merge every ``BENCH_*.json`` under ``results_dir`` into one dict."""
    benchmarks: dict[str, object] = {}
    for path in sorted(results_dir.glob("BENCH_*.json")):
        if path.name == SUMMARY_NAME:
            continue
        name = path.stem[len("BENCH_"):]
        try:
            benchmarks[name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            benchmarks[name] = {"error": f"unreadable: {error}"}

    headline = {
        "seed_sim_vectorized_speedup": _dig(
            benchmarks, "engines", "seed_sim", "speedup"
        ),
        "smt_stage_batched_speedup": _dig(
            benchmarks, "icp", "smt_stage", "speedup"
        ),
        "sweep_cold_scenarios_per_minute": _dig(
            benchmarks, "sweep", "cold", "scenarios_per_minute"
        ),
        "sweep_warm_hit_rate": _dig(
            benchmarks, "sweep", "warm", "cache_hit_rate"
        ),
        "end_to_end_dubins_speedup": _dig(
            benchmarks, "synthesis", "end_to_end", "speedup"
        ),
        "cold_sweep_scenarios_per_minute": _dig(
            benchmarks, "synthesis", "cold_sweep", "scenarios_per_minute"
        ),
        "corpus_fuzz_points_per_minute": _dig(
            benchmarks, "corpus", "full", "points_per_minute"
        ),
        "corpus_twin_tier_share": _dig(
            benchmarks, "corpus", "twin_tier_share"
        ),
        "seam_overhead_factor": _dig(
            benchmarks, "resilience", "seam_overhead", "overhead_factor"
        ),
    }
    return {
        "schema": 1,
        "benchmarks": benchmarks,
        "headline": {k: v for k, v in headline.items() if v is not None},
    }


def write_summary(results_dir: Path = LATEST_DIR) -> Path:
    """Write ``BENCH_summary.json`` and return its path."""
    summary = collect(results_dir)
    target = results_dir / SUMMARY_NAME
    target.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return target


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    results_dir = Path(argv[0]) if argv else LATEST_DIR
    target = write_summary(results_dir)
    summary = json.loads(target.read_text())
    print(f"wrote {target} ({len(summary['benchmarks'])} benchmarks)")
    for key, value in summary["headline"].items():
        print(f"  {key}: {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
