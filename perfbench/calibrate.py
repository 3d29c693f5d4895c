"""Regenerate ``expected.json``: the outcome of every seed-pool entry.

Run from the repository root::

    python3 perfbench/calibrate.py

It solves every pool entry of every workload once (about five minutes
on two cores) and rewrites the table the benchmark selects its inputs
from and checks their statuses against.  Each entry records
``[status, CEGIS iterations]``; ``stress-4d`` entries add the boxes the
ICP search processed, measured through the benchmark's own tracer.

Re-run it only when a change is *meant* to alter verdicts, and say so
in that change: the table is the benchmark's definition of a correct
output, and re-running it changes which inputs every seed selects.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import api  # noqa: E402

import inputs  # noqa: E402
import tracer  # noqa: E402

#: pool sizes: entries per 2-D scenario, per cartpole point, and sweep seeds
VERIFY_2D_POOL = 32
STRESS_4D_POOL = 8
SWEEP_POOL = 24


def _outcome(artifact) -> list:
    """What the table records per run: [status, CEGIS iterations]."""
    if artifact.status == "error":
        raise RuntimeError(f"{artifact.scenario}: {artifact.error}")
    return [artifact.status, artifact.candidate_iterations]


def _outcomes(pairs, workers: int) -> list[list]:
    """Solve (scenario, config) pairs; their outcomes in order."""
    scenarios = [scenario.with_config(config) for scenario, config in pairs]
    artifacts = api.run_batch(scenarios, workers=workers, engine=inputs.ENGINE,
                              cache=False)
    return [_outcome(artifact) for artifact in artifacts]


def _outcomes_with_boxes(pairs, trace_dir: str) -> list[list]:
    """Solve serially on a traced engine; outcomes plus boxes processed."""
    tally = tracer.Tally(trace_dir)
    engine = tracer.traced_engine(api.get_engine(inputs.ENGINE), tally)
    rows = []
    for scenario, config in pairs:
        artifact = api.run(scenario, config=config, engine=engine, cache=False)
        rows.append(_outcome(artifact) + [tally.reset()["smt.boxes_processed"]])
    return rows


def main() -> int:
    workers = min(2, os.cpu_count() or 1)
    table: dict = {"verify-2d": {}, "stress-4d": {}, "sweep-dubins": []}
    t0 = time.perf_counter()
    for name in inputs.VERIFY_2D_SCENARIOS:
        pairs = [inputs.verify_2d_candidate(name, i) for i in range(VERIFY_2D_POOL)]
        table["verify-2d"][name] = _outcomes(pairs, workers)
        print(name, table["verify-2d"][name], file=sys.stderr)
    with tempfile.TemporaryDirectory() as trace_dir:
        for point in inputs.STRESS_4D_POINTS:
            pairs = [inputs.stress_4d_candidate(point, i) for i in range(STRESS_4D_POOL)]
            key = inputs.point_key(point)
            table["stress-4d"][key] = _outcomes_with_boxes(pairs, trace_dir)
            print(key, table["stress-4d"][key], file=sys.stderr)
    for index in range(SWEEP_POOL):
        report = api.sweep("dubins", grid=inputs.SWEEP_GRID, seed=index,
                           workers=workers, engine=inputs.ENGINE, cache=False,
                           pool=False)
        table["sweep-dubins"].append([_outcome(a) for a in report.artifacts])
        print("sweep", index, report.aggregate()["statuses"], file=sys.stderr)
    inputs.EXPECTED_PATH.write_text(
        json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {inputs.EXPECTED_PATH} in {time.perf_counter() - t0:.0f}s",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
