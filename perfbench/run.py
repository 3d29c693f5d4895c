"""Benchmark entry point: one workload per process, metrics as JSON.

Run from the repository root::

    python3 perfbench/run.py --workload verify-2d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures with tracing off and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced run.
``--workload all`` runs every workload, each in a fresh process (peak
RSS is a high-water mark, and warm pools and compiled-tape caches must
not leak from one workload into the next).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show each
metric with its sample count.  The exit code is non-zero when any output
was wrong or the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("verify-2d", "stress-4d", "sweep-dubins")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    # The program is always the checkout's own source tree, never an
    # installed copy of the package.
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import inputs
    import tracer
    import workloads  # imports the program

    if trace:
        tracer.install_linprog_hook()  # before any pool worker forks
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        work_dir = Path(tmp)
        if name == "sweep-dubins":
            out = workloads.run_sweep(seed, seconds, trace, T_START, work_dir)
            workers = inputs.SWEEP_WORKERS
        else:
            expected = inputs.load_expected()
            make = inputs.verify_2d_inputs if name == "verify-2d" else inputs.stress_4d_inputs
            out = workloads.run_serial(make(seed, expected), seconds, trace, T_START, work_dir)
            workers = 1
        if trace:
            measured, units = workloads.per_layer(out, workers), workloads.LAYER_UNITS
            shown = measured
        else:
            measured, units = workloads.end_to_end(out), workloads.E2E_UNITS
            shown = {**measured, **workloads.shown_only(out, name)}

    for failure in out.failures:
        print(f"FAIL {failure}")
    for note in out.notes:
        print(f"NOTE {note}")
    attempted = max(out.attempted, 1)
    failed = min(len(out.failures), attempted)
    print(f"{name} seed={seed} trace={int(trace)} attempted={attempted} "
          f"failed={failed} failed_frac={failed / attempted:.4f} "
          f"verified_frac={out.verified / attempted:.4f}")
    for metric, (value, n) in shown.items():
        print(f"  {metric:26s} {value:14.6g} {units[metric]:6s} n={n}")
    correct = not out.failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, (v, _) in measured.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; non-zero if any failed."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print("\n".join(proc.stdout.splitlines()[:-1]))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
