"""Repeat the benchmark over several seeds and report each metric's noise band.

Run from the repository root::

    python3 perfbench/prove.py --workloads verify-2d --seeds 5
    python3 perfbench/prove.py --seeds 10 --update-baseline

For every workload and end-to-end metric it prints the median of the
runs and the interquartile spread as a share of the median, next to the
metric's bound from ``BENCHMARK.json``, and flags a spread wider than a
third of the bound.  Given a committed ``baseline.json`` it also prints
how far each median moved from the baseline and flags a move worse than
the bound.  ``--update-baseline`` rewrites ``baseline.json`` from these
runs; nothing is rewritten otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--update-baseline", action="store_true")
    args = parser.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    summary: dict = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr)
        summary[workload] = {}
        for name, meta in metrics.items():
            values = [r[name] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "spread": spread}
            flags = []
            if name != "setup_s" and spread > meta["bound"] / 3:
                flags.append("NOISY")
            line = (f"{workload:13s} {name:15s} median {median:12.5g} {meta['unit']:6s}"
                    f" spread {spread:7.2%} (bound {meta['bound']:.0%})")
            old = baseline.get(workload, {}).get(name)
            if old is not None:
                change = median / old["median"] - 1.0
                worse = -change if meta["better"] == "higher" else change
                line += f"  vs baseline {change:+7.2%}"
                if worse > meta["bound"]:
                    flags.append("REGRESSED")
            print(line + ("  " + " ".join(flags) if flags else ""))
    if args.update_baseline:
        baseline.update(summary)
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
