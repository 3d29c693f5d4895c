"""The three workloads: set-up, measured loop, correctness checks, metrics.

All three are closed loops driven from one process: the next request is
sent only after the previous one returned.  ``verify-2d`` and
``stress-4d`` call ``api.run`` serially, round-robin over their inputs;
``sweep-dubins`` calls ``api.sweep`` on a warm two-worker pool.

Untraced runs (``trace=False``) report the end-to-end metrics.  Traced
runs alternate untraced and traced rounds over the same inputs: the
traced rounds give the per-layer metrics, both give
``trace.overhead_frac``, and every traced artifact must equal its
untraced reference (tracer parity).
"""

from __future__ import annotations

import importlib
import resource
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

from repro import api

import inputs
import tracer

# ``repro.api.sweep`` the module (the package re-exports the function
# under the same name): the traced sweep times ``run_batch`` as it is
# looked up there.
sweep_module = importlib.import_module("repro.api.sweep")

#: units of the end-to-end metrics; ``run_s.p90`` and ``points_per_min``
#: are only printed (see :func:`shown_only`)
E2E_UNITS = {
    "run_s.p50": "s",
    "run_s.p90": "s",
    "points_per_min": "1/min",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "lp.fit_s": "s",
    "lp.solve_s": "s",
    "lp.assemble_s": "s",
    "lp.rows": "count",
    "lp.calls": "count",
    "smt.check_s": "s",
    "smt.check5_s": "s",
    "smt.check67_s": "s",
    "smt.calls": "count",
    "smt.boxes_processed": "count",
    "smt.prune_ratio": "ratio",
    "sim.simulate_s": "s",
    "sim.calls": "count",
    "barrier.run_s": "s",
    "barrier.other_s": "s",
    "barrier.cegis_iterations": "count",
    "barrier.counterexamples": "count",
    "api.run_overhead_s": "s",
    "store.get_s": "s",
    "store.put_s": "s",
    "store.hit_ratio": "ratio",
    "pool.busy_frac": "ratio",
    "pool.dispatch_s": "s",
    "trace.overhead_frac": "ratio",
}

#: counters that must repeat exactly between traced runs of one input
#: (serial workloads) and between traced rounds (all workloads)
EXACT_COUNTS = (
    "lp.rows", "lp.calls", "smt.calls", "smt.boxes_processed",
    "smt.boxes_pruned", "sim.calls", "barrier.cegis_iterations",
    "barrier.counterexamples", "store.gets", "store.hits", "store.puts",
)

#: artifact fields that hold wall-clock measurements
TIMING_FIELDS = (
    "lp_seconds", "query_seconds", "generator_seconds", "other_seconds",
    "total_seconds", "stage_seconds",
)


class Outcome:
    """Attempted/failed bookkeeping plus the measured samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        #: shown, not failed: drift of a count from its recorded value
        self.notes: list[str] = []
        #: end-to-end latency samples (seconds) of untraced requests
        self.latencies: list[float] = []
        #: (wall seconds, traced?) per measured round
        self.rounds: list[tuple[float, bool]] = []
        #: per-layer tallies of traced rounds
        self.traced: list[Counter] = []
        self.setup_s = 0.0
        self.points = 0
        self.verified = 0

    def check(self, label: str, artifact, expected: str, reference: "dict | None") -> None:
        """Count one resolved input and record why it is wrong, if it is."""
        self.attempted += 1
        self.verified += artifact.verified
        if artifact.error is not None:
            self.failures.append(f"{label}: {artifact.error}")
        elif artifact.status != expected:
            self.failures.append(f"{label}: status {artifact.status}, expected {expected}")
        elif reference is not None and strip(artifact) != reference:
            self.failures.append(f"{label}: artifact differs from its first run")

    def error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def keep_going(self, deadline: float, trace: bool) -> bool:
        """Whole rounds until the deadline; at least two (one of each kind
        when traced), ending on a traced round in a traced run."""
        n = len(self.rounds)
        if n < 2:
            return True
        if trace and n % 2:
            return True
        return time.perf_counter() < deadline


def strip(artifact) -> dict:
    """The artifact without its wall-clock fields."""
    data = artifact.to_dict()
    for name in TIMING_FIELDS:
        data.pop(name, None)
    return data


def exact_counts(values: "Counter | None") -> "dict | None":
    """The :data:`EXACT_COUNTS` of one traced call's layer values."""
    return None if values is None else {name: values[name] for name in EXACT_COUNTS}


# ----------------------------------------------------------------------
# verify-2d / stress-4d: serial api.run
# ----------------------------------------------------------------------
def run_serial(
    items: "list[inputs.Input]", seconds: float, trace: bool, t_start: float,
    work_dir: Path,
) -> Outcome:
    out = Outcome()
    engine = api.get_engine(inputs.ENGINE)
    tally = tracer.Tally(work_dir)
    traced_engine = tracer.traced_engine(engine, tally)

    def solve(item: inputs.Input, traced: bool):
        """One ``api.run``: its artifact, wall seconds and, when traced,
        its per-layer values."""
        t0 = time.perf_counter()
        artifact = api.run(
            item.scenario, config=item.config, cache=False,
            engine=traced_engine if traced else engine,
            progress=tally.on_stage if traced else None,
        )
        wall = time.perf_counter() - t0
        if not traced:
            return artifact, wall, None
        values = tally.reset()
        values.update({
            "api.run_overhead_s": wall - artifact.total_seconds,
            "barrier.run_s": artifact.total_seconds,
            "barrier.cegis_iterations": artifact.candidate_iterations,
            "barrier.counterexamples": artifact.counterexamples,
        })
        return artifact, wall, values

    # Warm-up: one run per input, kept as its reference.  A traced run
    # traces it too, so that every traced round is held to each input's
    # own counts -- stress-4d fits only one traced round in a run.
    references = []
    for item in items:
        try:
            artifact, _, values = solve(item, trace)
        except Exception as exc:  # noqa: BLE001 - a failed input is a result
            out.error(item.label, exc)
            references.append(None)
            continue
        out.check(item.label, artifact, item.expected, None)
        references.append((strip(artifact), exact_counts(values)))
        if values is not None and item.boxes not in (None, values["smt.boxes_processed"]):
            out.notes.append(f"{item.label}: {values['smt.boxes_processed']} ICP boxes, "
                             f"{item.boxes} in expected.json")
    out.setup_s = time.perf_counter() - t_start

    deadline = time.perf_counter() + seconds
    while out.keep_going(deadline, trace):
        traced = trace and len(out.rounds) % 2 == 1
        round_values: Counter = Counter()
        round_t0 = time.perf_counter()
        for item, reference in zip(items, references):
            try:
                artifact, wall, values = solve(item, traced)
            except Exception as exc:  # noqa: BLE001 - a failed input is a result
                out.error(item.label, exc)
                continue
            out.check(item.label, artifact, item.expected,
                      None if reference is None else reference[0])
            if values is None:
                out.latencies.append(wall)
                continue
            round_values.update(values)
            if reference is not None and exact_counts(values) != reference[1]:
                moved = {k: (v, reference[1][k])
                         for k, v in exact_counts(values).items() if v != reference[1][k]}
                out.failures.append(f"{item.label}: counts (now, warm-up) {moved}")
        out.rounds.append((time.perf_counter() - round_t0, traced))
        if traced:
            unattributed = (round_values["smt.check_s"] - round_values["smt.check5_s"]
                            - round_values["smt.check67_s"])
            if abs(unattributed) > 1e-9:
                out.failures.append(f"tracer: {unattributed:.3g}s of SMT outside any stage")
            out.traced.append(round_values)
    return out


# ----------------------------------------------------------------------
# sweep-dubins: api.sweep on a warm pool over a half-seeded store
# ----------------------------------------------------------------------
def run_sweep(seed: int, seconds: float, trace: bool, t_start: float,
              work_dir: Path) -> Outcome:
    out = Outcome()
    sweep_seed, expected = inputs.sweep_dubins_plan(seed, inputs.load_expected())
    engine = api.get_engine(inputs.ENGINE)
    tally = tracer.Tally(work_dir)
    traced_engine = tracer.traced_engine(engine, tally)
    pool = api.WarmPool(inputs.SWEEP_WORKERS, api.WarmupSpec(families=("dubins",)))

    def sweep(store, eng):
        return api.sweep("dubins", grid=inputs.SWEEP_GRID, seed=sweep_seed,
                         workers=inputs.SWEEP_WORKERS, engine=eng, cache=store,
                         pool=pool)

    try:
        # Warm-up pass: spawns the pool and fills a reference store.
        reference_store = api.ArtifactStore(work_dir / "reference")
        report = sweep(reference_store, engine)
        for artifact, status in zip(report.artifacts, expected):
            out.check(artifact.scenario, artifact, status, None)
        references = [strip(a) for a in report.artifacts]
        # The stored half: every other grid point, matched by scenario
        # name so no store-key derivation is repeated here.
        seeded_names = {a.scenario for a in report.artifacts[::2]}
        seeded_files = [
            path for path in (reference_store.path_for(k) for k in reference_store.keys())
            if api.RunArtifact.from_json(path.read_text()).scenario in seeded_names
        ]
        if len(seeded_files) != len(seeded_names):
            out.failures.append(
                f"reference store holds {len(seeded_files)} of {len(seeded_names)} seeded points"
            )
        out.setup_s = time.perf_counter() - t_start

        deadline = time.perf_counter() + seconds
        while out.keep_going(deadline, trace):
            traced = trace and len(out.rounds) % 2 == 1
            store_dir = work_dir / f"pass-{len(out.rounds)}"
            for path in seeded_files:  # untimed pre-seed
                target = store_dir / path.relative_to(reference_store.root)
                target.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, target)
            if traced:
                store = tracer.TimedStore(store_dir, tally)
                with tracer.timed_attribute(sweep_module, "run_batch", tally, "pool.batch_s"):
                    t0 = time.perf_counter()
                    report = sweep(store, traced_engine)
                    wall = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                report = sweep(api.ArtifactStore(store_dir), engine)
                wall = time.perf_counter() - t0
                out.latencies.append(wall)
                out.points += report.total
            shutil.rmtree(store_dir)
            out.rounds.append((wall, traced))
            for artifact, status, reference in zip(report.artifacts, expected, references):
                out.check(artifact.scenario, artifact, status, reference)
            if report.cache_hits != len(seeded_files):
                out.failures.append(
                    f"pass {len(out.rounds)}: {report.cache_hits} cache hits, "
                    f"expected {len(seeded_files)}"
                )
            if traced:
                out.traced.append(_sweep_layers(out, tally, report))
    finally:
        # Join the workers so RUSAGE_CHILDREN covers them.
        pool.executor.shutdown(wait=True)
        pool.shutdown()
    return out


def _sweep_layers(out: Outcome, tally: tracer.Tally, report) -> Counter:
    """Fold a traced pass's worker records in and check it used the pool."""
    if tally.values["sim.calls"]:
        out.failures.append("traced sweep solved points in the parent, not on the pool")
    pids = tally.collect()
    if not pids:
        out.failures.append("traced sweep left no worker-side records")
    values = tally.reset()
    fresh = [a for a in report.artifacts if not a.cached]
    values["barrier.run_s"] = sum(a.total_seconds for a in fresh)
    values["barrier.cegis_iterations"] = sum(a.candidate_iterations for a in fresh)
    values["barrier.counterexamples"] = sum(a.counterexamples for a in fresh)
    return values


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """High-water RSS of this process and its reaped children, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(out: Outcome) -> dict[str, tuple[float, int]]:
    """Each bounded end-to-end metric as (value, sample count).

    A ``run_s`` sample is one ``api.run`` on the serial workloads and one
    ``api.sweep`` pass over the whole grid on ``sweep-dubins``.
    """
    samples = out.latencies
    return {
        "run_s.p50": (statistics.median(samples), len(samples)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "setup_s": (out.setup_s, 1),
    }


def shown_only(out: Outcome, workload: str) -> dict[str, tuple[float, int]]:
    """Metrics printed but not bounded, as (value, sample count).

    ``run_s.p90`` needs ten samples beyond it, which only ``verify-2d``
    collects, and spreads ~17% across seeds there.  ``points_per_min``
    restates the sweep's pass walls as throughput.
    """
    samples = out.latencies
    shown = {}
    if len(samples) >= 100:
        p90 = statistics.quantiles(samples, n=10, method="inclusive")[8]
        shown["run_s.p90"] = (p90, len(samples))
    if workload == "sweep-dubins":
        shown["points_per_min"] = (60.0 * out.points / sum(samples), out.points)
    return shown


def per_layer(out: Outcome, workers: int) -> dict[str, tuple[float, int]]:
    """Each per-layer metric as (value, traced rounds): the median over
    traced rounds of its per-round sum (counts repeat exactly)."""
    rounds = out.traced
    for name in EXACT_COUNTS:
        if len({r[name] for r in rounds}) > 1:
            out.failures.append(f"{name} differs between traced rounds")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    for r in rounds:
        r["lp.assemble_s"] = r["lp.fit_s"] - r["lp.solve_s"]
        r["smt.prune_ratio"] = ratio(r["smt.boxes_pruned"], r["smt.boxes_processed"])
        r["barrier.other_s"] = (
            r["barrier.run_s"] - r["sim.simulate_s"] - r["lp.fit_s"] - r["smt.check_s"]
        )
        r["store.hit_ratio"] = ratio(r["store.hits"], r["store.gets"])
        if r["pool.batch_s"]:
            r["pool.busy_frac"] = r["barrier.run_s"] / (workers * r["pool.batch_s"])
            r["pool.dispatch_s"] = r["pool.batch_s"] - r["barrier.run_s"] / workers
    traced = statistics.median(w for w, t in out.rounds if t)
    untraced = statistics.median(w for w, t in out.rounds if not t)
    values = {name: statistics.median(r[name] for r in rounds) for name in LAYER_UNITS}
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {name: (float(value), len(rounds)) for name, value in values.items()}
