"""Run scenarios — singly or as a process-parallel batch.

:func:`run` executes one scenario through the
:class:`~repro.api.pipeline.VerificationPipeline` and returns a
:class:`RunArtifact`: a JSON-round-trippable record of the outcome
(status, certificate data, per-stage timings, config).  :func:`run_batch`
fans a list of scenarios out over worker processes with
:mod:`concurrent.futures`, preserving input order and converting
per-scenario failures into error artifacts instead of aborting the
batch.

Both accept an ``engine`` (a registered :mod:`repro.engine` name or
:class:`~repro.engine.Engine` object) selecting the solver stack, and
``run_batch`` additionally takes a batch-level ``seed`` from which every
scenario derives its own deterministic synthesis seed — artifacts are
then bit-reproducible for any ``workers`` value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Sequence

from ..barrier import SynthesisConfig, SynthesisReport
from ..engine import Engine, resolve_engine
from ..expr import to_infix
from .pipeline import ProgressCallback, VerificationPipeline
from .pool import WarmPool
from .scenario import (
    Scenario,
    get_scenario,
    synthesis_config_from_dict,
    synthesis_config_to_dict,
)

__all__ = ["RunArtifact", "derive_scenario_seed", "run", "run_batch"]

#: artifact schema version (bump on incompatible field changes)
ARTIFACT_VERSION = 1


@dataclass
class RunArtifact:
    """JSON-serializable record of one verification run.

    ``report`` keeps the in-process :class:`SynthesisReport` (with the
    live certificate object) when available; it is dropped by
    serialization and by cross-process transport — everything else
    round-trips through :meth:`to_json` / :meth:`from_json` losslessly.
    """

    scenario: str
    status: str
    verified: bool
    level: float | None = None
    candidate_iterations: int = 0
    levelset_iterations: int = 0
    traces_used: int = 0
    counterexamples: int = 0
    #: how many of those the check-(5) screen found by sampling rather
    #: than the SMT solver (0 when read from an older artifact)
    screened_counterexamples: int = 0
    lp_seconds: float = 0.0
    query_seconds: float = 0.0
    generator_seconds: float = 0.0
    other_seconds: float = 0.0
    total_seconds: float = 0.0
    #: cumulative wall seconds per pipeline stage
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: flattened SynthesisConfig the run used
    config: dict = field(default_factory=dict)
    #: registry name of the engine the run executed on
    engine: str = "native"
    #: proven barrier data: level, gamma, coefficients, W(x) as infix
    certificate: dict | None = None
    #: traceback-free error message for failed batch entries
    error: str | None = None
    version: int = ARTIFACT_VERSION
    #: in-process only; never serialized
    report: SynthesisReport | None = field(
        default=None, repr=False, compare=False
    )
    #: True when this artifact came out of the :mod:`repro.store` cache
    #: instead of a fresh solve; in-process only, never serialized (so
    #: cached and fresh artifacts stay byte-identical as JSON)
    cached: bool = field(default=False, repr=False, compare=False)

    @property
    def synthesis_config(self) -> SynthesisConfig:
        """The run's config, reconstructed from the flattened dict."""
        return synthesis_config_from_dict(self.config)

    #: fields that never serialize (process-local state)
    _TRANSIENT_FIELDS = ("report", "cached")

    def to_dict(self) -> dict:
        """Plain-data view (everything except the live report)."""
        data = {}
        for spec in dataclasses.fields(self):
            if spec.name in self._TRANSIENT_FIELDS:
                continue
            value = getattr(self, spec.name)
            data[spec.name] = dict(value) if isinstance(value, dict) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        """Rebuild an artifact from :meth:`to_dict` output."""
        known = {
            f for f in cls.__dataclass_fields__
            if f not in cls._TRANSIENT_FIELDS
        }
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


def derive_scenario_seed(run_seed: int, scenario_name: str) -> int:
    """Deterministic per-scenario synthesis seed for a batch run.

    Hash-derived (not ``run_seed + index``) so the seed depends only on
    the batch seed and the scenario's *name* — reordering, filtering, or
    sharding the batch never changes any scenario's seed, and no Python
    process-level hash randomization leaks in.

    >>> derive_scenario_seed(7, "dubins") == derive_scenario_seed(7, "dubins")
    True
    >>> derive_scenario_seed(7, "dubins") != derive_scenario_seed(8, "dubins")
    True
    >>> derive_scenario_seed(7, "dubins") != derive_scenario_seed(7, "linear")
    True
    """
    digest = hashlib.sha256(f"{run_seed}:{scenario_name}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _artifact_from_run(
    scenario: Scenario, config: SynthesisConfig, pipeline_run, engine_name: str
) -> RunArtifact:
    report = pipeline_run.report
    certificate = None
    if report.certificate is not None:
        cert = report.certificate
        certificate = {
            "level": cert.level,
            "gamma": cert.gamma,
            "coefficients": (
                None
                if cert.coefficients is None
                else [float(c) for c in cert.coefficients]
            ),
            "w_infix": to_infix(cert.w_expr),
        }
    return RunArtifact(
        scenario=scenario.name,
        status=report.status.value,
        verified=report.verified,
        level=report.level,
        candidate_iterations=report.candidate_iterations,
        levelset_iterations=report.levelset_iterations,
        traces_used=report.traces_used,
        counterexamples=len(report.counterexamples),
        screened_counterexamples=report.counterexample_via.count("sample"),
        lp_seconds=report.lp_seconds,
        query_seconds=report.query_seconds,
        generator_seconds=report.generator_seconds,
        other_seconds=report.other_seconds,
        total_seconds=report.total_seconds,
        stage_seconds=dict(report.stage_seconds),
        config=synthesis_config_to_dict(config),
        engine=engine_name,
        certificate=certificate,
        report=report,
    )


def run(
    scenario: "str | Scenario",
    config: SynthesisConfig | None = None,
    progress: ProgressCallback | None = None,
    engine: "str | Engine | None" = None,
    cache: "object | None" = None,
) -> RunArtifact:
    """Verify one scenario (by registry name or object).

    ``config`` overrides the scenario's bundled config for this run.
    ``engine`` (a registered name or :class:`~repro.engine.Engine`)
    selects the solver stack; None runs ``"native"``.

    ``cache`` consults the content-addressed artifact store of
    :mod:`repro.store` before solving and records the artifact after:
    pass an :class:`~repro.store.ArtifactStore`, a store root path, or
    ``True`` (default root).  ``None`` defers to the ``REPRO_CACHE``
    env var; ``False`` disables.  A hit returns the stored artifact
    (``artifact.cached`` is then True) without running any solver.
    """
    from ..store import resolve_store, run_key

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    effective = config or scenario.config
    engine_obj = resolve_engine(engine)
    store = resolve_store(cache)
    if store is not None:
        key = run_key(scenario, effective, engine_obj.name)
        hit = store.get(key)
        if hit is not None:
            hit.cached = True
            return hit
    pipeline = VerificationPipeline(
        config=effective, progress=progress, engine=engine_obj
    )
    outcome = pipeline.run(scenario.problem())
    artifact = _artifact_from_run(scenario, effective, outcome, engine_obj.name)
    if store is not None and artifact.status != "inconclusive":
        # Inconclusive means a solver *budget* ran out — wall-clock
        # time limits make that outcome machine/load-dependent, so
        # freezing it in a content-addressed store would serve stale
        # "unknown"s forever.  Definite outcomes only.
        store.put(key, artifact)
    return artifact


def _execute_chunk(
    payloads: "list[tuple[Scenario, SynthesisConfig | None, Engine]]",
    cache: "object | None",
) -> "list[RunArtifact]":
    """Worker entry point for chunked dispatch: one task, many solves.

    Chunking amortizes per-task submission/pickling overhead across
    several scenarios; per-scenario failure isolation is unchanged
    because :func:`_execute` never raises.
    """
    return [
        _execute(scenario, config, True, engine, cache)
        for scenario, config, engine in payloads
    ]


def _execute(
    scenario: Scenario,
    config: SynthesisConfig | None,
    strip_report: bool,
    engine: "str | Engine | None" = None,
    cache: "object | None" = False,
) -> RunArtifact:
    """Batch worker: never raises — failures become error artifacts."""
    name = scenario.name
    try:
        artifact = run(scenario, config=config, engine=engine, cache=cache)
    except Exception as exc:  # noqa: BLE001 — one bad scenario must not kill the batch
        artifact = RunArtifact(
            scenario=name,
            status="error",
            verified=False,
            error=f"{type(exc).__name__}: {exc}",
            config={} if config is None else synthesis_config_to_dict(config),
            engine=getattr(engine, "name", engine) or "native",
        )
    if strip_report:
        # SynthesisReport holds compiled tapes and solver state that have
        # no business crossing a process boundary; the artifact's plain
        # fields carry everything a batch consumer needs.
        artifact.report = None
    return artifact


def _as_scenarios(scenarios: Sequence["str | Scenario"]) -> list[Scenario]:
    """Resolve names eagerly (fail fast on unknown names, before any
    fan-out).  Workers always receive Scenario objects: user-registered
    names exist only in the parent's registry, which spawn-started
    workers do not inherit."""
    resolved: list[Scenario] = []
    for item in scenarios:
        if isinstance(item, str):
            resolved.append(get_scenario(item))
        elif isinstance(item, Scenario):
            resolved.append(item)
        else:
            raise TypeError(
                f"expected scenario name or Scenario, got {type(item).__name__}"
            )
    return resolved


def run_batch(
    scenarios: Sequence["str | Scenario"],
    workers: int | None = None,
    config: SynthesisConfig | None = None,
    seed: int | None = None,
    engine: "str | Engine | None" = None,
    cache: "object | None" = None,
    pool: "WarmPool | None" = None,
    chunksize: int | None = None,
) -> list[RunArtifact]:
    """Verify many scenarios, process-parallel, preserving input order.

    ``workers=None`` picks ``min(len(scenarios), cpu_count)``;
    ``workers=1`` runs serially in-process (artifacts then keep their
    live ``report``).  Scenarios that cannot be pickled into a worker
    (e.g. lambda factories) fall back to in-process execution.

    ``seed`` (optional) makes the batch reproducible end to end: every
    scenario gets its own synthesis seed derived from
    :func:`derive_scenario_seed` *before* any fan-out, so artifacts are
    identical for any ``workers`` value.  ``engine`` selects the solver
    stack for every run (None runs ``"native"``).  It is resolved to an
    :class:`Engine` once, eagerly in this process (failing fast on
    unknown names, like scenario names), so user-registered engines,
    which spawn-started workers do not inherit, still work.

    ``cache`` wires every run through the :mod:`repro.store` artifact
    cache (same semantics as :func:`run`); the store is resolved once
    here in the parent, so the env-var/default lookup happens exactly
    once and workers receive the concrete store.

    ``pool`` (optional) dispatches on a persistent
    :class:`~repro.api.pool.WarmPool` instead of a one-shot executor —
    the sweep runner's fast path, keeping workers (and their compiled
    scenario tapes) warm across calls.  ``chunksize`` groups that
    many scenarios per worker task (default: ~4 tasks per worker),
    amortizing submission overhead; results are order-preserving and
    per-scenario failure isolation is unchanged either way.
    """
    from ..store import resolve_store

    # Resolve once, here: workers receive the concrete store, or the
    # explicit False sentinel so an inherited REPRO_CACHE env var can
    # never re-enable a cache this call disabled.
    store = resolve_store(cache) or False
    resolved = _as_scenarios(scenarios)
    if not resolved:
        return []
    if workers is None:
        workers = min(len(resolved), os.cpu_count() or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if chunksize is not None and chunksize < 1:
        # Validated up front so the error does not depend on whether
        # the batch happens to take the serial fast path below.
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")

    configs: list[SynthesisConfig | None]
    if seed is None:
        configs = [config] * len(resolved)
    else:
        configs = [
            dataclasses.replace(
                config or scenario.config,
                seed=derive_scenario_seed(seed, scenario.name),
            )
            for scenario in resolved
        ]
    engine_obj = resolve_engine(engine)

    if workers == 1 or len(resolved) == 1:
        return [
            _execute(scenario, cfg, strip_report=False, engine=engine_obj, cache=store)
            for scenario, cfg in zip(resolved, configs)
        ]

    picklable: list[bool] = []
    for scenario, cfg in zip(resolved, configs):
        try:
            pickle.dumps((scenario, cfg, engine_obj))
            picklable.append(True)
        except Exception:  # noqa: BLE001 — unpicklable payloads run inline
            picklable.append(False)

    remote = [i for i, ok in enumerate(picklable) if ok]
    if chunksize is None:
        # ~4 tasks per worker: coarse enough to amortize dispatch, fine
        # enough that a slow scenario cannot idle the other workers.
        # Sized to the executor that actually runs the chunks (a
        # supplied pool may be wider or narrower than `workers`).
        dispatch_workers = pool.workers if pool is not None else workers
        chunksize = max(1, -(-len(remote) // (dispatch_workers * 4)))

    results: list[RunArtifact | None] = [None] * len(resolved)
    for i, ok in enumerate(picklable):
        if not ok:
            results[i] = _execute(
                resolved[i], configs[i], strip_report=False,
                engine=engine_obj, cache=store,
            )
    chunk_groups = [
        remote[start : start + chunksize]
        for start in range(0, len(remote), chunksize)
    ]
    _dispatch_supervised(
        chunk_groups, resolved, configs, engine_obj, store,
        results, pool, workers,
    )
    return [artifact for artifact in results if artifact is not None]


def resolve_chunk_timeout() -> "float | None":
    """Per-chunk wall-clock deadline, from ``REPRO_CHUNK_TIMEOUT``.

    ``None`` (unset, the production default) waits forever exactly as a
    plain ``future.result()`` would; setting it lets the chunk
    supervisor treat a wedged worker — alive but never answering — the
    same as a dead one.
    """
    raw = os.environ.get("REPRO_CHUNK_TIMEOUT", "").strip()
    if raw:
        try:
            value = float(raw)
            if value > 0:
                return value
        except ValueError:
            pass
    return None


def resolve_pool_retries(default: int = 2) -> int:
    """How many times a batch rebuilds a broken pool before giving up
    (``REPRO_POOL_RETRIES``)."""
    raw = os.environ.get("REPRO_POOL_RETRIES", "").strip()
    if raw:
        try:
            return max(0, int(raw))
        except ValueError:
            pass
    return default


def _inject_pool_fault(executor) -> None:
    """Fire the ``pool.worker`` seam: signal a real worker of ``executor``.

    Master-side (one deterministic counter): a ``kill`` SIGKILLs the
    lowest-pid worker mid-dispatch, a ``hang`` SIGSTOPs every worker —
    exercising respectively the ``BrokenProcessPool`` and the
    chunk-deadline recovery paths below.  A hang stops them all because
    a single stopped worker may hold no chunk yet: the others would
    finish the batch and the deadline would never fire.
    """
    from ..resilience import faults

    action = faults.fire("pool.worker")
    if action is None:
        return
    from .pool import executor_worker_pids

    pids = sorted(executor_worker_pids(executor))
    if not pids:
        return
    import signal

    if action.kind == "kill":
        victims, sig = pids[:1], signal.SIGKILL
    else:
        victims, sig = pids, signal.SIGSTOP
    for pid in victims:
        try:
            os.kill(pid, sig)
        except OSError:  # pragma: no cover - victim already exited
            pass


def _dispatch_supervised(
    chunk_groups: "list[list[int]]",
    resolved: "list[Scenario]",
    configs: "list[SynthesisConfig | None]",
    engine: Engine,
    store,
    results: "list[RunArtifact | None]",
    pool: "WarmPool | None",
    workers: int,
) -> None:
    """Run every chunk to completion, healing the executor on worker loss.

    A chunk whose worker dies (``BrokenProcessPool``) or wedges past the
    chunk deadline is resubmitted on a rebuilt executor — only chunks
    without results re-run, with capped backoff between rebuilds, up to
    :func:`resolve_pool_retries` rebuilds.  Exhausting the budget
    re-raises ``BrokenProcessPool`` exactly like the unsupervised path
    always did (after shutting a supplied pool down so later callers
    rebuild through public API).
    """
    from ..resilience.supervisor import Backoff, record_incident
    from .pool import kill_executor_workers

    chunk_timeout = resolve_chunk_timeout()
    max_rebuilds = resolve_pool_retries()
    backoff = Backoff(base=0.05, cap=1.0, seed=0)
    done = [False] * len(chunk_groups)
    rebuilds = 0
    executor = pool.executor if pool is not None else ProcessPoolExecutor(
        max_workers=workers
    )
    try:
        while not all(done):
            futures = []
            for ci, indices in enumerate(chunk_groups):
                if done[ci]:
                    continue
                payloads = [
                    (resolved[i], configs[i], engine) for i in indices
                ]
                futures.append(
                    (ci, executor.submit(_execute_chunk, payloads, store))
                )
            _inject_pool_fault(executor)
            try:
                for ci, future in futures:
                    for i, artifact in zip(chunk_groups[ci], future.result(
                        timeout=chunk_timeout
                    )):
                        results[i] = artifact
                    done[ci] = True
            except (BrokenProcessPool, FuturesTimeoutError) as exc:
                record_incident(
                    "pool.worker_died", f"{type(exc).__name__}: chunk dispatch lost"
                )
                # Reap wedged workers first: shutdown() alone cannot
                # dislodge a SIGSTOPped child, and an abandoned-but-
                # alive worker is exactly the process leak the chaos
                # gate audits for.
                kill_executor_workers(executor)
                if pool is not None:
                    pool.shutdown()
                else:
                    executor.shutdown(wait=False, cancel_futures=True)
                if rebuilds >= max_rebuilds:
                    if isinstance(exc, BrokenProcessPool):
                        raise
                    raise BrokenProcessPool(
                        f"chunk exceeded {chunk_timeout}s deadline "
                        f"{max_rebuilds + 1} times"
                    ) from exc
                backoff.sleep(rebuilds)
                rebuilds += 1
                executor = (
                    pool.executor if pool is not None
                    else ProcessPoolExecutor(max_workers=workers)
                )
                record_incident("pool.respawn", f"executor rebuilt (#{rebuilds})")
    finally:
        if pool is None:
            executor.shutdown(wait=False, cancel_futures=True)
