"""The service scheduler: queueing semantics over artifact semantics.

The scheduler is the layer between the HTTP front door and the solver
fleet.  It separates *queueing* (priorities, fairness, cancellation,
progress) from *artifact* semantics (what a result is, where it lives)
— the artifact side is entirely the content-addressed
:class:`~repro.store.ArtifactStore` the sweep runner already uses, so
results fetched through the service are byte-identical to direct
:func:`repro.api.run` artifacts of the same points.

Submission pipeline, per job:

1. expand the :class:`~repro.service.jobs.JobSpec` into parameter
   points (family grid/sample via the ``ParamSpec`` mini-language, or
   one point for a plain scenario) with the sweep runner's per-point
   seed derivation,
2. probe the store with each point's :func:`~repro.store.run_key` —
   hits resolve immediately, with **zero** worker dispatches,
3. coalesce: a miss whose key is already queued or in flight attaches
   to that computation instead of dispatching a duplicate,
4. everything else becomes a :class:`_PointTask` in the priority queue.

The dispatcher thread drains the queue into the executor — a shared
:class:`~repro.api.pool.WarmPool` of processes, or an in-process thread
pool for tests and single-machine smoke runs — keeping at most one
in-flight task per worker.  Queue order is ``(priority desc, shard,
submission order)``: the *shard* component is the integer value of the
key's first two hex digits, i.e. exactly the store's directory shards,
so consecutive dispatches touch the same shard directories (warm dentry
/ page cache) and a future multi-node router can map shard ranges to
nodes without changing queue semantics.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import TYPE_CHECKING, Mapping

from ..api.family import family_names, get_family
from ..api.pool import WarmPool, WarmupSpec
from ..api.runner import (
    RunArtifact,
    _resolve_run_engine,
    derive_scenario_seed,
    run,
)
from ..api.scenario import (
    Scenario,
    get_scenario,
    synthesis_config_to_dict,
)
from ..api.sweep import instantiate_points
from ..errors import ReproError
from ..resilience.supervisor import Backoff, incidents, record_incident
from ..store import ArtifactStore, run_key
from .events import EventBus, stage_event_dict
from .jobs import Job, JobJournal, JobSpec, JobState, JOURNAL_NAME, new_job_id

__all__ = ["Scheduler"]


def _run_point(key, scenario, config, engine, store, events_queue):
    """Worker entry point: solve one parameter point.

    Never raises — failures become error artifacts, mirroring
    :func:`repro.api.runner._execute` — and never returns the live
    report (it must not cross the process boundary).  ``events_queue``
    (optional) receives serialized stage events for the server's bus.
    """
    progress = None
    if events_queue is not None:
        def progress(event):  # noqa: ANN001 - StageEvent
            try:
                events_queue.put(stage_event_dict(event, key, scenario.name))
            except Exception:  # noqa: BLE001 - streaming is best effort
                pass
    try:
        artifact = run(
            scenario, config=config, engine=engine,
            progress=progress, cache=store if store is not None else False,
        )
    except Exception as exc:  # noqa: BLE001 - one bad point must not kill a worker
        artifact = RunArtifact(
            scenario=scenario.name,
            status="error",
            verified=False,
            error=f"{type(exc).__name__}: {exc}",
            config=synthesis_config_to_dict(config),
            engine=getattr(engine, "name", str(engine)),
        )
    artifact.report = None
    return artifact


class _PointTask:
    """One distinct computation (run key) and the job points awaiting it."""

    __slots__ = ("key", "scenario", "config", "engine", "waiters", "running")

    def __init__(self, key: str, scenario: Scenario, config, engine):
        self.key = key
        self.scenario = scenario
        self.config = config
        self.engine = engine
        #: (job_id, point index) pairs to resolve with this task's artifact
        self.waiters: list[tuple[str, int]] = []
        self.running = False

    @property
    def shard(self) -> int:
        """The store shard this key lives in (first two hex digits)."""
        return int(self.key[:2], 16)


class Scheduler:
    """Async job orchestrator over the artifact store + worker pool.

    Parameters
    ----------
    store:
        The :class:`~repro.store.ArtifactStore` backing cache probes and
        result persistence (``None`` disables both — every point runs).
    pool:
        ``True`` (default) builds a :class:`~repro.api.pool.WarmPool`
        of ``workers`` processes; a :class:`WarmPool` shares an existing
        one; ``False`` executes in-process on a thread pool (tests,
        single-machine smoke runs — no process spawn cost).
    workers:
        Parallelism (and the in-flight cap); default 2.
    events:
        An :class:`~repro.service.events.EventBus` to publish stage /
        point / job events on (``None`` disables streaming).
    journal:
        A :class:`~repro.service.jobs.JobJournal`, or ``True`` to place
        one under ``<store root>/service/journal.jsonl``; ``None``
        disables persistence.
    """

    def __init__(
        self,
        store: "ArtifactStore | None",
        pool: "WarmPool | bool" = True,
        workers: int = 2,
        events: "EventBus | None" = None,
        journal: "JobJournal | bool | None" = None,
    ):
        if workers < 1:
            raise ReproError(f"scheduler needs workers >= 1, got {workers}")
        self.store = store
        self.workers = workers
        self.events = events
        if journal is True:
            if store is None:
                raise ReproError("journal=True needs an artifact store root")
            journal = JobJournal(store.root / "service" / JOURNAL_NAME)
        self.journal: "JobJournal | None" = journal or None

        self._owns_pool = pool is True
        self._pool: "WarmPool | None" = None
        self._thread_executor: "ThreadPoolExecutor | None" = None
        if pool is False:
            self._thread_executor = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-service-worker"
            )
        elif isinstance(pool, WarmPool):
            self._pool = pool
        else:
            self._pool = WarmPool(workers)

        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: dict[str, Job] = {}
        self._tasks_by_key: dict[str, _PointTask] = {}
        self._heap: list[tuple[int, int, int, _PointTask]] = []
        self._seq = itertools.count()
        self._inflight = 0
        #: tasks completed so far; lets ``submit`` notice completions
        #: that raced its store lookups
        self._completed = 0
        self._stopped = False
        self._retry_timers: "set[threading.Timer]" = set()

        self._events_queue = None
        self._events_stop = None
        if events is not None:
            self._events_queue = self._make_events_queue()
            self._events_stop = events.drain_from(
                self._events_queue, translate=self._translate_stage_event
            )

        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch", daemon=True
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _make_events_queue(self):
        """A queue workers can publish stage events to.

        Thread-pool execution shares the process, so a plain
        ``queue.Queue`` suffices; process pools need a picklable
        manager-proxy queue.
        """
        if self._thread_executor is not None:
            import queue

            return queue.Queue()
        import multiprocessing

        self._events_manager = multiprocessing.Manager()
        return self._events_manager.Queue()

    def _translate_stage_event(self, raw: dict) -> list[dict]:
        """Map a worker's key-addressed stage event onto waiting jobs."""
        key = raw.get("key")
        with self._lock:
            task = self._tasks_by_key.get(key)
            waiters = list(task.waiters) if task is not None else []
        return [
            {
                "type": "stage",
                "job": job_id,
                "index": index,
                "point": raw.get("point"),
                "stage": raw.get("stage"),
                "kind": raw.get("kind"),
                "iteration": raw.get("iteration"),
                "seconds": raw.get("seconds"),
            }
            for job_id, index in waiters
        ]

    @property
    def _executor(self):
        if self._thread_executor is not None:
            return self._thread_executor
        return self._pool.executor

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _expand_spec(
        self, spec: JobSpec
    ) -> tuple[list[dict], list[Scenario], list, list]:
        """Resolve a spec into (points, scenarios, configs, engines).

        Families win name collisions with scenarios (the family
        interpretation is strictly more general); a plain scenario
        target must carry no grid/samples.
        """
        if spec.target in family_names():
            family = get_family(spec.target)
            if spec.grid is None and spec.samples is None:
                points = [family.resolve_params(dict(spec.overrides or {}))]
            else:
                points = instantiate_points(
                    family, spec.grid, spec.samples, spec.seed, spec.overrides
                )
            scenarios = [family.instantiate(**point) for point in points]
        else:
            if spec.grid is not None or spec.samples is not None:
                raise ReproError(
                    f"target {spec.target!r} is not a registered family "
                    "(grids/samples need a family target)"
                )
            scenarios = [get_scenario(spec.target)]
            points = [{}]
        configs = []
        engines = []
        for scenario in scenarios:
            cfg = dataclasses.replace(
                scenario.config,
                seed=derive_scenario_seed(spec.seed, scenario.name),
            )
            configs.append(cfg)
            engines.append(_resolve_run_engine(scenario, cfg, spec.engine))
        return points, scenarios, configs, engines

    def submit(
        self,
        spec: "JobSpec | Mapping[str, object]",
        priority: int = 0,
        job_id: "str | None" = None,
    ) -> Job:
        """Queue one job; returns it with cache hits already resolved.

        Raises :class:`~repro.errors.ReproError` on an invalid spec
        (unknown target/engine, malformed grid) *before* anything is
        journaled or queued.
        """
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        points, scenarios, configs, engines = self._expand_spec(spec)
        keys = [
            run_key(scenario, config, engine.name)
            for scenario, config, engine in zip(scenarios, configs, engines)
        ]
        hits: "list[RunArtifact | None]" = [None] * len(keys)
        completed = self._completed
        if self.store is not None:
            for i, key in enumerate(keys):
                hits[i] = self.store.get(key)

        job = Job(
            id=job_id or new_job_id(),
            spec=spec,
            priority=priority,
            points=[scenario.name for scenario in scenarios],
            params=[dict(point) for point in points],
            keys=list(keys),
            artifacts=[None] * len(keys),
        )
        if self._pool is not None and spec.target in family_names():
            # Best effort: pre-compile this family's kernels in workers.
            self._pool.ensure_warm(WarmupSpec(families=(spec.target,)))

        with self._cond:
            if self._stopped:
                raise ReproError("scheduler is shut down")
            if job.id in self._jobs:
                raise ReproError(f"job id {job.id!r} already exists")
            if self.store is not None and self._completed != completed:
                # A task that finished after the lookups above stored its
                # artifact and left _tasks_by_key: read its key again
                # instead of dispatching the same computation twice.
                for i, key in enumerate(keys):
                    if hits[i] is None and key not in self._tasks_by_key:
                        hits[i] = self.store.get(key)
            self._jobs[job.id] = job
            if self.journal is not None:
                self.journal.record_submit(job)
            for i, (key, hit) in enumerate(zip(keys, hits)):
                if hit is not None:
                    hit.cached = True
                    job.artifacts[i] = hit
                    job.cached_points += 1
                    if self.journal is not None:
                        self.journal.record_point(job.id, i, hit.status, True)
                    self._publish_point(job, i, hit)
                    continue
                task = self._tasks_by_key.get(key)
                if task is not None:
                    task.waiters.append((job.id, i))
                    job.coalesced += 1
                else:
                    task = _PointTask(key, scenarios[i], configs[i], engines[i])
                    task.waiters.append((job.id, i))
                    self._tasks_by_key[key] = task
                    heapq.heappush(
                        self._heap,
                        (-priority, task.shard, next(self._seq), task),
                    )
                    job.dispatched += 1
            if job.resolved:
                self._finalize_job(job)
            self._cond.notify_all()
        return job

    # ------------------------------------------------------------------
    # Dispatch + completion
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._stopped and (
                    not self._heap or self._inflight >= self.workers
                ):
                    self._cond.wait()
                if self._stopped:
                    return
                _, _, _, task = heapq.heappop(self._heap)
                if not task.waiters:
                    # Every waiter cancelled before dispatch.
                    self._tasks_by_key.pop(task.key, None)
                    continue
                task.running = True
                self._inflight += 1
                for job_id, _ in task.waiters:
                    job = self._jobs.get(job_id)
                    if job is not None and job.state is JobState.QUEUED:
                        job.transition(JobState.RUNNING)
                        if self.journal is not None:
                            self.journal.record_state(job.id, JobState.RUNNING)
            try:
                future: Future = self._executor.submit(
                    _run_point,
                    task.key,
                    task.scenario,
                    task.config,
                    task.engine,
                    self.store,
                    self._events_queue,
                )
            except Exception as exc:  # noqa: BLE001 - executor torn down
                self._complete_task(
                    task,
                    RunArtifact(
                        scenario=task.scenario.name,
                        status="error",
                        verified=False,
                        error=f"{type(exc).__name__}: {exc}",
                        engine=task.engine.name,
                    ),
                )
                continue
            future.add_done_callback(
                lambda f, t=task: self._on_future_done(t, f)
            )

    def _on_future_done(self, task: _PointTask, future: Future) -> None:
        try:
            artifact = future.result()
        except BaseException as exc:  # noqa: BLE001 - broken pool / cancellation
            artifact = RunArtifact(
                scenario=task.scenario.name,
                status="error",
                verified=False,
                error=f"{type(exc).__name__}: {exc}",
                engine=task.engine.name,
            )
        self._complete_task(task, artifact)

    def _complete_task(self, task: _PointTask, artifact: RunArtifact) -> None:
        with self._cond:
            self._tasks_by_key.pop(task.key, None)
            self._completed += 1
            if task.running:
                task.running = False
                self._inflight -= 1
            waiters = list(task.waiters)
            task.waiters.clear()
            for job_id, index in waiters:
                job = self._jobs.get(job_id)
                if job is None or job.state.terminal:
                    continue
                job.artifacts[index] = artifact
                if self.journal is not None:
                    self.journal.record_point(
                        job.id, index, artifact.status, False
                    )
                self._publish_point(job, index, artifact)
                if job.resolved:
                    self._finalize_job(job)
            self._cond.notify_all()

    def _publish_point(self, job: Job, index: int, artifact: RunArtifact) -> None:
        if self.events is not None:
            self.events.publish(
                {
                    "type": "point",
                    "job": job.id,
                    "index": index,
                    "point": job.points[index],
                    "status": artifact.status,
                    "verified": artifact.verified,
                    "cached": bool(artifact.cached),
                    "seconds": artifact.total_seconds,
                }
            )

    def _finalize_job(self, job: Job) -> None:
        """Move a fully resolved job to its terminal state (lock held).

        Jobs with a retry budget (``spec.max_retries > 0``) intercept
        the failure path: erroring points that actually ran (cache-hit
        errors are deterministic and not retried) are cleared and
        re-queued after a jittered backoff, the job stays RUNNING, and
        only an exhausted budget dead-letters it to ``DEAD``.
        """
        failed = [
            i
            for i, a in enumerate(job.artifacts)
            if a is not None and a.status == "error"
        ]
        retryable = [
            i for i in failed if not bool(getattr(job.artifacts[i], "cached", False))
        ]
        if job.cancel_requested:
            state = JobState.CANCELLED
        elif failed:
            if retryable and job.retries < job.spec.max_retries:
                self._schedule_retry(job, retryable)
                return
            state = (
                JobState.DEAD
                if retryable and job.spec.max_retries > 0
                else JobState.FAILED
            )
            job.error = next(
                job.artifacts[i].error or job.artifacts[i].status for i in failed
            )
        else:
            state = JobState.DONE
        job.transition(state)
        if self.journal is not None:
            self.journal.record_state(job.id, state, job.error)
        if self.events is not None:
            self.events.publish(
                {
                    "type": "job",
                    "job": job.id,
                    "state": state.value,
                    "error": job.error,
                }
            )

    def _schedule_retry(self, job: Job, indexes: "list[int]") -> None:
        """Discard error artifacts and arm a backoff re-dispatch (lock held)."""
        job.retries += 1
        attempt = job.retries
        for index in indexes:
            job.artifacts[index] = None
        if self.journal is not None:
            self.journal.record_retry(job.id, attempt, indexes)
        record_incident(
            "job.retry",
            f"{job.id} retry {attempt}/{job.spec.max_retries} "
            f"({len(indexes)} points)",
        )
        if self.events is not None:
            self.events.publish(
                {
                    "type": "retry",
                    "job": job.id,
                    "attempt": attempt,
                    "points": list(indexes),
                }
            )
        delay = Backoff(base=0.2, cap=5.0, seed=attempt).delay(attempt - 1)
        timer = threading.Timer(
            delay, self._requeue_points, args=(job.id, tuple(indexes))
        )
        timer.daemon = True
        self._retry_timers = {t for t in self._retry_timers if t.is_alive()}
        self._retry_timers.add(timer)
        timer.start()

    def _requeue_points(self, job_id: str, indexes: "tuple[int, ...]") -> None:
        """Timer callback: push a retrying job's points back in the queue."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return
        try:
            # Deterministic re-expansion: same spec, same seeds, same keys.
            _, scenarios, configs, engines = self._expand_spec(job.spec)
        except ReproError as exc:
            with self._cond:
                if not job.state.terminal:
                    job.error = f"retry failed: {exc}"
                    job.transition(JobState.DEAD)
                    if self.journal is not None:
                        self.journal.record_state(job.id, JobState.DEAD, job.error)
                self._cond.notify_all()
            return
        with self._cond:
            if self._stopped or job.state.terminal:
                return
            for index in indexes:
                if index >= len(scenarios) or job.artifacts[index] is not None:
                    continue
                key = job.keys[index]
                task = self._tasks_by_key.get(key)
                if task is not None:
                    if (job.id, index) not in task.waiters:
                        task.waiters.append((job.id, index))
                    continue
                task = _PointTask(
                    key, scenarios[index], configs[index], engines[index]
                )
                task.waiters.append((job.id, index))
                self._tasks_by_key[key] = task
                heapq.heappush(
                    self._heap,
                    (-job.priority, task.shard, next(self._seq), task),
                )
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Queries + control
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ReproError(f"unknown job {job_id!r}") from None

    def jobs(self) -> list[Job]:
        """Every known job, newest submission first."""
        with self._lock:
            return sorted(
                self._jobs.values(), key=lambda j: j.created, reverse=True
            )

    def job_result(self, job_id: str) -> "list[RunArtifact | None]":
        """Per-point artifacts (journal-recovered jobs hydrate from the
        store by key; points that never finished stay None)."""
        job = self.job(job_id)
        with self._lock:
            artifacts = list(job.artifacts)
            keys = list(job.keys)
        if self.store is not None:
            for i, artifact in enumerate(artifacts):
                if artifact is None and i < len(keys):
                    artifacts[i] = self.store.get(keys[i])
        return artifacts

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued points are dropped, running points
        finish into the store but no longer count toward the job.

        Cancelling a terminal job is a no-op; the job is returned either
        way so callers can render its (possibly pre-existing) state.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ReproError(f"unknown job {job_id!r}")
            if job.state.terminal:
                return job
            job.cancel_requested = True
            for index, artifact in enumerate(job.artifacts):
                if artifact is not None:
                    continue
                task = self._tasks_by_key.get(job.keys[index])
                if task is not None:
                    task.waiters = [
                        w for w in task.waiters if w != (job.id, index)
                    ]
            job.transition(JobState.CANCELLED)
            if self.journal is not None:
                self.journal.record_state(job.id, JobState.CANCELLED)
            if self.events is not None:
                self.events.publish(
                    {
                        "type": "job",
                        "job": job.id,
                        "state": JobState.CANCELLED.value,
                        "error": None,
                    }
                )
            self._cond.notify_all()
            return job

    def stats(self) -> dict:
        """Queue/fleet telemetry for the health endpoint."""
        incident_counts: dict[str, int] = {}
        for entry in incidents():
            kind = entry["kind"]
            incident_counts[kind] = incident_counts.get(kind, 0) + 1
        with self._lock:
            states = {}
            for job in self._jobs.values():
                states[job.state.value] = states.get(job.state.value, 0) + 1
            return {
                "jobs": states,
                "queued_tasks": len(self._heap),
                "inflight_tasks": self._inflight,
                "workers": self.workers,
                "executor": "threads" if self._thread_executor else "processes",
                "retries": sum(j.retries for j in self._jobs.values()),
                "dead_jobs": states.get(JobState.DEAD.value, 0),
                "incidents": incident_counts,
            }

    def recover(self) -> list[Job]:
        """Replay the journal: keep terminal jobs, re-queue the rest.

        Re-queued jobs go through the normal submission path (same id,
        spec, priority), so points that finished before the restart
        resolve from the content-addressed store immediately.  Returns
        the jobs that were re-queued.
        """
        if self.journal is None:
            return []
        requeued: list[Job] = []
        for job_id, job in self.journal.replay().items():
            if job.state.terminal:
                with self._lock:
                    self._jobs.setdefault(job_id, job)
                continue
            try:
                requeued.append(
                    self.submit(job.spec, priority=job.priority, job_id=job_id)
                )
            except ReproError:
                # Spec no longer resolvable (e.g. unregistered family):
                # surface it as a failed job rather than dropping it.
                with self._lock:
                    job.state = JobState.FAILED
                    job.error = "recovery failed: spec no longer resolvable"
                    self._jobs.setdefault(job_id, job)
        return requeued

    def shutdown(self, wait: bool = False) -> None:
        """Stop dispatching; queued tasks are abandoned.

        ``wait=True`` blocks until in-flight tasks finish delivering.
        """
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            timers, self._retry_timers = self._retry_timers, set()
            self._cond.notify_all()
        for timer in timers:
            timer.cancel()
        self._dispatcher.join(timeout=5.0)
        if wait:
            with self._cond:
                while self._inflight > 0:
                    self._cond.wait(timeout=0.1)
        if self._events_stop is not None:
            self._events_stop()
        if self._thread_executor is not None:
            self._thread_executor.shutdown(wait=wait, cancel_futures=True)
        if self._pool is not None and self._owns_pool:
            self._pool.shutdown()
        manager = getattr(self, "_events_manager", None)
        if manager is not None:
            manager.shutdown()
