"""Scheduler behaviour: caching, coalescing, cancellation, recovery."""

from __future__ import annotations

import threading
import time

import pytest

from repro import api
from repro.api.family import get_family
from repro.api.scenario import register_scenario, unregister_scenario
from repro.errors import ReproError
from repro.service import EventBus, JobState, Scheduler
from repro.service import scheduler as scheduler_module
from repro.store import ArtifactStore

GRID = {"damping": "0.4:0.8:3"}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def make_scheduler(store, **kwargs):
    kwargs.setdefault("pool", False)
    kwargs.setdefault("workers", 2)
    return Scheduler(store, **kwargs)


def wait_terminal(scheduler, job_id, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = scheduler.job(job_id)
        if job.state.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} still {scheduler.job(job_id).state}")


@pytest.fixture
def gate(monkeypatch):
    """Block every worker dispatch until released (thread mode only)."""
    event = threading.Event()
    real = scheduler_module._run_point

    def gated(*args, **kwargs):
        event.wait(timeout=30)
        return real(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "_run_point", gated)
    yield event
    event.set()


class TestSubmit:
    def test_grid_job_runs_to_done(self, store):
        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit({"target": "linear", "grid": GRID})
            assert job.total_points == 3
            assert job.dispatched == 3
            assert job.cached_points == 0
            job = wait_terminal(scheduler, job.id)
            assert job.state is JobState.DONE
            assert all(a is not None for a in job.artifacts)
            assert all(a.verified for a in job.artifacts)
            assert store.stats().artifacts == 3
        finally:
            scheduler.shutdown(wait=True)

    def test_warm_resubmission_is_all_cache_no_dispatch(self, store):
        scheduler = make_scheduler(store)
        try:
            first = scheduler.submit({"target": "linear", "grid": GRID})
            wait_terminal(scheduler, first.id)
            second = scheduler.submit({"target": "linear", "grid": GRID})
            # Resolved synchronously inside submit: no worker dispatch.
            assert second.state is JobState.DONE
            assert second.cached_points == second.total_points == 3
            assert second.dispatched == 0
            assert all(a.cached for a in second.artifacts)
        finally:
            scheduler.shutdown(wait=True)

    def test_artifacts_byte_identical_to_direct_api_run(self, store):
        """Service results land in the shared store such that a direct
        ``api.run`` of the same point returns the identical bytes."""
        import dataclasses

        from repro.api.runner import derive_scenario_seed

        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit({"target": "linear", "grid": GRID})
            job = wait_terminal(scheduler, job.id)
        finally:
            scheduler.shutdown(wait=True)
        family = get_family("linear")
        for params, artifact in zip(job.params, job.artifacts):
            scenario = family.instantiate(**params)
            config = dataclasses.replace(
                scenario.config,
                seed=derive_scenario_seed(0, scenario.name),
            )
            direct = api.run(scenario, config=config, cache=store)
            assert direct.cached
            assert direct.to_json() == artifact.to_json()

    def test_scenario_target_single_point(self, store):
        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit({"target": "linear", "samples": 2, "seed": 3})
            assert job.total_points == 2
            job = wait_terminal(scheduler, job.id)
            assert job.state is JobState.DONE
        finally:
            scheduler.shutdown(wait=True)

    def test_invalid_target_rejected_before_queueing(self, store):
        scheduler = make_scheduler(store)
        try:
            with pytest.raises(ReproError):
                scheduler.submit({"target": "no-such-family"})
            assert scheduler.jobs() == []
        finally:
            scheduler.shutdown()

    def test_duplicate_job_id_rejected(self, store):
        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit(
                {"target": "linear", "grid": {"damping": [0.5]}}
            )
            with pytest.raises(ReproError, match="already exists"):
                scheduler.submit(
                    {"target": "linear", "grid": {"damping": [0.5]}},
                    job_id=job.id,
                )
        finally:
            scheduler.shutdown(wait=True)

    def test_unknown_job_raises(self, store):
        scheduler = make_scheduler(store)
        try:
            with pytest.raises(ReproError, match="unknown job"):
                scheduler.job("job-nope")
        finally:
            scheduler.shutdown()


class TestCoalescing:
    def test_identical_inflight_keys_coalesce(self, store, gate):
        scheduler = make_scheduler(store)
        try:
            first = scheduler.submit({"target": "linear", "grid": GRID})
            second = scheduler.submit({"target": "linear", "grid": GRID})
            # Workers are gated, so every one of second's keys is still
            # in flight: nothing re-dispatches.
            assert second.dispatched == 0
            assert second.coalesced == 3
            gate.set()
            first = wait_terminal(scheduler, first.id)
            second = wait_terminal(scheduler, second.id)
            assert first.state is JobState.DONE
            assert second.state is JobState.DONE
            assert [a.to_json() for a in first.artifacts] == [
                a.to_json() for a in second.artifacts
            ]
        finally:
            gate.set()
            scheduler.shutdown(wait=True)

    def test_completion_racing_the_store_lookup_does_not_redispatch(
        self, store, monkeypatch
    ):
        """A task that finishes after a submit's store lookup missed, but
        before the submit takes the lock, is read back from the store."""
        scheduler = make_scheduler(store)
        try:
            first = scheduler.submit({"target": "linear", "grid": GRID})
            submitter = threading.get_ident()
            real_get = store.get

            def stale_get(key):
                if threading.get_ident() != submitter:
                    return real_get(key)  # the workers' own lookups
                monkeypatch.setattr(store, "get", real_get)
                wait_terminal(scheduler, first.id)
                return None

            monkeypatch.setattr(store, "get", stale_get)
            second = scheduler.submit({"target": "linear", "grid": GRID})
            assert second.dispatched == 0
            assert second.cached_points == 3
            assert second.state is JobState.DONE
        finally:
            scheduler.shutdown(wait=True)

    def test_priority_orders_the_queue(self, store, gate):
        scheduler = make_scheduler(store, workers=1)
        try:
            low = scheduler.submit(
                {"target": "linear", "grid": {"damping": [0.41]}}, priority=0
            )
            high = scheduler.submit(
                {"target": "linear", "grid": {"damping": [0.82]}}, priority=5
            )
            with scheduler._lock:
                heap = sorted(scheduler._heap)
            assert heap[0][0] == -5  # the high-priority task pops first
            gate.set()
            wait_terminal(scheduler, low.id)
            wait_terminal(scheduler, high.id)
        finally:
            gate.set()
            scheduler.shutdown(wait=True)


class TestCancellation:
    def test_cancel_queued_job(self, store, gate):
        scheduler = make_scheduler(store, workers=1)
        try:
            job = scheduler.submit({"target": "linear", "grid": GRID})
            cancelled = scheduler.cancel(job.id)
            assert cancelled.state is JobState.CANCELLED
            assert cancelled.cancel_requested
            gate.set()
            # The in-flight point may still complete into the store, but
            # the job must stay CANCELLED.
            time.sleep(0.2)
            assert scheduler.job(job.id).state is JobState.CANCELLED
        finally:
            gate.set()
            scheduler.shutdown(wait=True)

    def test_cancel_terminal_job_is_noop(self, store):
        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit(
                {"target": "linear", "grid": {"damping": [0.5]}}
            )
            wait_terminal(scheduler, job.id)
            again = scheduler.cancel(job.id)
            assert again.state is JobState.DONE
        finally:
            scheduler.shutdown(wait=True)

    def test_cancel_unknown_job_raises(self, store):
        scheduler = make_scheduler(store)
        try:
            with pytest.raises(ReproError, match="unknown job"):
                scheduler.cancel("job-nope")
        finally:
            scheduler.shutdown()

    def test_cancelled_waiter_does_not_block_other_jobs(self, store, gate):
        scheduler = make_scheduler(store, workers=1)
        try:
            doomed = scheduler.submit({"target": "linear", "grid": GRID})
            survivor = scheduler.submit({"target": "linear", "grid": GRID})
            scheduler.cancel(doomed.id)
            gate.set()
            survivor = wait_terminal(scheduler, survivor.id)
            assert survivor.state is JobState.DONE
            assert scheduler.job(doomed.id).state is JobState.CANCELLED
        finally:
            gate.set()
            scheduler.shutdown(wait=True)


class TestFailure:
    @pytest.fixture
    def failing_scenario(self):
        base = get_family("linear").instantiate()
        import dataclasses

        def explode():
            raise RuntimeError("injected factory failure")

        scenario = dataclasses.replace(
            base, name="svc-test-failing", system_factory=explode
        )
        register_scenario(scenario, replace=True)
        yield scenario
        unregister_scenario("svc-test-failing")

    def test_error_point_fails_the_job(self, store, failing_scenario):
        scheduler = make_scheduler(store)
        try:
            job = scheduler.submit({"target": "svc-test-failing"})
            job = wait_terminal(scheduler, job.id)
            assert job.state is JobState.FAILED
            assert "injected factory failure" in (job.error or "")
        finally:
            scheduler.shutdown(wait=True)


class TestEventsAndStats:
    def test_point_and_job_events_published(self, store):
        bus = EventBus()
        scheduler = make_scheduler(store, events=bus)
        try:
            job = scheduler.submit(
                {"target": "linear", "grid": {"damping": [0.5]}}
            )
            wait_terminal(scheduler, job.id)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                types = {e["type"] for e in bus.history(job.id)}
                if {"point", "job"} <= types:
                    break
                time.sleep(0.05)
            events = bus.history(job.id)
            types = {e["type"] for e in events}
            assert {"stage", "point", "job"} <= types
            final = [e for e in events if e["type"] == "job"][-1]
            assert final["state"] == "DONE"
        finally:
            scheduler.shutdown(wait=True)

    def test_stats_shape(self, store):
        scheduler = make_scheduler(store)
        try:
            stats = scheduler.stats()
            assert stats["workers"] == 2
            assert stats["executor"] == "threads"
            assert stats["queued_tasks"] == 0
        finally:
            scheduler.shutdown()


class TestRecovery:
    def test_terminal_jobs_survive_restart(self, store):
        first = make_scheduler(store, journal=True)
        try:
            job = first.submit({"target": "linear", "grid": GRID})
            job = wait_terminal(first, job.id)
        finally:
            first.shutdown(wait=True)

        second = make_scheduler(store, journal=True)
        try:
            requeued = second.recover()
            assert requeued == []
            recovered = second.job(job.id)
            assert recovered.state is JobState.DONE
            # Artifacts hydrate from the content-addressed store by key.
            artifacts = second.job_result(job.id)
            assert all(a is not None for a in artifacts)
            assert [a.to_json() for a in artifacts] == [
                a.to_json() for a in job.artifacts
            ]
        finally:
            second.shutdown(wait=True)

    def test_interrupted_job_requeues_to_same_final_state(self, store, gate):
        first = make_scheduler(store, journal=True, workers=1)
        job = first.submit({"target": "linear", "grid": GRID})
        job_id = job.id
        # Simulated crash: shut down with the job still unfinished.
        first.shutdown(wait=False)
        gate.set()

        second = make_scheduler(store, journal=True)
        try:
            requeued = second.recover()
            assert [j.id for j in requeued] == [job_id]
            recovered = wait_terminal(second, job_id)
            assert recovered.state is JobState.DONE
            assert recovered.total_points == 3
        finally:
            second.shutdown(wait=True)

        # The journal itself replays to the same final state.
        assert second.journal.replay()[job_id].state is JobState.DONE

    def test_recover_without_journal_is_noop(self, store):
        scheduler = make_scheduler(store)
        try:
            assert scheduler.recover() == []
        finally:
            scheduler.shutdown()


class TestShutdown:
    def test_submit_after_shutdown_raises(self, store):
        scheduler = make_scheduler(store)
        scheduler.shutdown()
        with pytest.raises(ReproError, match="shut down"):
            scheduler.submit({"target": "linear", "grid": {"damping": [0.5]}})
