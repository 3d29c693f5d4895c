"""Warm worker pool + chunked batch dispatch."""

from __future__ import annotations

import pytest

from repro.api import (
    WarmPool,
    WarmupSpec,
    get_warm_pool,
    run_batch,
    shutdown_warm_pool,
)
from repro.api.runner import _execute_chunk
from repro.api.scenario import get_scenario


@pytest.fixture(autouse=True)
def fresh_global_pool():
    shutdown_warm_pool()
    yield
    shutdown_warm_pool()


class TestWarmupSpec:
    def test_merge_unions_in_order(self):
        a = WarmupSpec(families=("dubins",))
        b = WarmupSpec(families=("bicycle", "dubins"), scenarios=("linear",))
        merged = a.merge(b)
        assert merged.families == ("dubins", "bicycle")
        assert merged.scenarios == ("linear",)

    def test_spec_is_picklable(self):
        import pickle

        spec = WarmupSpec(families=("dubins",))
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestGlobalPool:
    def test_same_size_reuses_pool(self):
        first = get_warm_pool(2, WarmupSpec(families=("dubins",)))
        second = get_warm_pool(2, WarmupSpec(families=("bicycle",)))
        assert first is second
        assert second.warmup.families == ("dubins", "bicycle")

    def test_size_change_rebuilds(self):
        first = get_warm_pool(2)
        second = get_warm_pool(3)
        assert first is not second
        assert second.workers == 3

    def test_shutdown_clears(self):
        pool = get_warm_pool(2)
        shutdown_warm_pool()
        assert get_warm_pool(2) is not pool

    def test_executor_survives_across_dispatches(self):
        pool = get_warm_pool(2)
        executor = pool.executor
        assert pool.executor is executor

    def test_broken_executor_self_heals(self):
        """A crashed worker must not poison the pool for later calls."""
        import os
        from concurrent.futures.process import BrokenProcessPool

        pool = get_warm_pool(2)
        with pytest.raises(BrokenProcessPool):
            pool.executor.submit(os._exit, 1).result()
        # The next access replaces the broken executor and works again.
        assert pool.executor.submit(max, 2, 3).result() == 3

    def test_stable_sizing_across_sweep_miss_counts(self, tmp_path, monkeypatch):
        """Sweeps with different miss counts must reuse one pool."""
        import importlib

        sweep_module = importlib.import_module("repro.api.sweep")
        sizes: list[int] = []
        real = sweep_module.get_warm_pool

        def recording(workers, warmup=None):
            sizes.append(workers)
            return real(workers, warmup)

        monkeypatch.setattr(sweep_module, "get_warm_pool", recording)
        monkeypatch.setattr(sweep_module.os, "cpu_count", lambda: 4)
        sweep = sweep_module.sweep
        from repro.store import ArtifactStore

        store = ArtifactStore(tmp_path / "store")
        sweep("linear", grid={"damping": "0.5,0.6"}, cache=store)
        sweep("linear", grid={"damping": "0.65,0.7,0.75"}, cache=store)
        # Both dispatches asked for the same (machine-sized) pool even
        # though the second sweep had a different miss count.
        assert len(set(sizes)) == 1


class TestThreadSafety:
    """The service shares one pool across concurrent jobs: racing the
    lazy executor build, re-warms, and shutdowns must never leak an
    executor or deadlock."""

    def test_concurrent_executor_access_builds_exactly_one(self):
        import threading

        pool = WarmPool(2)
        try:
            barrier = threading.Barrier(8)
            seen: list[object] = []

            def grab():
                barrier.wait(timeout=10)
                seen.append(pool.executor)

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert len(seen) == 8
            assert len({id(e) for e in seen}) == 1
        finally:
            pool.shutdown()

    def test_concurrent_ensure_warm_and_access(self):
        import threading

        pool = WarmPool(2)
        try:
            stop = threading.Event()
            errors: list[BaseException] = []

            def churn(spec):
                while not stop.is_set():
                    try:
                        pool.ensure_warm(spec)
                        pool.executor  # noqa: B018 - exercising the race
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        return

            threads = [
                threading.Thread(
                    target=churn, args=(WarmupSpec(families=(name,)),)
                )
                for name in ("linear", "dubins", "bicycle")
            ]
            for t in threads:
                t.start()
            import time

            time.sleep(0.5)
            stop.set()
            for t in threads:
                t.join(timeout=30)
            assert errors == []
            # All specs merged, no executor lost along the way.
            assert set(pool.warmup.families) == {"linear", "dubins", "bicycle"}
            assert pool.executor.submit(max, 1, 2).result() == 2
        finally:
            pool.shutdown()

    def test_shutdown_races_with_access(self):
        import threading

        pool = WarmPool(2)
        try:
            barrier = threading.Barrier(2)

            def shut():
                barrier.wait(timeout=10)
                pool.shutdown()

            thread = threading.Thread(target=shut)
            thread.start()
            barrier.wait(timeout=10)
            # Whichever side wins the race, the pool ends up usable.
            executor = pool.executor
            thread.join(timeout=30)
            assert executor is not None
            assert pool.executor.submit(max, 4, 5).result() == 5
        finally:
            pool.shutdown()

    def test_concurrent_global_pool_getters_agree(self):
        import threading

        results: list[object] = []
        barrier = threading.Barrier(6)

        def grab():
            barrier.wait(timeout=10)
            results.append(get_warm_pool(2))

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len({id(p) for p in results}) == 1


class TestChunkedDispatch:
    def test_execute_chunk_runs_each_payload(self):
        from repro.engine import get_engine

        scenario = get_scenario("linear")
        engine = get_engine("native")
        payloads = [(scenario, scenario.config, engine)] * 2
        artifacts = _execute_chunk(payloads, False)
        assert len(artifacts) == 2
        assert all(a.scenario == "linear" for a in artifacts)
        assert all(a.report is None for a in artifacts)  # stripped for transport

    def test_negative_chunksize_rejected(self):
        with pytest.raises(ValueError):
            run_batch(
                ["linear", "double-integrator"], workers=2, chunksize=0
            )

    def test_broken_pool_is_shut_down_for_later_callers(self):
        """run_batch on a pool whose worker dies heals the pool."""
        import os
        from concurrent.futures.process import BrokenProcessPool

        pool = get_warm_pool(2)
        # Kill the executor out from under the dispatch.
        pool.executor.submit(os._exit, 1)
        try:
            run_batch(
                ["linear", "double-integrator"], workers=2, seed=1, pool=pool
            )
        except BrokenProcessPool:
            pass  # the poisoned dispatch itself may fail either way
        # Later callers must get a working pool again.
        artifacts = run_batch(
            ["linear", "double-integrator"], workers=2, seed=1, pool=pool
        )
        assert [a.scenario for a in artifacts] == ["linear", "double-integrator"]
        assert all(a.status != "error" for a in artifacts)

    @pytest.mark.parametrize("chunksize", [1, 2, 5])
    def test_run_batch_chunked_matches_serial(self, chunksize):
        names = ["linear", "double-integrator"]
        serial = run_batch(names, workers=1, seed=11)
        chunked = run_batch(
            names, workers=2, seed=11, chunksize=chunksize,
            pool=get_warm_pool(2),
        )
        assert [a.scenario for a in chunked] == [a.scenario for a in serial]
        for a, b in zip(serial, chunked):
            assert a.status == b.status
            assert a.verified == b.verified
            if a.level is not None:
                assert a.level == b.level

    def test_run_batch_with_private_pool(self):
        pool = WarmPool(2, WarmupSpec(scenarios=("linear",)))
        try:
            artifacts = run_batch(
                ["linear", "linear"], workers=2, seed=3, pool=pool
            )
            assert len(artifacts) == 2
            assert all(a.status != "error" for a in artifacts)
            # The pool is still usable afterwards (run_batch must not
            # shut down an externally owned executor).
            again = run_batch(["linear"], workers=2, seed=3, pool=pool)
            # single scenario short-circuits inline; force remote path
            assert len(again) == 1
        finally:
            pool.shutdown()

    def test_seeded_artifacts_identical_across_pool_and_fresh(self):
        seeded = run_batch(["linear"], workers=1, seed=123)[0]
        pooled = run_batch(
            ["linear", "double-integrator"], workers=2, seed=123,
            pool=get_warm_pool(2),
        )[0]
        assert seeded.level == pooled.level
        assert seeded.config == pooled.config
