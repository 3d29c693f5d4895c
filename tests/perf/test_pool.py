"""Lease semantics of the kernel workspace pool."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import ReproError
from repro.perf import MIN_BUCKET, BufferPool
from repro.perf.pool import bucket_for


class TestBucketing:
    def test_minimum_bucket(self):
        assert bucket_for(0) == MIN_BUCKET
        assert bucket_for(1) == MIN_BUCKET
        assert bucket_for(MIN_BUCKET) == MIN_BUCKET

    def test_power_of_two_growth(self):
        assert bucket_for(MIN_BUCKET + 1) == 2 * MIN_BUCKET
        assert bucket_for(1000) == 1024

    def test_nearby_sizes_share_a_bucket(self):
        pool = BufferPool(4)
        ws = pool.acquire(37)
        pool.release(ws)
        assert pool.acquire(61) is ws  # both fit the 64 bucket


class TestLeaseExclusivity:
    def test_concurrent_leases_are_distinct(self):
        """A pooled workspace is never visible to two live frontiers."""
        pool = BufferPool(8)
        first = pool.acquire(10)
        second = pool.acquire(10)
        assert first is not second
        assert first.slots is not second.slots
        pool.release(first)
        pool.release(second)

    def test_release_then_reuse(self):
        pool = BufferPool(8)
        ws = pool.acquire(10)
        pool.release(ws)
        assert pool.acquire(10) is ws
        assert ws.leased

    def test_double_release_rejected(self):
        pool = BufferPool(8)
        ws = pool.acquire(10)
        pool.release(ws)
        with pytest.raises(ReproError):
            pool.release(ws)

    def test_slot_state_survives_release(self):
        """Plans may prefill per-workspace state once (constant rows)."""
        seen = []

        def init(ws):
            ws.data["rows"] = ["const"]
            seen.append(ws)

        pool = BufferPool(4, init=init)
        ws = pool.acquire(3)
        pool.release(ws)
        again = pool.acquire(3)
        assert again is ws
        assert again.data["rows"] == ["const"]
        assert len(seen) == 1  # init ran once, not per lease

    def test_thread_local_free_lists(self):
        """Each thread leases from its own free list (no cross-thread sharing)."""
        pool = BufferPool(4)
        ws = pool.acquire(10)
        pool.release(ws)

        from_thread: list = []

        def worker():
            other = pool.acquire(10)
            from_thread.append(other)
            pool.release(other)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert from_thread[0] is not ws


@pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fork-safety needs os.fork"
)
class TestForkSafety:
    """The post-fork hook: children never alias parent workspaces.

    Fork-started pool workers are born while the master may hold live
    leases (and populated free lists) from warming its kernel plans —
    exactly the mid-checkout state these tests freeze.
    """

    def _run_in_fork(self, child) -> None:
        pid = os.fork()
        if pid == 0:
            code = 3
            try:
                code = child()
            finally:
                os._exit(code)  # never fall through into pytest
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_fork_mid_checkout_resets_child_free_lists(self):
        pool = BufferPool(4)
        leased = pool.acquire(10)  # live lease across the fork
        parked = pool.acquire(10)
        pool.release(parked)  # populated free list across the fork

        def child() -> int:
            ws = pool.acquire(10)
            # A fresh workspace, not the parent's parked or leased one.
            if ws is parked or ws is leased:
                return 1
            pool.release(ws)
            return 0 if pool.acquire(10) is ws else 2

        self._run_in_fork(child)
        # The parent is untouched: its free list still holds `parked`.
        assert pool.acquire(10) is parked
        pool.release(leased)

    def test_lease_live_across_fork_is_forgotten_not_double_freed(self):
        pool = BufferPool(4)
        leased = pool.acquire(10)

        def child() -> int:
            # The inherited lease detached from the pool on reset; the
            # child may still release it without corrupting anything.
            pool.release(leased)
            fresh = pool.acquire(10)
            return 0 if fresh is leased else 1

        self._run_in_fork(child)

    def test_explicit_reset_drops_all_buckets(self):
        pool = BufferPool(4)
        small = pool.acquire(10)
        big = pool.acquire(1000)
        pool.release(small)
        pool.release(big)
        pool.reset()
        assert pool.acquire(10) is not small
        assert pool.acquire(1000) is not big
