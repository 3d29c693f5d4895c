"""Checkout pools of reusable kernel workspaces.

Every vectorized tape pass in :mod:`repro.perf.kernels` needs per-call
scratch state: a slot table (one entry per tape slot) plus, for box
kernels, prefilled constant rows.  Allocating that state on every call
is pure overhead on the narrow frontiers real branch-and-prune searches
produce, so each compiled plan keeps a :class:`BufferPool` of
:class:`Workspace` objects and *leases* one per call.

The lease discipline is strict:

* :meth:`BufferPool.acquire` hands out a workspace exclusively — a
  workspace is never visible to two live executions.  If every pooled
  workspace is leased (nested or re-entrant execution), a fresh one is
  built rather than sharing.
* :meth:`BufferPool.release` returns the workspace for reuse; releasing
  a workspace that is not leased is an error (it would let two future
  leases alias).
* Pools are bucketed by frontier size (next power of two, minimum
  :data:`MIN_BUCKET`), so a plan evaluating frontiers of 37, then 61,
  then 44 boxes reuses one 64-wide workspace instead of three
  exact-size ones.
* Free lists are **per-thread**: the portfolio's race lanes and the
  service's worker threads can run the same plan concurrently without
  locks or sharing.
* Pools are **fork-safe**: a child process starts with every free list
  empty (see :func:`_reset_pools_after_fork`), so a workspace leased in
  the parent at fork time — or sitting on the forking thread's free
  list — is never handed out again in the child while the parent still
  considers it live.  Forked :class:`~repro.api.pool.WarmPool` workers
  inherit already-compiled plans and rely on this to build their own
  per-process workspaces.

``tests/perf/test_pool.py`` pins the exclusivity, reuse, and post-fork
semantics.
"""

from __future__ import annotations

import os
import threading
import weakref
from typing import Callable

from ..errors import ReproError

__all__ = ["MIN_BUCKET", "Workspace", "BufferPool"]

#: smallest bucket width — tiny frontiers share one workspace size
MIN_BUCKET = 16


def bucket_for(m: int) -> int:
    """Smallest power-of-two bucket holding ``m`` members."""
    bucket = MIN_BUCKET
    while bucket < m:
        bucket *= 2
    return bucket


class Workspace:
    """One exclusive lease of kernel scratch state.

    ``slots`` is a plain list with one entry per tape slot — the kernel
    program's working memory.  What the entries hold is up to the plan
    that owns the pool (endpoint-array pairs for box kernels, value
    arrays for point kernels, floats for folded constants); the pool
    only guarantees the *list object* is never shared between two live
    leases, so a program may leave per-slot state behind between
    instructions without another execution clobbering it.
    """

    __slots__ = ("bucket", "slots", "data", "_leased")

    def __init__(self, bucket: int, n_slots: int):
        self.bucket = bucket
        self.slots: list = [None] * n_slots
        #: plan-private per-workspace state (e.g. prefilled constant
        #: rows of width ``bucket``), populated by the pool's ``init``
        self.data: dict = {}
        self._leased = False

    @property
    def leased(self) -> bool:
        """True while checked out of the pool."""
        return self._leased


class BufferPool:
    """Per-thread free lists of :class:`Workspace`, bucketed by size.

    Parameters
    ----------
    n_slots:
        Length of each workspace's slot table.
    init:
        Optional callback run once on every newly built workspace
        (e.g. prefill constant rows); reused leases skip it.
    """

    def __init__(self, n_slots: int, init: "Callable[[Workspace], None] | None" = None):
        self._n_slots = n_slots
        self._init = init
        self._local = threading.local()
        _LIVE_POOLS.add(self)

    def reset(self) -> None:
        """Drop every free list (all threads); leased workspaces detach.

        Used by the post-fork hook: a child inheriting this pool must
        not reuse workspaces the parent's threads still reference.
        Outstanding leases simply stop belonging to the pool — their
        holders may still :meth:`release` them, which files them into
        the fresh free lists without aliasing anything live.
        """
        self._local = threading.local()

    def _free(self) -> dict[int, list[Workspace]]:
        free = getattr(self._local, "free", None)
        if free is None:
            free = self._local.free = {}
        return free

    def acquire(self, m: int) -> Workspace:
        """Lease a workspace whose bucket holds ``m`` members.

        The returned workspace is exclusively owned by the caller until
        :meth:`release`; concurrent or nested acquires always get
        distinct workspaces.
        """
        bucket = bucket_for(m)
        stack = self._free().get(bucket)
        if stack:
            ws = stack.pop()
        else:
            ws = Workspace(bucket, self._n_slots)
            if self._init is not None:
                self._init(ws)
        ws._leased = True
        return ws

    def release(self, ws: Workspace) -> None:
        """Return a leased workspace to this thread's free list."""
        if not ws._leased:
            raise ReproError("workspace released twice (double-free would alias leases)")
        ws._leased = False
        self._free().setdefault(ws.bucket, []).append(ws)


#: every live pool, so the post-fork hook can find them without keeping
#: them alive (plans own their pools; a WeakSet never extends that).
_LIVE_POOLS: "weakref.WeakSet[BufferPool]" = weakref.WeakSet()


def _reset_pools_after_fork() -> None:
    """Child-side fork hook: start every inherited pool clean.

    The forked child shares no execution with the parent, but it *does*
    inherit the forking thread's free lists and any mid-checkout leases
    byte-for-byte.  Resetting here means the child never pops a
    workspace the parent thread also holds a (copy-on-write twin of a)
    reference to, and a lease that was live across the fork is simply
    forgotten rather than double-freed.
    """
    for pool in list(_LIVE_POOLS):
        pool.reset()


if hasattr(os, "register_at_fork"):  # pragma: no branch - CPython always has it
    os.register_at_fork(after_in_child=_reset_pools_after_fork)
