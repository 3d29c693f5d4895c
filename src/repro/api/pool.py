"""Persistent warm worker pools for batch and sweep dispatch.

:func:`repro.api.run_batch` historically built a fresh
``ProcessPoolExecutor`` per call: every sweep paid worker start-up —
process spawn, interpreter + NumPy/SciPy imports on spawn-start
platforms, registry construction — before the first real solve.  A
:class:`WarmPool` keeps one executor alive across dispatches and runs a
:class:`WarmupSpec` in every worker's initializer, which imports the
full stack and exercises the family's scenario-construction and
tape-compilation code paths once (lazy imports, ufunc set-up, code
generation) before the first task arrives.  Compiled tapes are cached
per system instance, so per-scenario compilation still happens per
task — the warm-up amortizes the process- and module-level costs, not
the per-scenario ones.

:func:`get_warm_pool` maintains the process-global pool the sweep
runner uses: reused while the worker count matches, re-warmed (best
effort) when a new family shows up, and shut down automatically at
interpreter exit.  Everything here is optional — ``run_batch`` without
a ``pool`` argument behaves exactly as before.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass

__all__ = [
    "WarmupSpec",
    "WarmPool",
    "executor_worker_pids",
    "get_warm_pool",
    "kill_executor_workers",
    "shutdown_warm_pool",
]


def executor_worker_pids(executor: "Executor | None") -> tuple[int, ...]:
    """PIDs of a ``ProcessPoolExecutor``'s live workers (best effort).

    Reads CPython's private ``_processes`` map — the only handle the
    executor exposes to its children.  Used by the chunk supervisor to
    reap wedged workers and by fault injection to pick a victim; both
    tolerate an empty answer on future CPython layouts.
    """
    procs = getattr(executor, "_processes", None)
    if not procs:
        return ()
    return tuple(pid for pid in list(procs) if isinstance(pid, int))


def kill_executor_workers(executor: "Executor | None") -> int:
    """SIGKILL every worker of ``executor`` (best effort); returns count.

    The recovery path for a *wedged* pool: ``Executor.shutdown`` only
    asks workers to exit, which a stopped or spinning worker never will
    — SIGKILL is the one signal that always lands.  Callers abandon the
    executor right after, so half-finished tasks are resubmitted
    elsewhere (chunk execution is idempotent: results are
    content-addressed or recomputed).
    """
    killed = 0
    for pid in executor_worker_pids(executor):
        try:
            os.kill(pid, signal.SIGKILL)
            killed += 1
        except OSError:  # already gone
            pass
    return killed


@dataclass(frozen=True)
class WarmupSpec:
    """Picklable description of what each worker pre-compiles at start.

    ``families``/``scenarios`` are registry names; unknown names are
    skipped (warm-up is best effort and must never fail a dispatch).
    """

    families: tuple[str, ...] = ()
    scenarios: tuple[str, ...] = ()

    def merge(self, other: "WarmupSpec") -> "WarmupSpec":
        """Union of two specs, preserving first-seen order."""
        def union(a, b):
            return a + tuple(x for x in b if x not in a)

        return WarmupSpec(
            families=union(self.families, other.families),
            scenarios=union(self.scenarios, other.scenarios),
        )


#: the most recently merged warm-up spec, module-global so fork-started
#: workers spawned *after* an ensure_warm pick it up: the executor's
#: ``initargs`` are frozen at construction, but a forked child copies
#: this module's state at spawn time.  (Spawn-start platforms re-import
#: the module fresh and fall back to the construction-time initargs.)
_CURRENT_WARMUP = WarmupSpec()


def _warm_initializer(spec: WarmupSpec) -> None:
    """Worker initializer: warm the construction spec + any later merges."""
    _prewarm(spec.merge(_CURRENT_WARMUP))


def _prewarm(spec: WarmupSpec) -> None:
    """Run inside a worker: import the stack and compile scenario tapes."""
    # The imports alone are the bulk of a cold worker's start-up cost on
    # spawn-start platforms (fork inherits them for free).
    from . import family as family_module
    from . import scenario as scenario_module

    def warm_scenario(scenario) -> None:
        problem = scenario.problem()
        for tape in problem.system.tapes():
            tape.point_function()

    for name in spec.families:
        try:
            warm_scenario(family_module.get_family(name).instantiate())
        except Exception:  # noqa: BLE001 - warm-up must never break dispatch
            pass
    for name in spec.scenarios:
        try:
            warm_scenario(scenario_module.get_scenario(name))
        except Exception:  # noqa: BLE001 - warm-up must never break dispatch
            pass


class WarmPool:
    """A reusable ``ProcessPoolExecutor`` with pre-warmed workers."""

    def __init__(self, workers: int, warmup: WarmupSpec | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.warmup = warmup or WarmupSpec()
        self._executor: ProcessPoolExecutor | None = None
        # Serializes executor build/rebuild/teardown: the service shares
        # one pool across concurrent jobs, and two threads racing the
        # lazy construction (or an ensure_warm racing a self-heal
        # rebuild) would leak a whole ProcessPoolExecutor.
        self._lock = threading.RLock()

    @property
    def executor(self) -> Executor:
        """The live executor (workers started lazily on first use).

        A broken executor (a worker died mid-task, e.g. OOM-killed) is
        replaced with a fresh one here: the call that hit the crash
        still raised, but the pool must not stay poisoned for every
        later dispatch the way a plain long-lived executor would.
        Thread-safe: concurrent callers observe exactly one executor.
        """
        with self._lock:
            if self._executor is not None and getattr(
                self._executor, "_broken", False
            ):
                self.shutdown()
            if self._executor is None:
                global _CURRENT_WARMUP
                _CURRENT_WARMUP = _CURRENT_WARMUP.merge(self.warmup)
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    initializer=_warm_initializer,
                    initargs=(self.warmup,),
                )
            return self._executor

    def ensure_warm(self, spec: WarmupSpec) -> None:
        """Best-effort re-warm for an additional spec (thread-safe).

        Already-running workers get fire-and-forget ``_prewarm`` tasks
        (there is no way — nor need — to target each worker exactly
        once); workers the executor spawns later pick the merged spec up
        through the module-global snapshot a forked child inherits.
        """
        global _CURRENT_WARMUP
        with self._lock:
            merged = self.warmup.merge(spec)
            if merged == self.warmup:
                return
            self.warmup = merged
            _CURRENT_WARMUP = _CURRENT_WARMUP.merge(spec)
            if self._executor is not None and not getattr(
                self._executor, "_broken", False
            ):
                for _ in range(self.workers):
                    self._executor.submit(_prewarm, spec)

    def shutdown(self, cancel: bool = True) -> None:
        """Stop the workers (the next use starts fresh ones).

        ``cancel=False`` lets already-submitted work finish in the old
        executor's processes (used when the global pool is *replaced*
        while another thread may still be awaiting its futures —
        cancelling those would surface as an unrelated CancelledError
        in that thread's dispatch).  Thread-safe against concurrent
        ``executor`` rebuilds and ``ensure_warm`` calls.
        """
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=cancel)
                self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "live" if self._executor is not None else "idle"
        return f"<WarmPool workers={self.workers} {state}>"


_GLOBAL_POOL: WarmPool | None = None
_GLOBAL_POOL_LOCK = threading.Lock()


def get_warm_pool(workers: int, warmup: WarmupSpec | None = None) -> WarmPool:
    """The process-global warm pool, (re)sized to ``workers``.

    Reuses the existing pool (and its warm workers) when the size
    matches, merging any new warm-up spec into it; a size change shuts
    the old pool down and builds a new one.  Thread-safe: concurrent
    callers with the same size always receive the same pool.
    """
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        if _GLOBAL_POOL is None or _GLOBAL_POOL.workers != workers:
            if _GLOBAL_POOL is not None:
                # Replacement, not teardown: another thread may still be
                # awaiting futures on the old executor — let them drain.
                _GLOBAL_POOL.shutdown(cancel=False)
            _GLOBAL_POOL = WarmPool(workers, warmup)
        elif warmup is not None:
            _GLOBAL_POOL.ensure_warm(warmup)
        return _GLOBAL_POOL


def shutdown_warm_pool() -> None:
    """Tear down the global pool (no-op when none is live)."""
    global _GLOBAL_POOL
    with _GLOBAL_POOL_LOCK:
        if _GLOBAL_POOL is not None:
            _GLOBAL_POOL.shutdown()
            _GLOBAL_POOL = None


atexit.register(shutdown_warm_pool)
