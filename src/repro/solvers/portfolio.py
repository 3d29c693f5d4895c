"""The ``portfolio`` engine: external solvers raced against batched ICP.

Every δ-SAT check is submitted simultaneously to the in-house ICP lane
(:class:`~repro.engine.batched.BatchedSmtBackend`) and to every available
external solver that supports the query's operator set.  The first
definitive verdict (UNSAT or DELTA_SAT) wins; the losers are cancelled
— external subprocesses are killed, the native search stops at its next
frontier batch via the cooperative ``should_stop`` hook.

Two contracts matter more than the racing:

* **Exact degrade.**  With no external binaries installed (or none that
  support the query), ``check`` delegates *verbatim* to the batched
  backend — same call, no cancel hook — so verdicts, witnesses, stats
  and therefore cached run artifacts are byte-identical to
  ``--engine batched-icp``.  The acceptance tests pin this on all seven
  builtin scenarios.
* **Attributable verdicts.**  When an external solver decides a check,
  its identity + version is recorded (thread-locally, per run) so
  :mod:`repro.api` can fold the solver fingerprint into the
  :mod:`repro.store` run key — an artifact produced by z3 never
  collides with a pure-ICP one.

When native wins a race it may have been helped by externals losing
(nothing changes) — but note a race winner is whichever *finishes
first*, so with externals installed the engine is intentionally
nondeterministic in *which* sound verdict it returns, never in whether
the verdict is sound.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Sequence

from ..errors import SolverError
from ..smt import IcpConfig, SmtResult, Subproblem
from ..smt.result import Verdict
from .backends import (
    DEFAULT_TIMEOUT,
    ExternalSolver,
    external_solvers,
    solver_breaker,
)
from .smtlib import SmtLibQuery, emit_query

__all__ = ["PortfolioSmtBackend", "effective_timeout", "solver_fingerprint"]

_DEFINITIVE = (Verdict.UNSAT, Verdict.DELTA_SAT)


def effective_timeout(config: IcpConfig) -> float:
    """External-solve wall-clock budget for one check.

    ``solver_timeout`` wins; otherwise the ICP ``time_limit`` doubles as
    the budget (racers should not outlive the native search by much);
    otherwise :data:`~repro.solvers.backends.DEFAULT_TIMEOUT`.
    """
    if config.solver_timeout is not None:
        return config.solver_timeout
    if config.time_limit is not None:
        return config.time_limit
    return DEFAULT_TIMEOUT


def solver_fingerprint(
    solvers: "Sequence[ExternalSolver] | None" = None,
) -> str:
    """Identity string of every *available* external solver.

    Sorted ``name-version`` entries joined with ``;`` — e.g.
    ``"dreal-4.21.06.2;z3-4.13.0"`` — or ``""`` when nothing is
    installed.  :mod:`repro.api` mixes this into the run key whenever a
    run actually used an external verdict.
    """
    pool = external_solvers() if solvers is None else solvers
    entries = []
    for solver in pool:
        info = solver.probe()
        if not info.available:
            continue
        # An open circuit is part of the portfolio's effective identity:
        # a verdict decided while a flapping solver was being skipped
        # must not share a cache key with one decided by the full pool.
        suffix = (
            "!open"
            if solver_breaker(info.name).state == "open"
            else ""
        )
        entries.append(f"{info.name}-{info.version}{suffix}")
    return ";".join(sorted(entries))


class PortfolioSmtBackend:
    """SMT backend racing external solvers against the batched ICP.

    Parameters
    ----------
    solvers:
        Adapter pool; None means the live registry
        (:func:`repro.solvers.backends.external_solvers`) is consulted
        at every check, so registering a solver takes effect immediately.
    native:
        In-house backend to race (and degrade to).  Must accept
        ``check(..., should_stop=)``; defaults to
        :class:`~repro.engine.batched.BatchedSmtBackend`.
    """

    name = "portfolio"

    def __init__(
        self,
        solvers: "Sequence[ExternalSolver] | None" = None,
        native=None,
    ):
        self._solvers = tuple(solvers) if solvers is not None else None
        self._native = native
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Run-scoped external-usage accounting (thread-local: the service
    # layer checks many runs concurrently through one shared backend).
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset the external-usage record for the calling thread's run."""
        self._local.used = []

    def external_solvers_used(self) -> tuple[str, ...]:
        """``name-version`` of solvers whose verdicts decided checks
        since :meth:`begin_run` (deduplicated, first-use order)."""
        return tuple(dict.fromkeys(getattr(self._local, "used", ())))

    def solver_fingerprint(self) -> str:
        """Identity of this backend's *available* external solvers.

        :mod:`repro.api` folds this into the run key whenever
        :meth:`external_solvers_used` is non-empty after a run.
        """
        return solver_fingerprint(self._pool())

    # ------------------------------------------------------------------
    # Introspection for `repro engines --json` / `repro solvers`
    # ------------------------------------------------------------------
    def availability(self) -> tuple[bool, str]:
        """Engine availability: always usable, reason says at what level.

        The portfolio never *fails* to load — with zero external
        binaries it silently becomes ``batched-icp`` — so ``available``
        is True and the reason spells out which racers are live.
        """
        infos = [solver.probe() for solver in self._pool()]
        ready = [i for i in infos if i.available]
        if ready:
            racers = ", ".join(f"{i.name} {i.version}" for i in ready)
            return True, f"racing {racers} against batched-icp"
        missing = "; ".join(f"{i.name}: {i.reason}" for i in infos)
        return True, f"no external solvers ({missing}); batched-icp only"

    def _pool(self) -> "tuple[ExternalSolver, ...]":
        if self._solvers is not None:
            return self._solvers
        return external_solvers()

    def _native_backend(self):
        native = self._native
        if native is None:
            from ..engine.batched import BatchedSmtBackend  # avoid import cycle

            native = self._native = BatchedSmtBackend()
        return native

    # ------------------------------------------------------------------
    # The check itself
    # ------------------------------------------------------------------
    def check(
        self,
        subproblems: Sequence[Subproblem],
        names: Sequence[str],
        config: "IcpConfig | None" = None,
    ) -> SmtResult:
        """Race the query; degrade to the batched backend when alone.

        The degrade path is the *identical* call ``batched-icp`` makes —
        no cancel hook, no wrapper — which is what keeps artifacts
        byte-identical without external binaries.
        """
        config = config or IcpConfig()
        native = self._native_backend()
        if not subproblems:
            return native.check(subproblems, names, config)
        runnable: list[ExternalSolver] = [
            solver for solver in self._pool() if solver.probe().available
        ]
        query: "SmtLibQuery | None" = None
        if runnable:
            try:
                query = emit_query(subproblems, names, config.delta)
            except SolverError:
                runnable = []
            else:
                runnable = [s for s in runnable if s.supports(query.ops)]
                # Circuit-breaker gate, last so allow()'s half-open
                # probe slot is only claimed by a solver that will
                # actually race (and therefore report an outcome).
                admitted = []
                for solver in runnable:
                    if solver_breaker(solver.name).allow():
                        admitted.append(solver)
                    else:
                        from ..resilience.supervisor import record_incident

                        record_incident(
                            "breaker.skip",
                            f"portfolio skipped {solver.name} (circuit open)",
                        )
                runnable = admitted
        if not runnable or query is None:
            return native.check(subproblems, names, config)
        return self._race(native, runnable, query, subproblems, names, config)

    def _race(
        self,
        native,
        runnable: "list[ExternalSolver]",
        query: SmtLibQuery,
        subproblems: Sequence[Subproblem],
        names: Sequence[str],
        config: IcpConfig,
    ) -> SmtResult:
        timeout = effective_timeout(config)
        cancel = threading.Event()
        native_result: "SmtResult | None" = None
        native_error: "BaseException | None" = None
        winner: "tuple[ExternalSolver | None, SmtResult] | None" = None
        with ThreadPoolExecutor(
            max_workers=1 + len(runnable), thread_name_prefix="portfolio"
        ) as pool:
            futures = {
                pool.submit(
                    native.check,
                    subproblems,
                    names,
                    config,
                    should_stop=cancel.is_set,
                ): None
            }
            for solver in runnable:
                futures[
                    pool.submit(self._external_check, solver, query, timeout, cancel)
                ] = solver
            pending = set(futures)
            while pending and winner is None:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    solver = futures[future]
                    try:
                        result = future.result()
                    except BaseException as exc:  # noqa: BLE001 - rethrown below
                        if solver is None:
                            native_error = exc
                        continue
                    if solver is None:
                        native_result = result
                    if (
                        winner is None
                        and result is not None
                        and result.verdict in _DEFINITIVE
                    ):
                        winner = (solver, result)
            # Stop all losers before the executor join: subprocesses are
            # killed via `cancel`, the native search exits at its next
            # frontier poll.
            cancel.set()
        if winner is not None:
            solver, result = winner
            if solver is None:
                return result  # native verdict, untouched
            info = solver.probe()
            used = getattr(self._local, "used", None)
            if used is not None:
                used.append(f"{info.name}-{info.version}")
            return result
        if native_error is not None:
            raise native_error
        if native_result is not None:
            return native_result
        return SmtResult(Verdict.UNKNOWN, config.delta)

    @staticmethod
    def _external_check(
        solver: ExternalSolver,
        query: SmtLibQuery,
        timeout: float,
        cancel: threading.Event,
    ) -> "SmtResult | None":
        """One racer: None on any solver-side failure (never fatal)."""
        try:
            return solver.solve(query, timeout=timeout, cancel=cancel)
        except SolverError:
            return None
