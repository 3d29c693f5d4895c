"""The ``batched-icp`` engine's checker: one SoA frontier per query.

Every barrier-condition query decomposes into box subproblems
(:func:`repro.barrier.condition5_subproblems` yields the ``D \\ X0``
cover, check (7) one region per unsafe facet).  The serial backend
solves them one scalar-frontier search at a time;
:class:`BatchedSmtBackend` instead hands each *run of subproblems that
share a constraint system* to
:meth:`~repro.smt.BatchedIcpSolver.solve_union`, which seeds a single
:class:`~repro.intervals.BoxArray` frontier with all their regions and
branch-and-prunes the union: one forward interval pass per constraint
prunes each batch, and every survivor is bisected.  Unlike ``native``
it does not contract boxes (see ``docs/performance.md``, "Why
batched-icp does not contract").

Verdict combination is the serial semantics: groups are consecutive
runs, checked in order, first δ-SAT group wins, and inside a group the
union solver only reports a witness for region ``k`` once every region
``< k`` is refuted — so the counterexample-guided synthesis loop sees
the same subproblem-ordering contract as with the ``native`` engine.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..smt import BatchedIcpSolver, IcpConfig, SmtResult, Subproblem
from ..smt.result import SolverStats, Verdict

__all__ = ["BatchedSmtBackend"]


class BatchedSmtBackend:
    """δ-SAT checking on the structure-of-arrays branch-and-prune solver."""

    name = "batched-icp"

    def check(
        self,
        subproblems: Sequence[Subproblem],
        names: Sequence[str],
        config: IcpConfig | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ) -> SmtResult:
        """Group shared-constraint subproblems into union-seeded solves.

        ``should_stop`` (optional) cancels the search cooperatively —
        see :class:`~repro.smt.BatchedIcpSolver`; the ``portfolio``
        engine passes it, default callers never do.
        """
        solver = BatchedIcpSolver(config, should_stop=should_stop)
        delta = solver.config.delta
        if not subproblems:
            return SmtResult(Verdict.UNSAT, delta)
        merged = SolverStats()
        saw_unknown = False
        for constraints, regions in _shared_constraint_runs(subproblems):
            if len(regions) == 1:
                result = solver.solve(constraints, regions[0], names)
            else:
                result = solver.solve_union(constraints, regions, names)
            merged.merge(result.stats)
            if result.verdict is Verdict.DELTA_SAT:
                result.stats = merged
                return result
            if result.verdict is Verdict.UNKNOWN:
                saw_unknown = True
        verdict = Verdict.UNKNOWN if saw_unknown else Verdict.UNSAT
        return SmtResult(verdict, delta, stats=merged)


def _shared_constraint_runs(subproblems: Sequence[Subproblem]):
    """Split into consecutive runs whose constraint lists are identical.

    Identity (not equality) keeps the check cheap and is what the
    condition builders produce: one constraint object shared across the
    whole ``D \\ X0`` cover.  Consecutive grouping preserves the serial
    first-witness ordering across runs.
    """
    run_key: tuple[int, ...] | None = None
    constraints: list = []
    regions: list = []
    for sub in subproblems:
        key = tuple(id(c) for c in sub.constraints)
        if key != run_key:
            if regions:
                yield constraints, regions
            run_key = key
            constraints = list(sub.constraints)
            regions = []
        regions.append(sub.region)
    if regions:
        yield constraints, regions
