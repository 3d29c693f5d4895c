"""Branch-and-prune δ-satisfiability solver (the dReal replacement).

Decides existential queries ``∃x ∈ box : c1(x) ∧ ... ∧ ck(x)`` over
nonlinear real constraints:

* **UNSAT** — every leaf box of the search tree was pruned by a sound
  interval bound: a proof that no solution exists.
* **DELTA_SAT** — some box either certainly satisfies every constraint,
  or shrank below the width tolerance δ without being refuted; its
  midpoint is the returned witness (dReal's "model").

The frontier is processed in batches through the compiled expression
tapes (:class:`repro.expr.CompiledExpression`), so pruning hundreds of
boxes costs one vectorized pass per constraint.  An HC4 contraction
pass (:mod:`repro.smt.contractor`) then narrows each surviving box
before it is bisected.  This scalar solver is the ``native`` engine's
reference oracle; the ``batched-icp`` fast path
(:mod:`repro.smt.icp_batched`) prunes by the forward pass alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import SolverError
from ..intervals import Box
from .constraint import Constraint, Status
from .contractor import contract_fixpoint
from .result import SmtResult, SolverStats, Verdict

__all__ = ["IcpConfig", "IcpSolver", "solve_conjunction"]

#: fixpoint rounds per HC4 contraction call
_CONTRACTOR_ROUNDS = 2
#: skip contraction when a constraint exceeds this many expression nodes
#: (``CompiledExpression.n_nodes``, counted before value numbering, which
#: is what the limit was tuned on): scalar HC4 on huge NN expressions
#: costs more than the bisections it saves (the forward pass still prunes)
_CONTRACTOR_NODE_LIMIT = 512


@dataclass
class IcpConfig:
    """Tuning knobs for the branch-and-prune search.

    Attributes
    ----------
    delta:
        Width tolerance: an un-refuted box whose widest side is below
        ``delta`` yields a DELTA_SAT verdict (dReal's precision).
    batch_size:
        Number of frontier boxes evaluated per vectorized pass.
    max_boxes:
        Budget on processed boxes; exceeding it returns UNKNOWN.
    time_limit:
        Wall-clock budget in seconds (None = unlimited).
    """

    delta: float = 1e-3
    batch_size: int = 256
    max_boxes: int = 2_000_000
    time_limit: float | None = None

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise SolverError(f"delta must be positive, got {self.delta}")
        if self.batch_size < 1:
            raise SolverError("batch_size must be >= 1")
        if self.max_boxes < 1:
            raise SolverError("max_boxes must be >= 1")


class IcpSolver:
    """Reusable branch-and-prune solver bound to one configuration."""

    def __init__(self, config: IcpConfig | None = None):
        self.config = config or IcpConfig()

    def solve(
        self,
        constraints: Sequence[Constraint],
        region: Box,
        variable_names: Sequence[str],
    ) -> SmtResult:
        """Decide ``∃x ∈ region: ∧ constraints`` to precision δ."""
        config = self.config
        names = list(variable_names)
        if region.dimension != len(names):
            raise SolverError(
                f"region dimension {region.dimension} != {len(names)} variables"
            )
        if not constraints:
            # Trivially satisfiable anywhere in the region.
            mid = region.midpoint()
            return SmtResult(
                Verdict.DELTA_SAT,
                config.delta,
                witness=mid,
                witness_box=region,
                witness_validated=True,
            )
        if not region.is_finite():
            raise SolverError("ICP requires a bounded search region")

        tapes = [c.compiled(names) for c in constraints]
        contract_ok = all(t.n_nodes <= _CONTRACTOR_NODE_LIMIT for t in tapes)

        stats = SolverStats()
        start = time.perf_counter()
        deadline = None if config.time_limit is None else start + config.time_limit

        # Frontier of (n, 2) bound arrays, LIFO for depth-first descent.
        frontier: list[np.ndarray] = [region.to_array()]
        depths: list[int] = [0]

        while frontier:
            if deadline is not None and time.perf_counter() > deadline:
                stats.elapsed_seconds = time.perf_counter() - start
                return SmtResult(Verdict.UNKNOWN, config.delta, stats=stats)
            if stats.boxes_processed >= config.max_boxes:
                stats.elapsed_seconds = time.perf_counter() - start
                return SmtResult(Verdict.UNKNOWN, config.delta, stats=stats)

            take = min(config.batch_size, len(frontier))
            batch = frontier[-take:]
            batch_depths = depths[-take:]
            del frontier[-take:]
            del depths[-take:]

            arr = np.stack(batch)  # (m, n, 2)
            lows = arr[:, :, 0]
            highs = arr[:, :, 1]
            m = arr.shape[0]
            stats.boxes_processed += m
            stats.max_depth = max(stats.max_depth, max(batch_depths))

            alive = np.ones(m, dtype=bool)
            all_true = np.ones(m, dtype=bool)
            for tape, constraint in zip(tapes, constraints):
                lo, hi = tape.eval_boxes(lows[alive], highs[alive])
                status = constraint.status_from_bounds(lo, hi)
                sub_false = status == int(Status.CERTAIN_FALSE)
                sub_true = status == int(Status.CERTAIN_TRUE)
                # Scatter back into full-batch masks.
                idx = np.flatnonzero(alive)
                all_true[idx[~sub_true]] = False
                alive[idx[sub_false]] = False
                if not alive.any():
                    break

            stats.boxes_pruned += int(m - alive.sum())

            # A box where every constraint certainly holds: any point works.
            certain = alive & all_true
            if certain.any():
                i = int(np.flatnonzero(certain)[0])
                stats.boxes_certain += 1
                stats.elapsed_seconds = time.perf_counter() - start
                box = Box.from_array(arr[i])
                return SmtResult(
                    Verdict.DELTA_SAT,
                    config.delta,
                    witness=box.midpoint(),
                    witness_box=box,
                    witness_validated=True,
                    stats=stats,
                )

            for i in np.flatnonzero(alive):
                box_arr = arr[i]
                depth = batch_depths[i]
                widths = box_arr[:, 1] - box_arr[:, 0]
                if float(widths.max()) <= config.delta:
                    stats.elapsed_seconds = time.perf_counter() - start
                    box = Box.from_array(box_arr)
                    witness = box.midpoint()
                    validated = all(
                        c.satisfied_at(witness, names, slack=config.delta)
                        for c in constraints
                    )
                    return SmtResult(
                        Verdict.DELTA_SAT,
                        config.delta,
                        witness=witness,
                        witness_box=box,
                        witness_validated=validated,
                        stats=stats,
                    )
                box = Box.from_array(box_arr)
                if contract_ok:
                    contracted = contract_fixpoint(
                        constraints,
                        box,
                        names,
                        max_rounds=_CONTRACTOR_ROUNDS,
                    )
                    stats.contractions += 1
                    if contracted is None:
                        stats.boxes_pruned += 1
                        continue
                    box = contracted
                    if box.max_width() <= config.delta:
                        stats.elapsed_seconds = time.perf_counter() - start
                        witness = box.midpoint()
                        validated = all(
                            c.satisfied_at(witness, names, slack=config.delta)
                            for c in constraints
                        )
                        return SmtResult(
                            Verdict.DELTA_SAT,
                            config.delta,
                            witness=witness,
                            witness_box=box,
                            witness_validated=validated,
                            stats=stats,
                        )
                left, right = box.bisect()
                frontier.append(left.to_array())
                frontier.append(right.to_array())
                depths.extend((depth + 1, depth + 1))
                stats.boxes_split += 1

        stats.elapsed_seconds = time.perf_counter() - start
        return SmtResult(Verdict.UNSAT, self.config.delta, stats=stats)


def solve_conjunction(
    constraints: Sequence[Constraint],
    region: Box,
    variable_names: Sequence[str],
    config: IcpConfig | None = None,
) -> SmtResult:
    """One-shot convenience wrapper around :class:`IcpSolver`."""
    return IcpSolver(config).solve(constraints, region, variable_names)
