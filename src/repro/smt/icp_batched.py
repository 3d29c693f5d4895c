"""Batched branch-and-prune: the whole frontier in one :class:`BoxArray`.

:class:`IcpSolver` keeps its frontier as a Python list of per-box
arrays and drops to scalar :class:`~repro.intervals.Interval` HC4 for
contraction — one interpreter walk per box per constraint.
:class:`BatchedIcpSolver` is the structure-of-arrays rewrite: the
frontier lives in one contiguous :class:`~repro.intervals.BoxArray`,
pruning/splitting happen through boolean masks, and the HC4 contraction
pass (:mod:`repro.smt.hc4`) sweeps *every surviving box at once* with
per-expression-node interval ndarrays.

The search semantics deliberately mirror the scalar solver decision for
decision — same depth-first batch order, same pre-/post-contraction
width checks, same first-hit witness selection — so the two return
identical verdicts (and witnesses equal up to the documented ulp-level
widening differences of :mod:`repro.intervals.array`) while the batched
solver does the contraction work at NumPy speed.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from ..errors import SolverError
from ..intervals import Box, BoxArray
from .constraint import Constraint, Status
from .hc4 import FrontierContractor, contract_frontier
from .icp import IcpConfig
from .result import SmtResult, SolverStats, Verdict

__all__ = ["BatchedIcpSolver", "prune_masks", "solve_conjunction_batched"]

#: below this many freshly split children, :meth:`BatchedIcpSolver.solve_union`
#: quadrisects instead of bisecting so the next vectorized pass stays wide
_MULTISECTION_THRESHOLD = 64


def prune_masks(
    tapes: Sequence,
    constraints: Sequence[Constraint],
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-pass pruning of one batch: ``(alive, all_true)`` row masks.

    Runs every constraint tape over the rows still alive (progressively
    masked, so a row refuted by an early constraint skips the later
    tapes — exactly the historical in-loop behavior of ``solve`` /
    ``solve_union``).
    """
    m = lo.shape[0]
    alive = np.ones(m, dtype=bool)
    all_true = np.ones(m, dtype=bool)
    for tape, constraint in zip(tapes, constraints):
        b_lo, b_hi = tape.eval_boxes(lo[alive], hi[alive])
        status = constraint.status_from_bounds(b_lo, b_hi)
        idx = np.flatnonzero(alive)
        all_true[idx[status != int(Status.CERTAIN_TRUE)]] = False
        alive[idx[status == int(Status.CERTAIN_FALSE)]] = False
        if not alive.any():
            break
    return alive, all_true


def _interleave_halves(left: BoxArray, right: BoxArray) -> BoxArray:
    """Stack split halves as ``(L_0, R_0, L_1, R_1, ...)`` — the same
    LIFO layout the scalar solver builds box by box."""
    k = len(left)
    lo = np.empty((2 * k, left.dimension))
    hi = np.empty((2 * k, left.dimension))
    lo[0::2] = left.lo
    lo[1::2] = right.lo
    hi[0::2] = left.hi
    hi[1::2] = right.hi
    return BoxArray(lo, hi)


class BatchedIcpSolver:
    """Drop-in :class:`~repro.smt.IcpSolver` twin over a ``BoxArray`` frontier.

    ``should_stop`` (optional) is polled once per frontier batch; when it
    returns True the solve returns UNKNOWN early.  The ``portfolio``
    engine uses it to cancel the in-house search the moment an external
    solver reaches a verdict first — with the default ``None`` the search
    semantics are exactly the historical ones.
    """

    def __init__(
        self,
        config: IcpConfig | None = None,
        should_stop: "Callable[[], bool] | None" = None,
    ):
        self.config = config or IcpConfig()
        self.should_stop = should_stop

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
        contract_ok = config.use_contractor and all(
            len(t) <= config.contractor_node_limit for t in tapes
        )
        contractors = (
            [FrontierContractor(c, names) for c in constraints]
            if contract_ok
            else []
        )

        stats = SolverStats()
        start = time.perf_counter()
        deadline = None if config.time_limit is None else start + config.time_limit

        frontier = BoxArray.from_box(region)
        depths = np.zeros(1, dtype=np.int64)

        while len(frontier):
            if deadline is not None and time.perf_counter() > deadline:
                stats.elapsed_seconds = time.perf_counter() - start
                return SmtResult(Verdict.UNKNOWN, config.delta, stats=stats)
            if self.should_stop is not None and self.should_stop():
                stats.elapsed_seconds = time.perf_counter() - start
                return SmtResult(Verdict.UNKNOWN, config.delta, stats=stats)
            if stats.boxes_processed >= config.max_boxes:
                stats.elapsed_seconds = time.perf_counter() - start
                return SmtResult(Verdict.UNKNOWN, config.delta, stats=stats)

            take = min(config.batch_size, len(frontier))
            batch = frontier.select(slice(len(frontier) - take, None))
            batch_depths = depths[-take:]
            frontier = frontier.select(slice(0, len(frontier) - take))
            depths = depths[:-take]

            m = len(batch)
            stats.boxes_processed += m
            stats.max_depth = max(stats.max_depth, int(batch_depths.max()))

            alive, all_true = prune_masks(tapes, constraints, batch.lo, batch.hi)

            stats.boxes_pruned += int(m - alive.sum())

            # A box where every constraint certainly holds: any point works.
            certain = alive & all_true
            if certain.any():
                i = int(np.flatnonzero(certain)[0])
                stats.boxes_certain += 1
                stats.elapsed_seconds = time.perf_counter() - start
                box = batch.box_at(i)
                return SmtResult(
                    Verdict.DELTA_SAT,
                    config.delta,
                    witness=box.midpoint(),
                    witness_box=box,
                    witness_validated=True,
                    stats=stats,
                )

            alive_idx = np.flatnonzero(alive)
            if alive_idx.size == 0:
                continue

            survivors = batch.select(alive_idx)
            survivor_depths = batch_depths[alive_idx]

            # Pre-contraction width check (raw hi - lo, like the scalar
            # solver's in-batch test).
            pre_small = survivors.raw_widths().max(axis=1) <= config.delta

            if contract_ok:
                # Contract only the rows the scalar scan would reach:
                # everything before the first pre-small row (the scan
                # returns there, so later rows are never contracted).
                if pre_small.any():
                    first_pre = int(np.argmax(pre_small))
                else:
                    first_pre = len(survivors)
                need = np.zeros(len(survivors), dtype=bool)
                need[:first_pre] = True
                contracted, c_alive = contract_frontier(
                    contractors,
                    survivors.select(need),
                    max_rounds=config.contractor_rounds,
                )
                stats.contractions += int(need.sum())
            else:
                contracted, c_alive = None, None

            # Walk rows in index order so the first witness event matches
            # the scalar solver's sequential scan.
            post_small = None
            if contracted is not None and len(contracted):
                post_small = contracted.max_widths() <= config.delta
            contract_row = 0
            split_rows: list[int] = []  # indices into `contracted`
            plain_split_rows: list[int] = []  # rows when contraction is off
            for row in range(len(survivors)):
                if pre_small[row]:
                    stats.elapsed_seconds = time.perf_counter() - start
                    return self._witness_result(
                        survivors.box_at(row), constraints, names, stats
                    )
                if not contract_ok:
                    plain_split_rows.append(row)
                    continue
                crow = contract_row
                contract_row += 1
                if not c_alive[crow]:
                    stats.boxes_pruned += 1
                    continue
                if post_small[crow]:
                    stats.elapsed_seconds = time.perf_counter() - start
                    return self._witness_result(
                        contracted.box_at(crow), constraints, names, stats
                    )
                split_rows.append(crow)

            # Bisect the remaining rows along their widest dimensions and
            # push (left, right) pairs in ascending row order — the same
            # LIFO layout the scalar solver builds box by box.
            if contract_ok:
                # split_rows index into `contracted`, whose rows are the
                # contracted survivors in order; map back for depths.
                need_idx = np.flatnonzero(need)
                if split_rows:
                    sel = np.array(split_rows, dtype=int)
                    to_split = contracted.select(sel)
                    split_depths = survivor_depths[need_idx[sel]]
                else:
                    to_split = None
                    split_depths = np.empty(0, dtype=np.int64)
            else:
                to_split = (
                    survivors.select(np.array(plain_split_rows, dtype=int))
                    if plain_split_rows
                    else None
                )
                split_depths = (
                    survivor_depths[np.array(plain_split_rows, dtype=int)]
                    if plain_split_rows
                    else np.empty(0, dtype=np.int64)
                )

            if to_split is not None and len(to_split):
                children = _interleave_halves(*to_split.bisect_widest())
                frontier = (
                    BoxArray.concatenate([frontier, children])
                    if len(frontier)
                    else children
                )
                depths = np.concatenate(
                    [depths, np.repeat(split_depths + 1, 2)]
                )
                stats.boxes_split += len(to_split)

        stats.elapsed_seconds = time.perf_counter() - start
        return SmtResult(Verdict.UNSAT, self.config.delta, stats=stats)

    def solve_union(
        self,
        constraints: Sequence[Constraint],
        regions: Sequence[Box],
        variable_names: Sequence[str],
    ) -> SmtResult:
        """Decide ``∃x ∈ ∪ regions: ∧ constraints`` in **one** frontier.

        The serial path solves one region at a time, so its frontier is
        only as wide as one subproblem's search tree — too narrow to
        amortize a vectorized pass.  Here all regions seed a single
        tagged :class:`~repro.intervals.BoxArray` and branch-and-prune
        runs over their union, which multiplies the batch width by the
        region count and divides the number of tape/contraction passes
        by the same factor.

        The serial witness semantics are preserved: a δ-SAT event for
        region ``k`` is only reported once every region ``< k`` has been
        fully refuted, and frontier rows of regions ``>= k`` are pruned
        the moment ``k``'s witness is recorded (they can no longer win).
        Rows of one region keep their relative order, so ``k``'s first
        event matches what its solo search would have found whenever the
        frontier fits in one batch.  The serial path grants *each*
        region its own ``max_boxes``/``time_limit``; the union search
        mirrors that with a per-region box counter — a region exceeding
        ``max_boxes`` drops out as UNKNOWN while the others keep
        searching — and a wall-clock deadline scaled by the region
        count, so the UNSAT-vs-UNKNOWN boundary matches the serial
        dispatch.
        """
        config = self.config
        names = list(variable_names)
        if not regions:
            return SmtResult(Verdict.UNSAT, config.delta)
        for region in regions:
            if region.dimension != len(names):
                raise SolverError(
                    f"region dimension {region.dimension} != {len(names)} variables"
                )
            if not region.is_finite():
                raise SolverError("ICP requires bounded search regions")
        if not constraints:
            first = regions[0]
            return SmtResult(
                Verdict.DELTA_SAT,
                config.delta,
                witness=first.midpoint(),
                witness_box=first,
                witness_validated=True,
            )

        tapes = [c.compiled(names) for c in constraints]
        contract_ok = config.use_contractor and all(
            len(t) <= config.contractor_node_limit for t in tapes
        )
        contractors = (
            [FrontierContractor(c, names) for c in constraints]
            if contract_ok
            else []
        )

        stats = SolverStats()
        start = time.perf_counter()
        n_regions = len(regions)
        deadline = (
            None
            if config.time_limit is None
            else start + config.time_limit * n_regions
        )
        #: boxes processed per region: each gets the serial per-solve budget
        tag_boxes = np.zeros(n_regions, dtype=np.int64)
        exhausted = np.zeros(n_regions, dtype=bool)

        frontier = BoxArray.from_boxes(list(regions))
        depths = np.zeros(n_regions, dtype=np.int64)
        tags = np.arange(n_regions, dtype=np.int64)
        best_tag: int | None = None
        best_box: Box | None = None

        def finish(verdict: Verdict, box: Box | None = None) -> SmtResult:
            stats.elapsed_seconds = time.perf_counter() - start
            if box is None:
                return SmtResult(verdict, config.delta, stats=stats)
            return self._witness_result(box, constraints, names, stats)

        def wrap_up() -> SmtResult:
            # Serial semantics: a δ-SAT witness stands even when an
            # earlier region ran out of budget (that region alone would
            # have been UNKNOWN); with no witness, any exhausted region
            # makes the union UNKNOWN.
            if best_tag is not None:
                return finish(Verdict.DELTA_SAT, best_box)
            if exhausted.any():
                return finish(Verdict.UNKNOWN)
            return finish(Verdict.UNSAT)

        while len(frontier):
            if deadline is not None and time.perf_counter() > deadline:
                if best_tag is not None:
                    return finish(Verdict.DELTA_SAT, best_box)
                return finish(Verdict.UNKNOWN)
            if self.should_stop is not None and self.should_stop():
                if best_tag is not None:
                    return finish(Verdict.DELTA_SAT, best_box)
                return finish(Verdict.UNKNOWN)

            take = min(config.batch_size, len(frontier))
            cut = len(frontier) - take
            batch = frontier.select(slice(cut, None))
            batch_tags = tags[cut:]
            batch_depths = depths[cut:]
            frontier = frontier.select(slice(0, cut))
            tags = tags[:cut]
            depths = depths[:cut]

            # Regions over their per-solve box budget stop here — their
            # remaining rows are dropped unprocessed and the region is
            # recorded as exhausted (the serial solver's UNKNOWN).
            over = tag_boxes[batch_tags] >= config.max_boxes
            if over.any():
                exhausted[np.unique(batch_tags[over])] = True
                keep = ~over
                batch = batch.select(keep)
                batch_tags = batch_tags[keep]
                batch_depths = batch_depths[keep]
                if len(batch) == 0:
                    continue

            m = len(batch)
            stats.boxes_processed += m
            np.add.at(tag_boxes, batch_tags, 1)
            stats.max_depth = max(stats.max_depth, int(batch_depths.max()))

            alive, all_true = prune_masks(tapes, constraints, batch.lo, batch.hi)

            stats.boxes_pruned += int(m - alive.sum())

            def record(tag: int, box: Box) -> None:
                nonlocal best_tag, best_box
                if best_tag is None or tag < best_tag:
                    best_tag, best_box = tag, box

            certain = alive & all_true
            if certain.any():
                i = int(np.flatnonzero(certain)[0])
                stats.boxes_certain += 1
                record(int(batch_tags[i]), batch.box_at(i))

            alive_idx = np.flatnonzero(alive & ~certain)
            survivors = batch.select(alive_idx)
            survivor_tags = batch_tags[alive_idx]
            survivor_depths = batch_depths[alive_idx]
            if best_tag is not None:
                keep = survivor_tags < best_tag
                survivors = survivors.select(keep)
                survivor_tags = survivor_tags[keep]
                survivor_depths = survivor_depths[keep]

            if len(survivors):
                pre_small = survivors.raw_widths().max(axis=1) <= config.delta
                for row in np.flatnonzero(pre_small):
                    record(int(survivor_tags[row]), survivors.box_at(int(row)))
                keep = ~pre_small
                if best_tag is not None:
                    keep &= survivor_tags < best_tag
                survivors = survivors.select(keep)
                survivor_tags = survivor_tags[keep]
                survivor_depths = survivor_depths[keep]

            if len(survivors) and contract_ok:
                contracted, c_alive = contract_frontier(
                    contractors,
                    survivors,
                    max_rounds=config.contractor_rounds,
                )
                stats.contractions += len(survivors)
                stats.boxes_pruned += int((~c_alive).sum())
                post_small = contracted.max_widths() <= config.delta
                for row in np.flatnonzero(c_alive & post_small):
                    record(int(survivor_tags[row]), contracted.box_at(int(row)))
                keep = c_alive & ~post_small
                if best_tag is not None:
                    keep &= survivor_tags < best_tag
                survivors = contracted.select(keep)
                survivor_tags = survivor_tags[keep]
                survivor_depths = survivor_depths[keep]

            if best_tag is not None and len(tags):
                keep = tags < best_tag
                if not keep.all():
                    frontier = frontier.select(keep)
                    tags = tags[keep]
                    depths = depths[keep]

            if len(survivors):
                children = _interleave_halves(*survivors.bisect_widest())
                fanout = 2
                depth_inc = 1
                # Narrow frontiers starve the vectorized passes: split a
                # second time so the next batch is wide enough to
                # amortize the fixed per-pass NumPy cost.  The extra
                # split only reorders work — every child still shrinks
                # monotonically, so soundness and δ-completeness hold.
                if len(children) < _MULTISECTION_THRESHOLD:
                    children = _interleave_halves(*children.bisect_widest())
                    fanout = 4
                    depth_inc = 2
                frontier = (
                    BoxArray.concatenate([frontier, children])
                    if len(frontier)
                    else children
                )
                tags = np.concatenate([tags, np.repeat(survivor_tags, fanout)])
                depths = np.concatenate(
                    [depths, np.repeat(survivor_depths + depth_inc, fanout)]
                )
                stats.boxes_split += len(survivors) * (fanout - 1)

            if best_tag is not None and not len(frontier):
                return wrap_up()

        return wrap_up()

    def _witness_result(
        self,
        box: Box,
        constraints: Sequence[Constraint],
        names: Sequence[str],
        stats: SolverStats,
    ) -> SmtResult:
        witness = box.midpoint()
        validated = all(
            c.satisfied_at(witness, names, slack=self.config.delta)
            for c in constraints
        )
        return SmtResult(
            Verdict.DELTA_SAT,
            self.config.delta,
            witness=witness,
            witness_box=box,
            witness_validated=validated,
            stats=stats,
        )


def solve_conjunction_batched(
    constraints: Sequence[Constraint],
    region: Box,
    variable_names: Sequence[str],
    config: IcpConfig | None = None,
) -> SmtResult:
    """One-shot convenience wrapper around :class:`BatchedIcpSolver`."""
    return BatchedIcpSolver(config).solve(constraints, region, variable_names)
