"""Solver verdicts and result records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from ..intervals import Box

__all__ = ["Verdict", "SolverStats", "SmtResult"]


class Verdict(enum.Enum):
    """Outcome of a δ-decision query, mirroring dReal semantics.

    * ``UNSAT`` — proof: no point in the search region satisfies the
      formula.  Sound under outward-rounded interval arithmetic.
    * ``DELTA_SAT`` — a box of width at most δ (or a whole sub-box) could
      not be refuted; its midpoint is returned as a witness.  The
      δ-weakened formula is satisfiable there.
    * ``UNKNOWN`` — budget exhausted before reaching a verdict.
    """

    UNSAT = "unsat"
    DELTA_SAT = "delta-sat"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Counters accumulated during a branch-and-prune run."""

    boxes_processed: int = 0
    boxes_pruned: int = 0
    boxes_split: int = 0
    boxes_certain: int = 0
    contractions: int = 0
    max_depth: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another run's counters into this record."""
        self.boxes_processed += other.boxes_processed
        self.boxes_pruned += other.boxes_pruned
        self.boxes_split += other.boxes_split
        self.boxes_certain += other.boxes_certain
        self.contractions += other.contractions
        self.max_depth = max(self.max_depth, other.max_depth)
        self.elapsed_seconds += other.elapsed_seconds


@dataclass
class SmtResult:
    """Verdict plus witness and statistics.

    ``witness`` is a point (box midpoint) for ``DELTA_SAT`` verdicts and
    None otherwise; ``witness_box`` is the surviving box around it (None
    for a witness found by sampling rather than by branch-and-prune).
    ``witness_validated`` records whether the witness point numerically
    satisfies every constraint relaxed by δ.
    """

    verdict: Verdict
    delta: float
    witness: np.ndarray | None = None
    witness_box: Box | None = None
    witness_validated: bool = False
    stats: SolverStats = field(default_factory=SolverStats)

    @property
    def is_unsat(self) -> bool:
        """True for a proof of emptiness."""
        return self.verdict is Verdict.UNSAT

    @property
    def is_delta_sat(self) -> bool:
        """True when a δ-witness was found."""
        return self.verdict is Verdict.DELTA_SAT

    def __str__(self) -> str:
        if self.is_delta_sat and self.witness is not None:
            where = np.array2string(self.witness, precision=6)
            return f"{self.verdict.value} at {where} (delta={self.delta:g})"
        return f"{self.verdict.value} (delta={self.delta:g})"
