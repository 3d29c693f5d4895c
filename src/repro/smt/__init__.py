"""δ-satisfiability solving over nonlinear real arithmetic.

This package replaces dReal in the paper's toolchain: a branch-and-prune
interval constraint propagation (ICP) solver that returns sound
**UNSAT** proofs or **δ-SAT** witnesses for existential queries over
Type-2 computable functions (polynomials, trigonometry, exponentials,
sigmoids).  Two solvers share one search order:

* :class:`IcpSolver` — the scalar reference: forward-pass pruning plus
  HC4 contraction (:mod:`repro.smt.contractor`) of every survivor.
* :class:`BatchedIcpSolver` — the fast path: the whole frontier in one
  :class:`~repro.intervals.BoxArray`, pruned by one forward interval
  pass per constraint and bisected, with no contraction.
"""

from .constraint import Constraint, Relation, Status, eq, ge, gt, le, lt
from .contractor import contract_fixpoint, hc4_revise
from .formula import And, Atom, Formula, Or, conjunction_of, to_dnf
from .icp import IcpConfig, IcpSolver, solve_conjunction
from .icp_batched import BatchedIcpSolver, solve_conjunction_batched
from .queries import Subproblem, check_exists, check_exists_on_boxes
from .result import SmtResult, SolverStats, Verdict

__all__ = [
    "And",
    "Atom",
    "BatchedIcpSolver",
    "Constraint",
    "Formula",
    "IcpConfig",
    "IcpSolver",
    "Or",
    "Relation",
    "SmtResult",
    "SolverStats",
    "Status",
    "Subproblem",
    "Verdict",
    "check_exists",
    "check_exists_on_boxes",
    "conjunction_of",
    "contract_fixpoint",
    "eq",
    "ge",
    "gt",
    "hc4_revise",
    "le",
    "lt",
    "solve_conjunction",
    "solve_conjunction_batched",
    "to_dnf",
]
