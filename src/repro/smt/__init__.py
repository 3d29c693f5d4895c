"""δ-satisfiability solving over nonlinear real arithmetic.

This package replaces dReal in the paper's toolchain: a branch-and-prune
interval constraint propagation (ICP) solver with HC4 contractors that
returns sound **UNSAT** proofs or **δ-SAT** witnesses for existential
queries over Type-2 computable functions (polynomials, trigonometry,
exponentials, sigmoids).
"""

from .constraint import Constraint, Relation, Status, eq, ge, gt, le, lt
from .contractor import contract_fixpoint, hc4_revise
from .formula import And, Atom, Formula, Or, conjunction_of, to_dnf
from .hc4 import FrontierContractor, contract_frontier
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
    "FrontierContractor",
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
    "contract_frontier",
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
