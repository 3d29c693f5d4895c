"""External SMT solvers (Z3 / dReal) over SMT-LIB emission.

The paper delegates its δ-SAT checks to an external nonlinear solver;
this package keeps the pieces for handing a barrier condition to one:

* :mod:`repro.solvers.smtlib` — deterministic SMT-LIB 2 emission from
  the existing constraint/expression layer (exact decimal literals, no
  scientific notation, transcendental-op tracking);
* :mod:`repro.solvers.backends` — subprocess adapters for Z3 and dReal
  with hard wall-clock deadlines, verdict/model parsing, availability
  probing, and a registry for third-party adapters.

No engine dispatches to them: ``repro solvers`` probes the binaries,
and an independent re-check of stored certificates is their intended
caller.  See ``docs/solvers.md`` for the install matrix and timeout
semantics.
"""

from .backends import (
    DEFAULT_TIMEOUT,
    DRealSolver,
    ExternalSolver,
    SolverInfo,
    Z3Solver,
    external_solvers,
    get_solver,
    parse_dreal_output,
    parse_z3_output,
    probe_all,
    register_solver,
    result_from_model,
    solver_names,
)
from .smtlib import (
    TRANSCENDENTAL_OPS,
    SmtLibQuery,
    constraint_to_smtlib,
    decimal_literal,
    emit_query,
    expr_to_smtlib,
    symbol,
)

__all__ = [
    "DEFAULT_TIMEOUT",
    "TRANSCENDENTAL_OPS",
    "DRealSolver",
    "ExternalSolver",
    "SmtLibQuery",
    "SolverInfo",
    "Z3Solver",
    "constraint_to_smtlib",
    "decimal_literal",
    "emit_query",
    "expr_to_smtlib",
    "external_solvers",
    "get_solver",
    "parse_dreal_output",
    "parse_z3_output",
    "probe_all",
    "register_solver",
    "result_from_model",
    "solver_names",
    "symbol",
]
