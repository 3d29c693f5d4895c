"""Exception hierarchy for the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can catch one type to handle any library
failure.  Sub-hierarchies mirror the package layout: expression errors,
interval errors, solver errors, synthesis errors, and so on.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ExpressionError(ReproError):
    """Malformed or unsupported symbolic expression operation."""


class EvaluationError(ExpressionError):
    """An expression could not be evaluated (missing variable, bad domain)."""


class DifferentiationError(ExpressionError):
    """An expression could not be differentiated."""


class IntervalError(ReproError):
    """Invalid interval construction or operation (e.g. lower > upper)."""


class EmptyIntervalError(IntervalError):
    """An operation produced or received a provably empty interval."""


class DomainError(IntervalError):
    """Function applied outside its real domain (e.g. log of a negative)."""


class SolverError(ReproError):
    """Base class for SMT / ICP solver failures."""


class BudgetExceededError(SolverError):
    """The ICP solver exhausted its box or time budget without a verdict."""


class InjectedFault(ReproError):
    """A deterministic test fault fired at a :mod:`repro.resilience` seam.

    Only ever raised while a :class:`~repro.resilience.FaultPlan` is
    installed — production code paths can never see this type.
    """


class LinearProgramError(ReproError):
    """The LP used to fit a generator function failed or was infeasible."""


class InfeasibleLPError(LinearProgramError):
    """No template coefficients satisfy the trace-derived constraints."""


class SynthesisError(ReproError):
    """The barrier-certificate synthesis loop failed to produce a result."""


class MaxIterationsError(SynthesisError):
    """A synthesis loop hit its iteration cap without concluding."""


class LevelSetError(SynthesisError):
    """No valid level-set size separates the initial set from the unsafe set."""


class SimulationError(ReproError):
    """Numerical integration failed (blow-up, bad dimensions, bad step)."""


class TrainingError(ReproError):
    """Controller training (CMA-ES policy search) failed."""


class SerializationError(ReproError):
    """A model file could not be read or written."""


class GeometryError(ReproError):
    """Invalid set-geometry construction (empty rectangle, bad halfspace)."""
