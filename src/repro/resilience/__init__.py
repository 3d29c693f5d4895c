"""Fault injection and self-healing for the execution stack.

Three layers, each documented in its module:

* :mod:`repro.resilience.faults` — named fault-injection seams wired
  into the hot paths, driven by deterministic seeded :class:`FaultPlan`
  schedules.  Inactive (one ``None`` check) unless a plan is installed.
* :mod:`repro.resilience.supervisor` — :class:`Backoff`,
  :class:`CircuitBreaker`, and the process-global incident log that
  records every recovery event (respawns, breaker trips, degradations,
  job retries) *outside* run artifacts.
* :mod:`repro.resilience.ladder` — the engine degradation ladder
  (``portfolio → batched-icp → native``): unrecoverable machinery
  loss re-runs the request on the next rung, byte-identical to having
  asked for that engine directly.

The ``repro chaos`` CLI (:mod:`repro.resilience.chaos`) ties them
together: it replays the scenario corpus under seeded fault schedules
and asserts no hangs, no verdict flips, and no leaked processes.
"""

from .chaos import (
    CHAOS_SCENARIOS,
    ChaosOutcome,
    ChaosReport,
    ChaosSolver,
    chaos,
    write_chaos_reproducer,
)
from .faults import (
    SEAM_KINDS,
    SEAMS,
    FaultAction,
    FaultPlan,
    active_plan,
    clear_plan,
    fire,
    fired_faults,
    injected,
    install_plan,
    raise_if,
)
from .ladder import (
    DEGRADE_TO,
    degradation_path,
    fallback_engine,
    run_with_degradation,
)
from .supervisor import (
    Backoff,
    CircuitBreaker,
    breaker_for,
    clear_incidents,
    incidents,
    record_incident,
    reset_breakers,
)

__all__ = [
    "Backoff",
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "ChaosSolver",
    "CircuitBreaker",
    "DEGRADE_TO",
    "FaultAction",
    "FaultPlan",
    "SEAMS",
    "SEAM_KINDS",
    "active_plan",
    "breaker_for",
    "chaos",
    "clear_incidents",
    "clear_plan",
    "degradation_path",
    "fallback_engine",
    "fire",
    "fired_faults",
    "incidents",
    "injected",
    "install_plan",
    "raise_if",
    "record_incident",
    "reset_breakers",
    "run_with_degradation",
    "write_chaos_reproducer",
]
