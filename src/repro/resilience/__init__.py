"""Fault injection and self-healing for the execution stack.

Two layers, each documented in its module:

* :mod:`repro.resilience.faults` — named fault-injection seams wired
  into the hot paths, driven by deterministic seeded :class:`FaultPlan`
  schedules.  Inactive (one ``None`` check) unless a plan is installed.
* :mod:`repro.resilience.supervisor` — :class:`Backoff` and the
  process-global incident log that records every recovery event
  (respawns, chunk and job retries) *outside* run artifacts.

The ``repro chaos`` CLI (:mod:`repro.resilience.chaos`) ties them
together: it replays the scenario corpus under seeded fault schedules
and asserts no hangs, no verdict flips, and no leaked processes.
"""

from .chaos import (
    CHAOS_SCENARIOS,
    ChaosOutcome,
    ChaosReport,
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
from .supervisor import (
    Backoff,
    clear_incidents,
    incidents,
    record_incident,
)

__all__ = [
    "Backoff",
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "FaultAction",
    "FaultPlan",
    "SEAMS",
    "SEAM_KINDS",
    "active_plan",
    "chaos",
    "clear_incidents",
    "clear_plan",
    "fire",
    "fired_faults",
    "incidents",
    "injected",
    "install_plan",
    "raise_if",
    "record_incident",
    "write_chaos_reproducer",
]
