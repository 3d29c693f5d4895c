"""Profiling: where a scenario verification's wall clock goes.

* :mod:`repro.perf.profile` — the per-stage latency breakdown behind
  the ``repro profile`` CLI subcommand.

Expression tapes have one evaluator each way, in :mod:`repro.expr`:
value-numbered tapes interpreted for interval bounds, and generated
straight-line functions (:mod:`repro.expr.codegen`) for points.  See
``docs/performance.md`` for the design and how to measure it.
"""

from .profile import ProfileReport, format_profile, profile_scenario

__all__ = ["ProfileReport", "format_profile", "profile_scenario"]
