"""Kernel compilation and profiling: the synthesis loop's fast path.

This package closes the gap between the vectorized interval core
(:mod:`repro.intervals.array`, :mod:`repro.smt.icp_batched`) and the
Python shell around it:

* :mod:`repro.perf.kernels` — expression tapes pre-planned into flat
  ndarray programs (integer opcodes, constant tables, prebound
  instruction closures) with pooled workspaces, so
  :meth:`~repro.expr.CompiledExpression.eval_boxes` /
  :meth:`~repro.expr.CompiledExpression.eval_points` run with zero
  per-call dispatch or buffer allocation.  :class:`KernelPlan` is the
  whole interval evaluator of the ``batched-icp`` search: its forward
  pass is the only work that search does per batch.  Bit-identical to
  the interpreted paths; ``REPRO_KERNELS=0`` disables.
* :mod:`repro.perf.pool` — the exclusive-checkout workspace pool
  backing every compiled plan.
* :mod:`repro.perf.profile` — the per-stage latency breakdown behind
  the ``repro profile`` CLI subcommand.

See ``docs/performance.md`` for the design and measurement guide.
"""

from .kernels import OPCODES, KernelPlan, enabled, set_enabled, use_kernels
from .pool import MIN_BUCKET, BufferPool, Workspace

_PROFILE_EXPORTS = ("ProfileReport", "format_profile", "profile_scenario")


def __getattr__(name: str):
    # Deferred: profile pulls in repro.api (the whole pipeline stack),
    # which the kernel hot path must not pay for — expression tapes
    # lazily import this package from inside eval_points/eval_boxes.
    if name in _PROFILE_EXPORTS:
        from . import profile as _profile

        return getattr(_profile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "MIN_BUCKET",
    "OPCODES",
    "BufferPool",
    "KernelPlan",
    "ProfileReport",
    "Workspace",
    "enabled",
    "format_profile",
    "profile_scenario",
    "set_enabled",
    "use_kernels",
]
