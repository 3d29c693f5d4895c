"""Sound interval arithmetic: the numeric substrate of the δ-SAT solver.

Public surface:

* :class:`Interval` — outward-rounded scalar interval (the oracle).
* :class:`Box` — interval vector (ICP search region).
* :class:`BoxArray` — structure-of-arrays batch of boxes: the frontier
  of the batched solver, whose interval evaluation is the compiled
  tape's (:meth:`repro.expr.CompiledExpression.eval_boxes`).
* ``i*`` free functions — dual-semantics (float or interval) elementary
  functions.
"""

from .array import BoxArray
from .box import Box
from .functions import (
    iabs,
    iatan,
    icos,
    iexp,
    ilog,
    imax,
    imin,
    ipow,
    isigmoid,
    isin,
    isqrt,
    itan,
    itanh,
)
from .interval import Interval
from .rounding import (
    PAD,
    TRIG_SLACK,
    next_down,
    next_up,
    trig_slack,
    widen,
)

__all__ = [
    "Box",
    "BoxArray",
    "Interval",
    "PAD",
    "TRIG_SLACK",
    "iabs",
    "iatan",
    "icos",
    "iexp",
    "ilog",
    "imax",
    "imin",
    "ipow",
    "isigmoid",
    "isin",
    "isqrt",
    "itan",
    "itanh",
    "next_down",
    "next_up",
    "trig_slack",
    "widen",
]
