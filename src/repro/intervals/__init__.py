"""Sound interval arithmetic: the numeric substrate of the δ-SAT solver.

Public surface:

* :class:`Interval` — outward-rounded scalar interval (the oracle).
* :class:`Box` — interval vector (ICP search region).
* :class:`IntervalArray` / :class:`BoxArray` — structure-of-arrays
  batches of intervals/boxes; one NumPy pass per operation over a whole
  solver frontier.
* ``i*`` free functions — dual-semantics (float or interval) elementary
  functions, plus vectorized interval linear algebra for the NN hot path.
"""

from .array import BoxArray, IntervalArray
from .box import Box
from .functions import (
    iabs,
    iatan,
    icos,
    iexp,
    ilog,
    imax,
    imin,
    interval_affine,
    interval_matvec,
    interval_relu_bounds,
    interval_sigmoid_bounds,
    interval_tanh_bounds,
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
    next_down_array,
    next_up,
    next_up_array,
    trig_slack,
    widen,
)

__all__ = [
    "Box",
    "BoxArray",
    "Interval",
    "IntervalArray",
    "PAD",
    "TRIG_SLACK",
    "iabs",
    "iatan",
    "icos",
    "iexp",
    "ilog",
    "imax",
    "imin",
    "interval_affine",
    "interval_matvec",
    "interval_relu_bounds",
    "interval_sigmoid_bounds",
    "interval_tanh_bounds",
    "ipow",
    "isigmoid",
    "isin",
    "isqrt",
    "itan",
    "itanh",
    "next_down",
    "next_down_array",
    "next_up",
    "next_up_array",
    "trig_slack",
    "widen",
]
