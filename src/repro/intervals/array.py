"""Structure-of-arrays boxes: a whole ICP frontier in two matrices.

The scalar :class:`~repro.intervals.Box` is the region type of the
reference solver.  A :class:`BoxArray` holds an entire frontier of the
batched branch-and-prune solver (:mod:`repro.smt.icp_batched`) as
``(m, n)`` lower/upper bound matrices — the same structure-of-arrays
move IBEX and dReal make in C++ — and masks, selects and bisects it
without dropping back to per-box Python.  Its interval evaluation is
the expression tapes' own forward pass
(:meth:`~repro.expr.CompiledExpression.eval_boxes`); this module only
moves bounds around.  The two rules it computes, the outward-rounded
width and the bisection midpoint, are the scalar
:meth:`Interval.width` and :meth:`Interval.midpoint` element for
element.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import IntervalError
from .interval import Interval

__all__ = ["BoxArray"]

_INF = math.inf
_F64 = np.dtype(np.float64)


def _as_float_array(values) -> np.ndarray:
    if type(values) is np.ndarray and values.dtype == _F64:
        return values
    return np.asarray(values, dtype=float)


def _widths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Element-wise :meth:`Interval.width`: ``hi - lo`` rounded up one
    ulp, inf where either end is unbounded."""
    unbounded = np.isinf(lo) | np.isinf(hi)
    diff = np.where(unbounded, _INF, hi - lo)
    return np.where(unbounded, _INF, np.nextafter(diff, _INF))


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Element-wise :meth:`Interval.midpoint`: a finite inner point."""
    mid = 0.5 * (lo + hi)
    overflow = ~np.isfinite(mid)
    if overflow.any():
        mid = np.where(overflow, 0.5 * lo + 0.5 * hi, mid)
    mid = np.minimum(np.maximum(mid, lo), hi)
    lo_inf = lo == -_INF
    hi_inf = hi == _INF
    mid = np.where(lo_inf & hi_inf, 0.0, mid)
    mid = np.where(lo_inf & ~hi_inf, hi - 1.0, mid)
    mid = np.where(~lo_inf & hi_inf, lo + 1.0, mid)
    return mid


class BoxArray:
    """An ICP frontier: ``m`` axis-aligned ``n``-boxes in two matrices.

    ``lo`` and ``hi`` have shape ``(m, n)``; row ``i`` is one box, column
    ``j`` one variable.  The batched solver keeps its whole frontier in
    one ``BoxArray`` and splits/prunes with boolean masks — no per-box
    Python objects on the hot path.  The class is immutable by
    convention; operations return new instances.

    Examples
    --------
    >>> frontier = BoxArray([[0.0, -1.0]], [[1.0, 3.0]])
    >>> left, right = frontier.bisect_widest()
    >>> left.hi.tolist(), right.lo.tolist()
    ([[1.0, 1.0]], [[0.0, 1.0]])
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = np.atleast_2d(_as_float_array(lo))
        hi = np.atleast_2d(_as_float_array(hi))
        if lo.shape != hi.shape:
            raise IntervalError(
                f"BoxArray bound shapes differ: {lo.shape} vs {hi.shape}"
            )
        if lo.ndim != 2:
            raise IntervalError(f"BoxArray bounds must be (m, n), got {lo.shape}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BoxArray is immutable")

    # ------------------------------------------------------------------
    # Constructors / conversions
    # ------------------------------------------------------------------
    @staticmethod
    def from_box(box) -> "BoxArray":
        """A one-row frontier from a scalar :class:`~repro.intervals.Box`."""
        arr = box.to_array()
        return BoxArray(arr[None, :, 0], arr[None, :, 1])

    @staticmethod
    def from_boxes(boxes: Sequence) -> "BoxArray":
        """Stack scalar boxes (all of one dimension) into a frontier."""
        if not boxes:
            raise IntervalError("from_boxes needs at least one box")
        arrs = np.stack([box.to_array() for box in boxes])
        return BoxArray(arrs[:, :, 0], arrs[:, :, 1])

    def box_at(self, index: int):
        """Row ``index`` as a scalar :class:`~repro.intervals.Box`."""
        from .box import Box

        return Box(
            Interval(lo, hi) for lo, hi in zip(self.lo[index], self.hi[index])
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Ambient state dimension ``n`` of every box in the frontier."""
        return self.lo.shape[1]

    def __len__(self) -> int:
        return self.lo.shape[0]

    def widths(self) -> np.ndarray:
        """Per-component widths, shape ``(m, n)`` (scalar width rule)."""
        return _widths(self.lo, self.hi)

    def raw_widths(self) -> np.ndarray:
        """Plain ``hi - lo`` without outward rounding, shape ``(m, n)``."""
        return self.hi - self.lo

    # ------------------------------------------------------------------
    # Frontier operations
    # ------------------------------------------------------------------
    def select(self, index) -> "BoxArray":
        """Row subset by mask, index array, or slice."""
        return BoxArray(self.lo[index], self.hi[index])

    @staticmethod
    def concatenate(parts: Sequence["BoxArray"]) -> "BoxArray":
        """Stack frontiers row-wise."""
        parts = [p for p in parts if len(p)]
        if not parts:
            raise IntervalError("concatenate needs at least one non-empty BoxArray")
        return BoxArray(
            np.concatenate([p.lo for p in parts]),
            np.concatenate([p.hi for p in parts]),
        )

    def widest_dimensions(self) -> np.ndarray:
        """Per-box index of the widest component (first among ties)."""
        return np.argmax(self.widths(), axis=1)

    def bisect_widest(self) -> tuple["BoxArray", "BoxArray"]:
        """Split every box along its widest component at the midpoint.

        Returns the two half frontiers in matching row order; the split
        point is the component's scalar midpoint rule, so the halves are
        the scalar ``Interval.split()`` bit-for-bit.
        """
        rows = np.arange(len(self))
        dims = self.widest_dimensions()
        mids = _midpoints(self.lo[rows, dims], self.hi[rows, dims])
        left_hi = self.hi.copy()
        left_hi[rows, dims] = mids
        right_lo = self.lo.copy()
        right_lo[rows, dims] = mids
        return BoxArray(self.lo.copy(), left_hi), BoxArray(right_lo, self.hi.copy())

    def __repr__(self) -> str:
        return f"BoxArray({len(self)} boxes, dimension {self.dimension})"
