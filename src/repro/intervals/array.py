"""Structure-of-arrays interval arithmetic: batched boxes for the solver.

The scalar :class:`~repro.intervals.Interval` is the soundness oracle;
this module is its vectorized twin.  An :class:`IntervalArray` holds a
whole *batch* of intervals as two ndarrays of endpoints, and a
:class:`BoxArray` holds an entire ICP frontier as ``(m, n)`` lower/upper
bound matrices — the same structure-of-arrays move IBEX and dReal make
in C++.  Every operation runs one NumPy pass over the batch.  The
batched branch-and-prune solver (:mod:`repro.smt.icp_batched`) keeps its
frontier in a :class:`BoxArray` and masks, selects and bisects it
without dropping back to per-box Python; its interval evaluation is the
expression tapes' own forward pass
(:meth:`~repro.expr.CompiledExpression.eval_boxes`).  An
:class:`IntervalArray` is the batch value type of
:func:`~repro.expr.evaluate.evaluate_box_array` and
:meth:`~repro.expr.CompiledExpression.eval_box_array`.

Soundness contract
------------------

Each operation returns endpoint arrays guaranteed to contain the exact
real image for every member of the batch:

* Operations whose NumPy kernels are IEEE-correctly rounded and
  bit-identical to the ``math`` scalars on float64 (``+ - * /``,
  ``sqrt``, ``sin``, ``cos``, negation, abs, min/max) are widened by one
  ulp via ``np.nextafter`` — *bit-identical* to the scalar
  :class:`Interval` result.
* Operations whose kernels may stray from libm (``pow``, ``exp``,
  ``log``, ``tan``, ``atan`` by one ulp; ``tanh``/``sigmoid`` by up to
  three) are widened by two or four ulps respectively, which keeps the
  array result a superset of the scalar result (the property tests in
  ``tests/intervals/test_array.py`` cross-check this containment on
  random batches).

Unlike the scalar class, an :class:`IntervalArray` may hold *empty*
members (``lo > hi``, canonically ``[+inf, -inf]``), so one dead row
never aborts the whole batch.  Domain violations that make the
scalar class raise (``sqrt`` of a negative interval, ``log`` of a
non-positive one) mark the affected rows empty instead; callers observe
them through :meth:`IntervalArray.empty_mask`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import IntervalError
from .interval import Interval
from .rounding import next_down_array, next_up_array, trig_slack

__all__ = ["IntervalArray", "BoxArray"]

_INF = math.inf
_PI = math.pi
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


_F64 = np.dtype(np.float64)


def _as_float_array(values) -> np.ndarray:
    if type(values) is np.ndarray and values.dtype == _F64:
        return values
    return np.asarray(values, dtype=float)


class IntervalArray:
    """A batch of closed intervals stored as parallel endpoint ndarrays.

    ``lo`` and ``hi`` share one shape; member ``i`` is ``[lo[i], hi[i]]``.
    Rows with ``lo > hi`` are *empty* members (see module docstring).
    Instances are cheap, immutable-by-convention views: operations
    return new ``IntervalArray`` objects and never mutate operands.

    Examples
    --------
    >>> x = IntervalArray([0.0, -1.0], [1.0, 2.0])
    >>> bool((x + x).hi[0] >= 2.0)
    True
    >>> x.contains(0.5).tolist()
    [True, True]
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = _as_float_array(lo)
        hi = _as_float_array(hi)
        if lo.shape != hi.shape:
            lo, hi = np.broadcast_arrays(lo, hi)
            lo = np.array(lo)
            hi = np.array(hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntervalArray is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(values) -> "IntervalArray":
        """Degenerate members ``[v, v]``."""
        values = _as_float_array(values)
        return IntervalArray(values, values.copy())

    @staticmethod
    def entire(shape) -> "IntervalArray":
        """A batch of whole-real-line members."""
        return IntervalArray(np.full(shape, -_INF), np.full(shape, _INF))

    @staticmethod
    def empty(shape) -> "IntervalArray":
        """A batch of canonically empty members ``[+inf, -inf]``."""
        return IntervalArray(np.full(shape, _INF), np.full(shape, -_INF))

    @staticmethod
    def from_intervals(intervals: Iterable[Interval]) -> "IntervalArray":
        """Pack scalar intervals into one batch."""
        pairs = [(ival.lo, ival.hi) for ival in intervals]
        if not pairs:
            return IntervalArray(np.empty(0), np.empty(0))
        arr = np.array(pairs, dtype=float)
        return IntervalArray(arr[:, 0], arr[:, 1])

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape shared by the ``lo``/``hi`` endpoint arrays."""
        return self.lo.shape

    @property
    def size(self) -> int:
        """Total number of interval members in the batch."""
        return self.lo.size

    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self) -> Iterator[Interval]:
        for lo, hi in zip(self.lo.ravel(), self.hi.ravel()):
            yield Interval(lo, hi)

    def __getitem__(self, index) -> "IntervalArray":
        return IntervalArray(self.lo[index], self.hi[index])

    def interval_at(self, index) -> Interval:
        """Member ``index`` as a scalar :class:`Interval` (must be non-empty)."""
        return Interval(float(self.lo[index]), float(self.hi[index]))

    def empty_mask(self) -> np.ndarray:
        """Boolean mask of empty members (``lo > hi``)."""
        return self.lo > self.hi

    def width(self) -> np.ndarray:
        """Per-member upper-bounded width (inf for unbounded members)."""
        unbounded = np.isinf(self.lo) | np.isinf(self.hi)
        diff = np.where(unbounded, _INF, self.hi - self.lo)
        return np.where(unbounded, _INF, next_up_array(diff))

    def magnitude(self) -> np.ndarray:
        """Per-member ``max |x|``."""
        return np.maximum(np.abs(self.lo), np.abs(self.hi))

    def mignitude(self) -> np.ndarray:
        """Per-member ``min |x|`` (0 where the member contains 0)."""
        crosses = (self.lo <= 0.0) & (self.hi >= 0.0)
        return np.where(crosses, 0.0, np.minimum(np.abs(self.lo), np.abs(self.hi)))

    def midpoint(self) -> np.ndarray:
        """Per-member finite inner point, mirroring ``Interval.midpoint``."""
        lo, hi = self.lo, self.hi
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

    def is_finite(self) -> np.ndarray:
        """Per-member finiteness mask."""
        return np.isfinite(self.lo) & np.isfinite(self.hi)

    def contains(self, values) -> np.ndarray:
        """Per-member membership mask for scalars or a matching array."""
        values = _as_float_array(values)
        return (self.lo <= values) & (values <= self.hi)

    def contains_interval_array(self, other: "IntervalArray") -> np.ndarray:
        """Per-member subset mask: does each member contain ``other``'s?"""
        return (self.lo <= other.lo) & (other.hi <= self.hi)

    def strictly_contains_zero(self) -> np.ndarray:
        """Per-member mask: does the open interior contain zero?"""
        return (self.lo < 0.0) & (0.0 < self.hi)

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def intersection(self, other: "IntervalArray") -> "IntervalArray":
        """Per-member intersection; disjoint members come back empty
        (canonical ``[+inf, -inf]``), flagged by :meth:`empty_mask`."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        emp = lo > hi
        if emp.any():
            lo = np.where(emp, _INF, lo)
            hi = np.where(emp, -_INF, hi)
        return IntervalArray(lo, hi)

    def hull(self, other: "IntervalArray") -> "IntervalArray":
        """Per-member smallest interval containing both operands."""
        return IntervalArray(
            np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )

    def where(self, mask: np.ndarray, other: "IntervalArray") -> "IntervalArray":
        """Members from ``self`` where ``mask`` holds, else from ``other``."""
        return IntervalArray(
            np.where(mask, self.lo, other.lo), np.where(mask, self.hi, other.hi)
        )

    # ------------------------------------------------------------------
    # Arithmetic (formulas mirror Interval op-for-op; see module docstring
    # for which ops are bit-identical and which carry the 2-ulp widening)
    # ------------------------------------------------------------------
    def __neg__(self) -> "IntervalArray":
        return IntervalArray(-self.hi, -self.lo)  # negation is exact

    def __add__(self, other: "IntervalArray | float") -> "IntervalArray":
        other = _coerce(other, self.shape)
        return IntervalArray(
            next_down_array(self.lo + other.lo), next_up_array(self.hi + other.hi)
        )

    __radd__ = __add__

    def __sub__(self, other: "IntervalArray | float") -> "IntervalArray":
        other = _coerce(other, self.shape)
        return IntervalArray(
            next_down_array(self.lo - other.hi), next_up_array(self.hi - other.lo)
        )

    def __rsub__(self, other: "IntervalArray | float") -> "IntervalArray":
        return _coerce(other, self.shape) - self

    def __mul__(self, other: "IntervalArray | float") -> "IntervalArray":
        other = _coerce(other, self.shape)
        lo, hi = _mul_bounds(self.lo, self.hi, other.lo, other.hi)
        return IntervalArray(next_down_array(lo), next_up_array(hi))

    __rmul__ = __mul__

    def __truediv__(self, other: "IntervalArray | float") -> "IntervalArray":
        other = _coerce(other, self.shape)
        return _divide(self, other)

    def __rtruediv__(self, other: "IntervalArray | float") -> "IntervalArray":
        return _coerce(other, self.shape) / self

    def reciprocal(self) -> "IntervalArray":
        """Per-member ``1 / x``; members spanning zero become entire.

        Where the scalar class raises on ``[0, 0]`` this returns the
        (sound) whole line instead — batches cannot raise per member.
        """
        rec_lo, rec_hi = _reciprocal_bounds(self.lo, self.hi)
        return IntervalArray(rec_lo, rec_hi)

    def extended_divide_hull(self, other: "IntervalArray") -> "IntervalArray":
        """Hull of the generalized division used by backward contractors.

        Mirrors ``hull(Interval.extended_divide(...))``: denominators
        strictly spanning zero hull to the whole line; a ``[0, 0]``
        denominator gives the whole line when the numerator can be zero
        and the *empty* member otherwise.
        """
        res = self / other
        den_zero = (other.lo == 0.0) & (other.hi == 0.0)
        if den_zero.any():
            num_zero = self.contains(0.0)
            emp = den_zero & ~num_zero
            lo = np.where(emp, _INF, res.lo)
            hi = np.where(emp, -_INF, res.hi)
            res = IntervalArray(lo, hi)
        return res

    def __pow__(self, exponent: int) -> "IntervalArray":
        if not isinstance(exponent, int):
            raise IntervalError(f"interval power requires an integer, got {exponent!r}")
        if exponent == 0:
            ones = np.ones_like(self.lo)
            return IntervalArray(ones, ones.copy())
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        with np.errstate(over="ignore", invalid="ignore"):
            lo_p = self.lo ** exponent
            hi_p = self.hi ** exponent
        if exponent % 2 == 1:
            return IntervalArray(
                next_down_array(lo_p, 2), next_up_array(hi_p, 2)
            )
        crosses = (self.lo <= 0.0) & (0.0 <= self.hi)
        hi = next_up_array(np.maximum(lo_p, hi_p), 2)
        lo = np.where(
            crosses, 0.0, next_down_array(np.minimum(lo_p, hi_p), 2)
        )
        return IntervalArray(lo, hi)

    def sq(self) -> "IntervalArray":
        """``x**2`` (contractor-friendly name)."""
        return self ** 2

    def abs(self) -> "IntervalArray":
        """Per-member ``|x|`` (exact)."""
        crosses = (self.lo < 0.0) & (self.hi > 0.0)
        lo = np.where(crosses, 0.0, self.mignitude())
        hi = self.magnitude()
        # Entirely-negative members mirror exactly like the scalar -self.
        return IntervalArray(lo, hi)

    def min_with(self, other: "IntervalArray | float") -> "IntervalArray":
        """Per-member interval image of ``min(self, other)``."""
        other = _coerce(other, self.shape)
        return IntervalArray(
            np.minimum(self.lo, other.lo), np.minimum(self.hi, other.hi)
        )

    def max_with(self, other: "IntervalArray | float") -> "IntervalArray":
        """Per-member interval image of ``max(self, other)``."""
        other = _coerce(other, self.shape)
        return IntervalArray(
            np.maximum(self.lo, other.lo), np.maximum(self.hi, other.hi)
        )

    # ------------------------------------------------------------------
    # Elementary functions
    # ------------------------------------------------------------------
    def sqrt(self) -> "IntervalArray":
        """Square root; members entirely below zero come back empty."""
        with np.errstate(invalid="ignore"):
            lo = np.maximum(next_down_array(np.sqrt(np.maximum(self.lo, 0.0))), 0.0)
            hi = next_up_array(np.sqrt(np.maximum(self.hi, 0.0)))
        emp = self.hi < 0.0
        if emp.any():
            lo = np.where(emp, _INF, lo)
            hi = np.where(emp, -_INF, hi)
        return IntervalArray(lo, hi)

    def exp(self) -> "IntervalArray":
        """Exponential (monotone; endpoints widened by 2 ulps)."""
        with np.errstate(over="ignore"):
            lo = np.maximum(next_down_array(np.exp(self.lo), 2), 0.0)
            hi = next_up_array(np.exp(self.hi), 2)
        return IntervalArray(lo, hi)

    def log(self) -> "IntervalArray":
        """Natural log; members entirely non-positive come back empty."""
        # No subnormal clamp: np.log is correct down to 5e-324, and
        # clamping would raise the lower bound above the true infimum
        # (unsound).  Non-positive operands are routed by the wheres.
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.where(
                self.lo <= 0.0,
                -_INF,
                next_down_array(np.log(np.abs(self.lo)), 2),
            )
            hi = np.where(
                self.hi < _INF,
                next_up_array(np.log(np.abs(self.hi)), 2),
                _INF,
            )
        emp = self.hi <= 0.0
        if emp.any():
            lo = np.where(emp, _INF, lo)
            hi = np.where(emp, -_INF, hi)
        return IntervalArray(lo, hi)

    def tanh(self) -> "IntervalArray":
        """Hyperbolic tangent, clamped to [-1, 1]."""
        # NumPy's SIMD tanh strays up to ~3 ulps from libm's: widen by 4.
        return IntervalArray(
            np.maximum(next_down_array(np.tanh(self.lo), 4), -1.0),
            np.minimum(next_up_array(np.tanh(self.hi), 4), 1.0),
        )

    def sigmoid(self) -> "IntervalArray":
        """Logistic sigmoid ``1 / (1 + exp(-x))``, clamped to [0, 1]."""
        # Composed through exp and a divide: widen by 4 like tanh.
        return IntervalArray(
            np.maximum(next_down_array(_sigmoid(self.lo), 4), 0.0),
            np.minimum(next_up_array(_sigmoid(self.hi), 4), 1.0),
        )

    def atan(self) -> "IntervalArray":
        """Arctangent (monotone; endpoints widened by 2 ulps)."""
        return IntervalArray(
            next_down_array(np.arctan(self.lo), 2),
            next_up_array(np.arctan(self.hi), 2),
        )

    def sin(self) -> "IntervalArray":
        """Sine, with peak/trough detection across the period."""
        return _periodic_image(self, np.sin, peak_offset=_HALF_PI)

    def cos(self) -> "IntervalArray":
        """Cosine, with peak/trough detection across the period."""
        return _periodic_image(self, np.cos, peak_offset=0.0)

    def tan(self) -> "IntervalArray":
        """Tangent; members that may contain a pole become entire."""
        finite = self.is_finite()
        slack = trig_slack(self.magnitude())
        with np.errstate(invalid="ignore"):
            k = np.ceil((self.lo - slack - _HALF_PI) / _PI)
            pole = _HALF_PI + _PI * k
            has_pole = pole <= self.hi + slack
        wide = ~finite | (self.width() >= _PI) | has_pole
        with np.errstate(invalid="ignore"):
            lo = next_down_array(np.tan(self.lo), 2)
            hi = next_up_array(np.tan(self.hi), 2)
        lo = np.where(wide, -_INF, lo)
        hi = np.where(wide, _INF, hi)
        return IntervalArray(lo, hi)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"IntervalArray(shape={self.shape})"




def _coerce(value, shape) -> IntervalArray:
    if isinstance(value, IntervalArray):
        return value
    if isinstance(value, Interval):
        return IntervalArray(
            np.full(shape, value.lo), np.full(shape, value.hi)
        )
    values = np.broadcast_to(_as_float_array(value), shape)
    return IntervalArray(values.copy(), values.copy())


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        out[~pos] = e / (1.0 + e)
    return out


def _mul_bounds(alo, ahi, blo, bhi):
    """Raw four-product multiplication bounds (no widening)."""
    with np.errstate(invalid="ignore"):
        p1 = alo * blo
        p2 = alo * bhi
        p3 = ahi * blo
        p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    # 0 * inf yields NaN; in interval algebra that product contributes 0.
    # NaN propagates through minimum/maximum, so one check on the reduced
    # bounds covers all four products (the common all-finite case pays
    # for two isnan calls instead of four copyto passes).
    if np.isnan(lo).any() or np.isnan(hi).any():
        for p in (p1, p2, p3, p4):
            np.copyto(p, 0.0, where=np.isnan(p))
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def _reciprocal_bounds(blo, bhi):
    """Reciprocal endpoints mirroring ``Interval.reciprocal`` branch-wise.

    ``[0, 0]`` denominators yield the whole line (the scalar raises; a
    batch cannot), as do members strictly spanning zero.
    """
    lo_zero = blo == 0.0
    hi_zero = bhi == 0.0
    if not lo_zero.any() and not hi_zero.any():
        # Fast path: no endpoint touches zero, so only the spans-zero
        # case needs masking after the plain reciprocal.
        with np.errstate(divide="ignore", over="ignore"):
            rec_lo = next_down_array(1.0 / bhi)
            rec_hi = next_up_array(1.0 / blo)
        spans = (blo < 0.0) & (0.0 < bhi)
        if spans.any():
            rec_lo = np.where(spans, -_INF, rec_lo)
            rec_hi = np.where(spans, _INF, rec_hi)
        return rec_lo, rec_hi
    spans = (blo < 0.0) & (0.0 < bhi)
    zero = lo_zero & hi_zero
    safe_hi = np.where(hi_zero, 1.0, bhi)
    safe_lo = np.where(lo_zero, 1.0, blo)
    with np.errstate(divide="ignore", over="ignore"):
        inv_hi = next_down_array(1.0 / safe_hi)
        inv_lo = next_up_array(1.0 / safe_lo)
    rec_lo = np.where(hi_zero, -_INF, inv_hi)
    rec_hi = np.where(lo_zero, _INF, inv_lo)
    rec_lo = np.where(spans | zero, -_INF, rec_lo)
    rec_hi = np.where(spans | zero, _INF, rec_hi)
    return rec_lo, rec_hi


def _divide(num: IntervalArray, den: IntervalArray) -> IntervalArray:
    """Mirror of ``Interval.__truediv__``: reciprocal then multiply.

    Denominators strictly spanning zero (and the scalar-raising ``[0,0]``)
    produce the whole line.
    """
    rec_lo, rec_hi = _reciprocal_bounds(den.lo, den.hi)
    lo, hi = _mul_bounds(num.lo, num.hi, rec_lo, rec_hi)
    lo = next_down_array(lo)
    hi = next_up_array(hi)
    spans = ((den.lo < 0.0) & (0.0 < den.hi)) | ((den.lo == 0.0) & (den.hi == 0.0))
    if spans.any():
        lo = np.where(spans, -_INF, lo)
        hi = np.where(spans, _INF, hi)
    return IntervalArray(lo, hi)


def _periodic_image(ival: IntervalArray, func, peak_offset: float) -> IntervalArray:
    """Vectorized sound image of sin/cos, sharing the scalar slack logic."""
    with np.errstate(invalid="ignore"):
        v_lo = func(ival.lo)
        v_hi = func(ival.hi)
    lower = next_down_array(np.minimum(v_lo, v_hi))
    upper = next_up_array(np.maximum(v_lo, v_hi))
    slack = trig_slack(ival.magnitude())
    upper = np.where(
        _has_critical(ival.lo, ival.hi, peak_offset, slack), 1.0, upper
    )
    lower = np.where(
        _has_critical(ival.lo, ival.hi, peak_offset + _PI, slack), -1.0, lower
    )
    wide = ~ival.is_finite() | (ival.width() >= _TWO_PI)
    lower = np.where(wide, -1.0, np.maximum(lower, -1.0))
    upper = np.where(wide, 1.0, np.minimum(upper, 1.0))
    return IntervalArray(lower, upper)


def _has_critical(alo, ahi, offset: float, slack):
    with np.errstate(invalid="ignore"):
        k = np.ceil((alo - slack - offset) / _TWO_PI)
        point = offset + _TWO_PI * k
        result = point <= ahi + slack
    return np.where(np.isfinite(alo) & np.isfinite(ahi), result, True)


class BoxArray:
    """An ICP frontier: ``m`` axis-aligned ``n``-boxes in two matrices.

    ``lo`` and ``hi`` have shape ``(m, n)``; row ``i`` is one box, column
    ``j`` one variable.  The batched solver keeps its whole frontier in
    one ``BoxArray`` and splits/prunes with boolean masks — no per-box
    Python objects on the hot path.  Like :class:`IntervalArray` the
    class is immutable-by-convention; operations return new instances.
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

    @staticmethod
    def empty(dimension: int) -> "BoxArray":
        """A zero-row frontier of the given dimension."""
        return BoxArray(np.empty((0, dimension)), np.empty((0, dimension)))

    def to_boxes(self) -> list:
        """Unpack into scalar :class:`~repro.intervals.Box` objects."""
        from .box import Box

        return [self.box_at(i) for i in range(len(self))]

    def box_at(self, index: int):
        """Row ``index`` as a scalar :class:`~repro.intervals.Box`."""
        from .box import Box

        return Box(
            Interval(lo, hi) for lo, hi in zip(self.lo[index], self.hi[index])
        )

    def to_array(self) -> np.ndarray:
        """``(m, n, 2)`` array of ``[lo, hi]`` pairs."""
        return np.stack([self.lo, self.hi], axis=-1)

    def column(self, index: int) -> IntervalArray:
        """Variable ``index`` across the whole frontier."""
        return IntervalArray(self.lo[:, index], self.hi[:, index])

    def replace_column(self, index: int, column: IntervalArray) -> "BoxArray":
        """New frontier with variable ``index`` swapped out."""
        lo = self.lo.copy()
        hi = self.hi.copy()
        lo[:, index] = column.lo
        hi[:, index] = column.hi
        return BoxArray(lo, hi)

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
        return IntervalArray(self.lo, self.hi).width()

    def raw_widths(self) -> np.ndarray:
        """Plain ``hi - lo`` without outward rounding, shape ``(m, n)``."""
        return self.hi - self.lo

    def max_widths(self) -> np.ndarray:
        """Per-box largest component width, shape ``(m,)``."""
        if self.dimension == 0:
            return np.zeros(len(self))
        return self.widths().max(axis=1)

    def midpoints(self) -> np.ndarray:
        """Per-box midpoint vectors, shape ``(m, n)``."""
        return IntervalArray(self.lo, self.hi).midpoint()

    def is_finite(self) -> np.ndarray:
        """Per-box all-components-finite mask, shape ``(m,)``."""
        return (np.isfinite(self.lo) & np.isfinite(self.hi)).all(axis=1)

    def empty_mask(self) -> np.ndarray:
        """Per-box any-component-empty mask, shape ``(m,)``."""
        return (self.lo > self.hi).any(axis=1)

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Row-wise membership of ``(m, n)`` points, shape ``(m,)``."""
        points = _as_float_array(points)
        return ((self.lo <= points) & (points <= self.hi)).all(axis=1)

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

    def intersection(self, other: "BoxArray") -> "BoxArray":
        """Component-wise intersection (empty components flagged via
        :meth:`empty_mask`, canonically ``[+inf, -inf]``)."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        emp = lo > hi
        if emp.any():
            lo = np.where(emp, _INF, lo)
            hi = np.where(emp, -_INF, hi)
        return BoxArray(lo, hi)

    def widest_dimensions(self) -> np.ndarray:
        """Per-box index of the widest component (first among ties)."""
        return np.argmax(self.widths(), axis=1)

    def bisect_widest(self) -> tuple["BoxArray", "BoxArray"]:
        """Split every box along its widest component at the midpoint.

        Returns the two half frontiers in matching row order; the split
        point is the component's :meth:`IntervalArray.midpoint`, which
        mirrors the scalar ``Interval.split()`` bit-for-bit.
        """
        rows = np.arange(len(self))
        dims = self.widest_dimensions()
        cols = IntervalArray(self.lo[rows, dims], self.hi[rows, dims])
        mids = cols.midpoint()
        left_hi = self.hi.copy()
        left_hi[rows, dims] = mids
        right_lo = self.lo.copy()
        right_lo[rows, dims] = mids
        return BoxArray(self.lo.copy(), left_hi), BoxArray(right_lo, self.hi.copy())

    def __repr__(self) -> str:
        return f"BoxArray({len(self)} boxes, dimension {self.dimension})"
