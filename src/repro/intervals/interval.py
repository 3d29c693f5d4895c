"""A sound, outward-rounded real interval.

:class:`Interval` is the scalar building block of the δ-SAT solver: every
arithmetic operation returns an interval guaranteed to contain the exact
real result for all points of the operands (inclusion isotonicity).
Endpoints from correctly rounded IEEE operations are widened by one ulp;
endpoints from libm functions are padded by ``LIBM_REL`` relative and
then one ulp (see :mod:`repro.intervals.rounding`).

The class is immutable; operators return new intervals.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ..errors import DomainError, EmptyIntervalError, IntervalError
from .rounding import (
    libm_down,
    libm_up,
    next_down,
    next_up,
    round_down,
    round_up,
    trig_slack,
)

__all__ = ["Interval"]

_INF = math.inf
_PI = math.pi
_TWO_PI = 2.0 * math.pi


class Interval:
    """A closed real interval ``[lo, hi]`` with outward-rounded arithmetic.

    Parameters
    ----------
    lo, hi:
        Endpoints.  ``lo`` must not exceed ``hi`` (NaNs are rejected).

    Examples
    --------
    >>> x = Interval(0.0, 1.0)
    >>> (x + x).hi >= 2.0
    True
    >>> Interval.point(3.0).is_point()
    True
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = float(lo)
        hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise IntervalError(f"NaN interval endpoint: [{lo}, {hi}]")
        if lo > hi:
            raise IntervalError(f"empty interval: lo={lo} > hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interval is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def point(value: float) -> "Interval":
        """Degenerate interval ``[value, value]``."""
        return Interval(value, value)

    @staticmethod
    def entire() -> "Interval":
        """The whole real line ``[-inf, inf]``."""
        return Interval(-_INF, _INF)

    @staticmethod
    def nonnegative() -> "Interval":
        """``[0, inf]``."""
        return Interval(0.0, _INF)

    @staticmethod
    def hull_of(values: Iterable[float]) -> "Interval":
        """Smallest interval containing all ``values`` (must be non-empty)."""
        values = list(values)
        if not values:
            raise IntervalError("hull_of requires at least one value")
        return Interval(min(values), max(values))

    @staticmethod
    def from_midpoint(mid: float, radius: float) -> "Interval":
        """Interval centred at ``mid`` with half-width ``radius >= 0``."""
        if radius < 0:
            raise IntervalError(f"negative radius: {radius}")
        return Interval(round_down(mid - radius), round_up(mid + radius))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def width(self) -> float:
        """Upper-bounded width ``hi - lo`` (inf for unbounded intervals)."""
        if self.lo == -_INF or self.hi == _INF:
            return _INF
        return round_up(self.hi - self.lo)

    def midpoint(self) -> float:
        """A finite point inside the interval, central when both ends are finite."""
        if self.lo == -_INF and self.hi == _INF:
            return 0.0
        if self.lo == -_INF:
            return min(self.hi, 0.0) - 1.0 if self.hi == _INF else self.hi - 1.0
        if self.hi == _INF:
            return self.lo + 1.0
        mid = 0.5 * (self.lo + self.hi)
        if not math.isfinite(mid):  # overflow for huge finite endpoints
            mid = 0.5 * self.lo + 0.5 * self.hi
        # Guarantee containment even under rounding.
        return min(max(mid, self.lo), self.hi)

    def magnitude(self) -> float:
        """``max(|x|)`` over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def mignitude(self) -> float:
        """``min(|x|)`` over the interval (0 if it contains 0)."""
        if self.contains(0.0):
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def is_point(self) -> bool:
        """True when ``lo == hi``."""
        return self.lo == self.hi

    def is_finite(self) -> bool:
        """True when both endpoints are finite."""
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, value: float) -> bool:
        """Membership test for a scalar."""
        return self.lo <= value <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        """True when ``other`` is a subset of this interval."""
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_contains_zero(self) -> bool:
        """True when 0 is in the interior."""
        return self.lo < 0.0 < self.hi

    def intersects(self, other: "Interval") -> bool:
        """True when the two intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    # ------------------------------------------------------------------
    # Lattice operations
    # ------------------------------------------------------------------
    def intersection(self, other: "Interval") -> "Interval":
        """Set intersection; raises :class:`EmptyIntervalError` if disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise EmptyIntervalError(f"disjoint intervals: {self} and {other}")
        return Interval(lo, hi)

    def try_intersection(self, other: "Interval") -> "Interval | None":
        """Like :meth:`intersection`, but returns None for disjoint intervals."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def inflate(self, absolute: float = 0.0, relative: float = 0.0) -> "Interval":
        """Widen by an absolute amount plus a fraction of the magnitude."""
        pad = absolute + relative * self.magnitude()
        return Interval(round_down(self.lo - pad), round_up(self.hi + pad))

    def split(self, at: float | None = None) -> tuple["Interval", "Interval"]:
        """Bisect at ``at`` (default: midpoint) into two covering halves."""
        if at is None:
            at = self.midpoint()
        if not self.contains(at):
            raise IntervalError(f"split point {at} outside {self}")
        return Interval(self.lo, at), Interval(at, self.hi)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)  # negation is exact

    def __add__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        return Interval(round_down(self.lo + other.lo), round_up(self.hi + other.hi))

    __radd__ = __add__

    def __sub__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        return Interval(round_down(self.lo - other.hi), round_up(self.hi - other.lo))

    def __rsub__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) - self

    def __mul__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        products = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                p = a * b
                if math.isnan(p):  # 0 * inf — contributes 0 in interval algebra
                    p = 0.0
                products.append(p)
        return Interval(round_down(min(products)), round_up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval | float") -> "Interval":
        other = _coerce(other)
        if other.lo == 0.0 and other.hi == 0.0:
            raise DomainError("division by the point interval [0, 0]")
        if other.strictly_contains_zero():
            # The true image is a union of two rays; the hull is sound.
            return Interval.entire()
        if other.lo == 0.0 or other.hi == 0.0:
            return _one_sided_divide(self, other)
        return self * other.reciprocal()

    def __rtruediv__(self, other: "Interval | float") -> "Interval":
        return _coerce(other) / self

    def reciprocal(self) -> "Interval":
        """``1 / x`` for an interval not containing zero in its interior."""
        if self.strictly_contains_zero():
            return Interval.entire()
        if self.lo == 0.0 and self.hi == 0.0:
            raise DomainError("reciprocal of [0, 0]")
        if self.lo == 0.0:
            return Interval(round_down(1.0 / self.hi), _INF)
        if self.hi == 0.0:
            return Interval(-_INF, round_up(1.0 / self.lo))
        return Interval(round_down(1.0 / self.hi), round_up(1.0 / self.lo))

    def extended_divide(self, other: "Interval") -> list["Interval"]:
        """Generalized division used by backward contractors.

        Returns the (possibly two-piece) set ``{x / y : x in self, y in
        other, y != 0}`` as a list of intervals; empty list when ``other``
        is identically zero and ``self`` excludes zero.
        """
        if not other.strictly_contains_zero():
            if other.lo == other.hi == 0.0:
                return [Interval.entire()] if self.contains(0.0) else []
            return [self / other]
        if self.contains(0.0):
            return [Interval.entire()]
        pieces: list[Interval] = []
        neg = Interval(other.lo, next_down(0.0)) if other.lo < 0 else None
        pos = Interval(next_up(0.0), other.hi) if other.hi > 0 else None
        if self.hi < 0.0:
            if pos is not None:
                pieces.append(Interval(-_INF, round_up(self.hi / pos.hi)))
            if neg is not None:
                pieces.append(Interval(round_down(self.hi / neg.lo), _INF))
        elif self.lo > 0.0:
            if neg is not None:
                pieces.append(Interval(-_INF, round_up(self.lo / neg.lo)))
            if pos is not None:
                pieces.append(Interval(round_down(self.lo / pos.hi), _INF))
        return pieces

    def __pow__(self, exponent: int) -> "Interval":
        if not isinstance(exponent, int):
            raise IntervalError(f"interval power requires an integer, got {exponent!r}")
        if exponent == 0:
            return Interval.point(1.0)
        if exponent < 0:
            return (self ** (-exponent)).reciprocal()
        if exponent % 2 == 1:
            return Interval(
                libm_down(_pow(self.lo, exponent)), libm_up(_pow(self.hi, exponent))
            )
        lo_p = _pow(self.lo, exponent)
        hi_p = _pow(self.hi, exponent)
        if self.contains(0.0):
            return Interval(0.0, libm_up(max(lo_p, hi_p)))
        return Interval(libm_down(min(lo_p, hi_p)), libm_up(max(lo_p, hi_p)))

    def sq(self) -> "Interval":
        """``x**2`` (tighter name used by contractors)."""
        return self**2

    def abs(self) -> "Interval":
        """``|x|`` over the interval."""
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, self.magnitude())

    def min_with(self, other: "Interval | float") -> "Interval":
        """Pointwise ``min(x, y)`` image."""
        other = _coerce(other)
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval | float") -> "Interval":
        """Pointwise ``max(x, y)`` image."""
        other = _coerce(other)
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))

    # ------------------------------------------------------------------
    # Elementary functions
    # ------------------------------------------------------------------
    def sqrt(self) -> "Interval":
        """Square root; the domain is clipped at zero with a DomainError below."""
        if self.hi < 0.0:
            raise DomainError(f"sqrt of negative interval {self}")
        lo = max(self.lo, 0.0)
        return Interval(
            max(round_down(math.sqrt(lo)), 0.0), round_up(math.sqrt(self.hi))
        )

    def exp(self) -> "Interval":
        return Interval(
            max(libm_down(_exp(self.lo)), 0.0), libm_up(_exp(self.hi))
        )

    def log(self) -> "Interval":
        if self.hi <= 0.0:
            raise DomainError(f"log of non-positive interval {self}")
        lo = -_INF if self.lo <= 0.0 else libm_down(math.log(self.lo))
        hi = libm_up(math.log(self.hi)) if self.hi < _INF else _INF
        return Interval(lo, hi)

    def tanh(self) -> "Interval":
        return Interval(
            max(libm_down(math.tanh(self.lo)), -1.0),
            min(libm_up(math.tanh(self.hi)), 1.0),
        )

    def sigmoid(self) -> "Interval":
        """Logistic function ``1 / (1 + exp(-x))``; monotone increasing."""
        return Interval(
            max(libm_down(_sigmoid(self.lo)), 0.0),
            min(libm_up(_sigmoid(self.hi)), 1.0),
        )

    def atan(self) -> "Interval":
        return Interval(libm_down(math.atan(self.lo)), libm_up(math.atan(self.hi)))

    def sin(self) -> "Interval":
        return _periodic_image(self, math.sin, peak_offset=_PI / 2.0)

    def cos(self) -> "Interval":
        return _periodic_image(self, math.cos, peak_offset=0.0)

    def tan(self) -> "Interval":
        """Tangent; returns the whole line when a pole may lie inside."""
        if not self.is_finite() or self.width() >= _PI:
            return Interval.entire()
        # Poles at pi/2 + k*pi; the slack is relative to the interval
        # magnitude, the same formula the compiled tape uses, so the
        # pole-containment decision is bit-identical across the scalar
        # and tape implementations.
        slack = trig_slack(self.magnitude())
        k = math.ceil((self.lo - slack - _PI / 2.0) / _PI)
        pole = _PI / 2.0 + k * _PI
        if pole <= self.hi + slack:
            return Interval.entire()
        return Interval(libm_down(math.tan(self.lo)), libm_up(math.tan(self.hi)))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __iter__(self) -> Iterator[float]:
        return iter((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __str__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


def _coerce(value: "Interval | float") -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(float(value))


def _one_sided_divide(num: Interval, den: Interval) -> Interval:
    """Division by an interval touching zero at exactly one endpoint."""
    if den.lo == 0.0:  # den subset of [0, +)
        rec = Interval(round_down(1.0 / den.hi), _INF)
    else:  # den.hi == 0.0, subset of (-, 0]
        rec = Interval(-_INF, round_up(1.0 / den.lo))
    return num * rec


def _pow(x: float, n: int) -> float:
    """``x ** n`` (libm's ``pow``), or the signed infinity it overflows to.

    The libm padding then rounds an infinite result outward like a
    finite one: an overflowed ``hi`` stays ``+inf`` and an overflowed
    ``lo`` becomes the largest float, both sound bounds.
    """
    try:
        return x**n
    except OverflowError:
        return -_INF if x < 0.0 and n % 2 else _INF


def _exp(x: float) -> float:
    """``math.exp(x)``, or ``+inf`` where it overflows (see :func:`_pow`)."""
    try:
        return math.exp(x)
    except OverflowError:
        return _INF


def _sigmoid(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _periodic_image(ival: Interval, func, peak_offset: float) -> Interval:
    """Sound image of sin/cos over an interval.

    ``func`` is math.sin or math.cos and ``peak_offset`` locates its first
    maximum at ``peak_offset + 2*pi*k`` (minima are shifted by pi).  The
    float representation of pi is inexact, so critical-point containment
    tests are inflated by a relative slack; the endpoint images are always
    included with the libm padding, which keeps the result sound.
    """
    if not ival.is_finite() or ival.width() >= _TWO_PI:
        return Interval(-1.0, 1.0)
    lo_val = func(ival.lo)
    hi_val = func(ival.hi)
    lower = libm_down(min(lo_val, hi_val))
    upper = libm_up(max(lo_val, hi_val))
    if _contains_critical(ival, peak_offset):
        upper = 1.0
    if _contains_critical(ival, peak_offset + _PI):
        lower = -1.0
    return Interval(max(lower, -1.0), min(upper, 1.0))


def _contains_critical(ival: Interval, offset: float) -> bool:
    """Does ``ival`` (slightly inflated) contain ``offset + 2*pi*k`` for some k?"""
    slack = trig_slack(ival.magnitude())
    k = math.ceil((ival.lo - slack - offset) / _TWO_PI)
    point = offset + _TWO_PI * k
    return point <= ival.hi + slack
