"""Free-function façade over :class:`~repro.intervals.interval.Interval`.

These wrappers accept either intervals or plain floats, which keeps
numeric code and interval code textually identical — the expression
walker (:func:`repro.expr.evaluate`) uses them to evaluate one DAG in
both semantics.
"""

from __future__ import annotations

import math
from typing import Union

from .interval import Interval

__all__ = [
    "isin",
    "icos",
    "itan",
    "itanh",
    "isigmoid",
    "iexp",
    "ilog",
    "isqrt",
    "iabs",
    "iatan",
    "imin",
    "imax",
    "ipow",
]

Scalar = Union[Interval, float, int]


def _lift(value: Scalar) -> "Interval | float":
    return value if isinstance(value, Interval) else float(value)


def isin(x: Scalar):
    """Interval/scalar sine."""
    x = _lift(x)
    return x.sin() if isinstance(x, Interval) else math.sin(x)


def icos(x: Scalar):
    """Interval/scalar cosine."""
    x = _lift(x)
    return x.cos() if isinstance(x, Interval) else math.cos(x)


def itan(x: Scalar):
    """Interval/scalar tangent."""
    x = _lift(x)
    return x.tan() if isinstance(x, Interval) else math.tan(x)


def itanh(x: Scalar):
    """Interval/scalar hyperbolic tangent (the paper's ``tansig``)."""
    x = _lift(x)
    return x.tanh() if isinstance(x, Interval) else math.tanh(x)


def isigmoid(x: Scalar):
    """Interval/scalar logistic sigmoid."""
    x = _lift(x)
    if isinstance(x, Interval):
        return x.sigmoid()
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def iexp(x: Scalar):
    """Interval/scalar exponential."""
    x = _lift(x)
    return x.exp() if isinstance(x, Interval) else math.exp(x)


def ilog(x: Scalar):
    """Interval/scalar natural logarithm."""
    x = _lift(x)
    return x.log() if isinstance(x, Interval) else math.log(x)


def isqrt(x: Scalar):
    """Interval/scalar square root."""
    x = _lift(x)
    return x.sqrt() if isinstance(x, Interval) else math.sqrt(x)


def iabs(x: Scalar):
    """Interval/scalar absolute value."""
    x = _lift(x)
    return x.abs() if isinstance(x, Interval) else abs(x)


def iatan(x: Scalar):
    """Interval/scalar arctangent."""
    x = _lift(x)
    return x.atan() if isinstance(x, Interval) else math.atan(x)


def imin(a: Scalar, b: Scalar):
    """Pointwise minimum in either semantics."""
    a = _lift(a)
    b = _lift(b)
    if isinstance(a, Interval) or isinstance(b, Interval):
        # min is commutative: lead with the interval so its coercion
        # handles a float operand.
        if not isinstance(a, Interval):
            a, b = b, a
        return a.min_with(b)
    return min(a, b)


def imax(a: Scalar, b: Scalar):
    """Pointwise maximum in either semantics."""
    a = _lift(a)
    b = _lift(b)
    if isinstance(a, Interval) or isinstance(b, Interval):
        # max is commutative: lead with the interval so its coercion
        # handles a float operand.
        if not isinstance(a, Interval):
            a, b = b, a
        return a.max_with(b)
    return max(a, b)


def ipow(x: Scalar, n: int):
    """Integer power in either semantics."""
    x = _lift(x)
    return x**n if isinstance(x, Interval) else float(x) ** n
