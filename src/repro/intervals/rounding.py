"""Outward-rounding helpers for sound interval arithmetic.

IEEE-754 floating point rounds to nearest by default, so a naively
computed interval bound can land strictly inside the true bound.  To keep
enclosures sound we widen every computed bound by one unit in the last
place (ulp) using :func:`math.nextafter`.  This is slightly looser than
switching the FPU rounding mode but is portable, branch-free, and — for
the verification queries in this library — the extra ulp is negligible
compared to the solver precision ``delta``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "PAD",
    "TRIG_SLACK",
    "next_down",
    "next_down_array",
    "next_up",
    "next_up_array",
    "round_down",
    "round_up",
    "trig_slack",
    "widen",
]

_INF = math.inf

#: Relative slack used when locating trig critical points and poles: the
#: float representation of pi is inexact, so containment tests are
#: inflated by ``TRIG_SLACK * (1 + magnitude)``.  This is the single
#: source of truth shared by the scalar :class:`~repro.intervals.Interval`,
#: the batched :class:`~repro.intervals.IntervalArray`, and the compiled
#: tape semantics of :mod:`repro.expr.compile` — keeping the three
#: implementations' critical-point decisions bit-identical.
TRIG_SLACK = 1e-12

#: Relative padding applied by backward (inverse) contractor rules whose
#: inverses go through transcendental kernels (the scalar HC4 of
#: :mod:`repro.smt.contractor`).
PAD = 1e-12


def trig_slack(magnitude):
    """Absolute slack for trig critical-point tests at a given magnitude.

    Accepts a float or an ndarray of magnitudes; the formula is the
    shared definition used by every interval implementation in the
    package.
    """
    return TRIG_SLACK * (1.0 + magnitude)


def next_down(value: float) -> float:
    """Return the largest float strictly below ``value`` (identity at -inf)."""
    if value == -_INF or math.isnan(value):
        return value
    return math.nextafter(value, -_INF)


def next_up(value: float) -> float:
    """Return the smallest float strictly above ``value`` (identity at +inf)."""
    if value == _INF or math.isnan(value):
        return value
    return math.nextafter(value, _INF)


def round_down(value: float, exact: bool = False) -> float:
    """Lower bound after a possibly inexact operation.

    ``exact=True`` skips the widening for operations known to be exact in
    floating point (negation, multiplication by powers of two, copies).
    """
    if exact:
        return value
    return next_down(value)


def round_up(value: float, exact: bool = False) -> float:
    """Upper bound after a possibly inexact operation (see :func:`round_down`)."""
    if exact:
        return value
    return next_up(value)


def widen(lower: float, upper: float) -> tuple[float, float]:
    """Widen both endpoints outward by one ulp each."""
    return next_down(lower), next_up(upper)


def next_down_array(values: np.ndarray, ulps: int = 1) -> np.ndarray:
    """Vectorized :func:`next_down`: ``ulps`` steps toward ``-inf``.

    ``np.nextafter`` matches ``math.nextafter`` bit-for-bit (identity at
    ``-inf``, NaN passthrough), so one step reproduces the scalar
    rounding exactly.  ``ulps=2`` is used by the array ops whose NumPy
    kernels (pow, exp, log, tan, tanh, sigmoid, atan) may differ from the
    libm scalars by up to one ulp — the extra step keeps the array result
    a superset of the scalar one.
    """
    out = values
    for _ in range(ulps):
        out = np.nextafter(out, -_INF)
    return out


def next_up_array(values: np.ndarray, ulps: int = 1) -> np.ndarray:
    """Vectorized :func:`next_up` (see :func:`next_down_array`)."""
    out = values
    for _ in range(ulps):
        out = np.nextafter(out, _INF)
    return out
