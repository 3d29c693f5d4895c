"""Outward-rounding helpers for sound interval arithmetic.

IEEE-754 floating point rounds to nearest by default, so a naively
computed interval bound can land strictly inside the true bound.  Two
rules keep enclosures sound:

* A correctly rounded IEEE operation (``+ - * /``, ``sqrt``) is at most
  half an ulp off, so its result is widened by one unit in the last
  place (ulp) using :func:`math.nextafter` (:func:`round_down`,
  :func:`round_up`).
* A libm function (``exp``, ``log``, ``tanh``, ``atan``, …) is not
  correctly rounded; glibc's ``tanh`` is up to 2 ulps off, and the
  sigmoid composes ``exp``, ``+`` and ``/``.  Its result is first padded
  by :data:`LIBM_REL` times its magnitude and then widened by one ulp
  (:func:`libm_down`, :func:`libm_up`).  The compiled tape of
  :mod:`repro.expr.compile` pads every inexact instruction by the same
  :data:`LIBM_REL`.

This is slightly looser than switching the FPU rounding mode but is
portable, branch-free, and — for the verification queries in this
library — the padding is negligible compared to the solver precision
``delta``.
"""

from __future__ import annotations

import math

__all__ = [
    "LIBM_REL",
    "PAD",
    "TRIG_SLACK",
    "libm_down",
    "libm_up",
    "next_down",
    "next_up",
    "round_down",
    "round_up",
    "trig_slack",
    "widen",
]

_INF = math.inf

#: Relative padding (8 eps) of a result whose error is not bounded by
#: IEEE rounding: a libm or NumPy transcendental, or a chain of them.
#: 8 eps is 8 to 16 ulps of any normal value, several times the
#: documented and measured error of every kernel the package calls.
LIBM_REL = 8.0 * 2.0**-52

#: Relative slack used when locating trig critical points and poles: the
#: float representation of pi is inexact, so containment tests are
#: inflated by ``TRIG_SLACK * (1 + magnitude)``.  This is the single
#: source of truth shared by the scalar :class:`~repro.intervals.Interval`
#: and the compiled tape semantics of :mod:`repro.expr.compile` — keeping
#: the two implementations' critical-point decisions bit-identical.
TRIG_SLACK = 1e-12

#: Relative padding applied by backward (inverse) contractor rules whose
#: inverses go through transcendental kernels (the scalar HC4 of
#: :mod:`repro.smt.contractor`).
PAD = 1e-12


def trig_slack(magnitude):
    """Absolute slack for trig critical-point tests at a given magnitude.

    Accepts a float or an ndarray of magnitudes; the formula is the
    shared definition used by both interval implementations in the
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


def libm_down(value: float) -> float:
    """Lower bound on the true value of a libm result ``value``.

    Pads by :data:`LIBM_REL` times ``|value|``, then one ulp; an infinite
    result (overflow) gets the one ulp only.
    """
    if value == _INF or value == -_INF:
        return next_down(value)
    return next_down(value - LIBM_REL * abs(value))


def libm_up(value: float) -> float:
    """Upper bound on the true value of a libm result (see :func:`libm_down`)."""
    if value == _INF or value == -_INF:
        return next_up(value)
    return next_up(value + LIBM_REL * abs(value))
