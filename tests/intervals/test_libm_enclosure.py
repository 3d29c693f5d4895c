"""The scalar oracle's libm-backed endpoints enclose the true image.

``Interval.exp``/``log``/``tanh``/``sigmoid``/``atan`` and integer
powers take their endpoints from libm functions, which are not
correctly rounded.  Each point interval ``Interval.point(x).f()`` must
still contain the exact ``f(x)``.  The reference is computed with the standard library's
``decimal`` at 60 significant digits or more, far beyond any float's
53 bits, so a failure here is a float endpoint on the wrong side of the
true value, not reference error.

The grids mix linear, random and geometric points per function,
including subnormal and near-overflow magnitudes.
"""

from __future__ import annotations

import decimal
import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from repro.intervals import Interval

#: significant decimal digits of every reference value
DIGITS = 60


def _context(x: Decimal) -> decimal.Context:
    """A context keeping :data:`DIGITS` digits even after cancelling the
    ``1`` of ``1 - exp(-2|x|)`` for tiny ``x`` (``tanh``)."""
    return decimal.Context(
        prec=DIGITS + max(0, -x.adjusted()),
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
    )


def _in_context(func):
    """Run ``func(d)`` on the exact decimal value of a float, with every
    intermediate rounded to :func:`_context`'s precision."""

    def reference(x: float) -> Decimal:
        d = Decimal(x)  # exact
        with decimal.localcontext(_context(d)):
            return +func(d)

    return reference


@_in_context
def ref_exp(d: Decimal) -> Decimal:
    return d.exp()


@_in_context
def ref_log(d: Decimal) -> Decimal:
    return d.ln()


@_in_context
def ref_tanh(d: Decimal) -> Decimal:
    t = (-2 * abs(d)).exp()  # in (0, 1]: never overflows
    return ((1 - t) / (1 + t)).copy_sign(d)


@_in_context
def ref_sigmoid(d: Decimal) -> Decimal:
    if d >= 0:
        return 1 / (1 + (-d).exp())
    e = d.exp()
    return e / (1 + e)


@_in_context
def ref_atan(d: Decimal) -> Decimal:
    """``atan`` by argument halving, then the alternating Taylor series.

    ``atan(y) = 2 atan(y / (1 + sqrt(1 + y^2)))`` shrinks the argument
    until the series converges in a few dozen terms.
    """
    y = abs(d)
    doublings = 0
    while y > Decimal("1e-3"):
        y = y / (1 + (1 + y * y).sqrt())
        doublings += 1
    y_sq = y * y
    total, power, k = Decimal(0), y, 0
    tolerance = Decimal(10) ** (y.adjusted() - decimal.getcontext().prec - 5)
    while power > tolerance:
        term = power / (2 * k + 1)
        total = total - term if k % 2 else total + term
        power = power * y_sq
        k += 1
    return (total * 2**doublings).copy_sign(d)


def ref_pow(exponent: int):
    @_in_context
    def reference(d: Decimal) -> Decimal:
        return d**exponent

    return reference


def _geometric(lowest: float, highest: float, n: int) -> np.ndarray:
    ladder = np.geomspace(lowest, highest, n)
    return np.concatenate([-ladder, ladder])


def _grid(lo: float, hi: float, seed: int, *extra: np.ndarray) -> list[float]:
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [np.linspace(lo, hi, 2001), rng.uniform(lo, hi, 1000), *extra]
    )
    return sorted(set(points.tolist()))


# ``math.exp`` overflows above ~709.78; below ~-745.13 it returns 0.0.
EXP_GRID = _grid(-20.0, 20.0, 1, np.linspace(-745.0, 709.0, 1001),
                 _geometric(5e-324, 709.0, 300))
LOG_GRID = _grid(1e-6, 50.0, 2, np.geomspace(5e-324, 1.7e308, 600),
                 np.linspace(0.5, 2.0, 1001))
TANH_GRID = _grid(-4.0, 4.0, 3, _geometric(5e-324, 1e308, 300))
SIGMOID_GRID = _grid(-40.0, 40.0, 4, _geometric(5e-324, 1e308, 300))
ATAN_GRID = _grid(-10.0, 10.0, 5, _geometric(5e-324, 1e308, 300))
# |x| <= 1e60 keeps x**5 finite
POW_GRID = _grid(-10.0, 10.0, 6, _geometric(5e-324, 1e60, 300))

#: name -> (grid, image of a point interval, exact reference)
CASES = {
    "exp": (EXP_GRID, Interval.exp, ref_exp),
    "log": (LOG_GRID, Interval.log, ref_log),
    "tanh": (TANH_GRID, Interval.tanh, ref_tanh),
    "sigmoid": (SIGMOID_GRID, Interval.sigmoid, ref_sigmoid),
    "atan": (ATAN_GRID, Interval.atan, ref_atan),
    **{
        f"pow{n}": (POW_GRID, lambda x, n=n: x**n, ref_pow(n))
        for n in (2, 3, 5)
    },
}


class TestReferences:
    """The ``decimal`` references agree with ``math`` to float precision."""

    @pytest.mark.parametrize("x", [-3.0, -0.99, -1e-8, 0.0, 1e-300, 0.4, 2.5])
    def test_tanh_sigmoid_atan(self, x):
        assert float(ref_tanh(x)) == pytest.approx(math.tanh(x), rel=4e-16, abs=0)
        sigmoid = 1.0 / (1.0 + math.exp(-x))
        assert float(ref_sigmoid(x)) == pytest.approx(sigmoid, rel=4e-16)
        assert float(ref_atan(x)) == pytest.approx(math.atan(x), rel=4e-16, abs=0)

    def test_atan_limits(self):
        half_pi = Decimal("1.57079632679489661923132169163975144209858469968755")
        assert abs(ref_atan(1e308) - half_pi) < Decimal("1e-50")
        assert abs(4 * ref_atan(1.0) - 2 * half_pi) < Decimal("1e-50")


@pytest.mark.parametrize("name", sorted(CASES))
def test_point_image_encloses_reference(name):
    grid, image_of, reference = CASES[name]
    misses = []
    for x in grid:
        image = image_of(Interval.point(x))
        exact = reference(x)
        if not Decimal(image.lo) <= exact <= Decimal(image.hi):
            misses.append(x)
    assert not misses, (
        f"{name}: {len(misses)} of {len(grid)} point images miss the "
        f"true value, e.g. x = {misses[:5]}"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_padding_stays_a_few_ulps(name):
    """The enclosure is sound without being loose: every finite endpoint
    is within 64 ulps of the value it bounds."""
    grid, image_of, reference = CASES[name]
    for x in grid[:: max(1, len(grid) // 400)]:
        image = image_of(Interval.point(x))
        exact = float(reference(x))
        for end in (image.lo, image.hi):
            assert abs(end - exact) <= 64 * math.ulp(exact), (name, x, end, exact)


def test_infinite_results_get_one_ulp():
    """An infinite libm result is stepped one ulp inward or kept, never
    padded into NaN."""
    top = sys.float_info.max
    assert Interval(1.0, math.inf).exp().hi == math.inf
    assert Interval(math.inf, math.inf).log() == Interval(top, math.inf)
    assert Interval(-math.inf, -math.inf) ** 3 == Interval(-math.inf, -top)
