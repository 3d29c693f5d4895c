"""Tests for the dual-semantics (float or interval) helpers."""

from __future__ import annotations

import math

import pytest

from repro.intervals import (
    Interval,
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


class TestScalarDispatch:
    """The i* helpers must agree with math.* on floats."""

    @pytest.mark.parametrize(
        "func,ref,x",
        [
            (isin, math.sin, 0.7),
            (icos, math.cos, 0.7),
            (itan, math.tan, 0.7),
            (itanh, math.tanh, 0.7),
            (iexp, math.exp, 0.7),
            (ilog, math.log, 0.7),
            (isqrt, math.sqrt, 0.7),
            (iabs, abs, -0.7),
            (iatan, math.atan, 0.7),
        ],
    )
    def test_float_semantics(self, func, ref, x):
        assert func(x) == pytest.approx(ref(x))

    def test_sigmoid_float(self):
        assert isigmoid(0.0) == pytest.approx(0.5)
        assert isigmoid(-30.0) == pytest.approx(math.exp(-30) / (1 + math.exp(-30)))

    def test_pow_float(self):
        assert ipow(2.0, 3) == pytest.approx(8.0)

    def test_min_max_float(self):
        assert imin(1.0, 2.0) == 1.0
        assert imax(1.0, 2.0) == 2.0

    def test_interval_dispatch(self):
        assert isinstance(isin(Interval(0, 1)), Interval)
        assert isinstance(imin(Interval(0, 1), 0.5), Interval)
        assert isinstance(imax(0.5, Interval(0, 1)), Interval)

    def test_min_interval_semantics(self):
        result = imin(Interval(0, 5), Interval(3, 4))
        assert result == Interval(0, 4)
