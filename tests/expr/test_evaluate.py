"""Numeric and interval evaluation tests, including cross-semantics properties."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.expr import (
    absolute,
    atan,
    cos,
    dot,
    evaluate,
    evaluate_box,
    exp,
    log,
    maximum,
    minimum,
    sigmoid,
    sin,
    sqrt,
    tan,
    tanh,
    var,
)
from repro.intervals import Box, Interval

X, Y = var("x"), var("y")


class TestNumeric:
    def test_arithmetic(self):
        e = (X + 2) * (Y - 1) / 2
        assert evaluate(e, {"x": 2.0, "y": 3.0}) == pytest.approx(4.0)

    def test_pow_and_neg(self):
        e = -(X**3)
        assert evaluate(e, {"x": 2.0}) == pytest.approx(-8.0)

    @pytest.mark.parametrize(
        "builder,ref",
        [
            (sin, math.sin),
            (cos, math.cos),
            (tan, math.tan),
            (tanh, math.tanh),
            (exp, math.exp),
            (atan, math.atan),
        ],
    )
    def test_unary(self, builder, ref):
        assert evaluate(builder(X), {"x": 0.7}) == pytest.approx(ref(0.7))

    def test_sigmoid(self):
        assert evaluate(sigmoid(X), {"x": 0.0}) == pytest.approx(0.5)

    def test_log_sqrt(self):
        assert evaluate(log(X), {"x": math.e}) == pytest.approx(1.0)
        assert evaluate(sqrt(X), {"x": 9.0}) == pytest.approx(3.0)

    def test_abs_min_max(self):
        assert evaluate(absolute(X), {"x": -4.0}) == 4.0
        assert evaluate(minimum(X, Y), {"x": 1.0, "y": 2.0}) == 1.0
        assert evaluate(maximum(X, Y), {"x": 1.0, "y": 2.0}) == 2.0

    def test_unbound_variable_raises(self):
        with pytest.raises(EvaluationError):
            evaluate(X + Y, {"x": 1.0})

    def test_dot_helper(self):
        e = dot([2.0, 0.0, -1.0], [X, Y, X])
        assert evaluate(e, {"x": 3.0, "y": 100.0}) == pytest.approx(3.0)


class TestIntervalSemantics:
    def test_mixed_env(self):
        result = evaluate(X + Y, {"x": Interval(0, 1), "y": 2.0})
        assert isinstance(result, Interval)
        assert result.contains(2.5)

    def test_evaluate_box(self):
        e = X * X + Y
        box = Box.from_bounds([-1, 0], [1, 1])
        result = evaluate_box(e, box, ["x", "y"])
        assert result.contains(0.0)
        assert result.contains(2.0)

    def test_evaluate_box_dimension_check(self):
        with pytest.raises(EvaluationError):
            evaluate_box(X, Box.from_bounds([0], [1]), ["x", "y"])

    @given(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    def test_interval_contains_numeric(self, x0, y0, wx, wy):
        """Interval evaluation must enclose numeric evaluation at any
        point of the box — for a representative nonlinear expression."""
        e = sin(X) * tanh(Y) + X * X - Y / (2 + cos(X))
        ix = Interval(x0, x0 + wx)
        iy = Interval(y0, y0 + wy)
        enclosure = evaluate(e, {"x": ix, "y": iy})
        for tx in (0.0, 0.5, 1.0):
            for ty in (0.0, 0.5, 1.0):
                px = x0 + tx * wx
                py = y0 + ty * wy
                value = evaluate(e, {"x": px, "y": py})
                assert enclosure.contains(value)
