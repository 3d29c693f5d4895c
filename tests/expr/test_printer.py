"""Printer tests: infix readability."""

from __future__ import annotations

from repro.expr import (
    maximum,
    minimum,
    sin,
    tanh,
    to_infix,
    var,
)

X, Y = var("x"), var("y")


class TestInfix:
    def test_leaves(self):
        assert to_infix(X) == "x"
        assert to_infix(var("theta")) == "theta"

    def test_integer_constants(self):
        assert to_infix(X + 2.0) == "x + 2"

    def test_negative_constant_parenthesized(self):
        text = to_infix(X * -2.0)
        assert "(-2)" in text

    def test_precedence_mul_over_add(self):
        assert to_infix(X + Y * X) == "x + y*x"
        assert to_infix((X + Y) * X) == "(x + y)*x"

    def test_sub_right_assoc_parens(self):
        assert to_infix(X - (Y - X)) == "x - (y - x)"

    def test_div_denominator_parens(self):
        assert to_infix(X / (Y * X)) == "x/(y*x)"

    def test_pow(self):
        assert to_infix(X**2) == "x^2"
        assert to_infix((X + Y) ** 2) == "(x + y)^2"

    def test_neg(self):
        assert to_infix(-X) == "-x"
        assert to_infix(-(X + Y)) == "-(x + y)"

    def test_unary_functions(self):
        assert to_infix(sin(X)) == "sin(x)"
        assert to_infix(tanh(X + Y)) == "tanh(x + y)"

    def test_min_max(self):
        assert to_infix(minimum(X, Y)) == "min(x, y)"
        assert to_infix(maximum(X, Y)) == "max(x, y)"

    def test_truncation(self):
        long = X
        for _ in range(50):
            long = long + X
        text = to_infix(long, max_length=30)
        assert len(text) == 30
        assert text.endswith("...")
