"""Simplifier correctness: semantics preserved, identities applied."""

from __future__ import annotations

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expr import (
    Const,
    Var,
    absolute,
    compile_expression,
    cos,
    evaluate,
    exp,
    log,
    maximum,
    minimum,
    simplify,
    sin,
    sqrt,
    structurally_equal,
    tanh,
    var,
)

X, Y = var("x"), var("y")


def is_const(e, value=None):
    return isinstance(e, Const) and (value is None or e.value == value)


class TestIdentities:
    def test_add_zero(self):
        assert simplify(X + 0.0) is X
        assert simplify(0.0 + X) is X

    def test_sub_zero(self):
        assert simplify(X - 0.0) is X

    def test_zero_minus(self):
        e = simplify(0.0 - X)
        assert evaluate(e, {"x": 3.0}) == -3.0

    def test_mul_one(self):
        assert simplify(X * 1.0) is X
        assert simplify(1.0 * X) is X

    def test_mul_zero(self):
        assert is_const(simplify(X * 0.0), 0.0)
        assert is_const(simplify(0.0 * X), 0.0)

    def test_div_one(self):
        assert simplify(X / 1.0) is X

    def test_pow_zero_one(self):
        assert is_const(simplify(X**0), 1.0)
        assert simplify(X**1) is X

    def test_double_negation(self):
        assert simplify(-(-X)) is X

    def test_constant_folding_arithmetic(self):
        e = (Const(2) + Const(3)) * (Const(10) - Const(4))
        assert is_const(simplify(e), 30.0)

    def test_constant_folding_unary(self):
        # only abs folds; a transcendental of a constant is kept, even
        # where libm happens to be exact, for the interval semantics
        assert is_const(simplify(absolute(Const(-2.5))), 2.5)
        for build in (sin, exp, tanh, cos):
            folded = simplify(build(Const(0.0)))
            assert not is_const(folded)
            assert evaluate(folded, {}) == evaluate(build(Const(0.0)), {})

    def test_constant_folding_respects_domain(self):
        # log(-1) must not fold into a NaN constant.
        e = simplify(log(Const(-1.0)))
        assert not is_const(e)
        e2 = simplify(sqrt(Const(-1.0)))
        assert not is_const(e2)

    def test_min_max_folding(self):
        assert is_const(simplify(minimum(Const(2), Const(5))), 2.0)
        assert is_const(simplify(maximum(Const(2), Const(5))), 5.0)

    def test_idempotent(self):
        e = sin(X) * 1.0 + 0.0 * Y + (X + 0.0)
        once = simplify(e)
        twice = simplify(once)
        assert structurally_equal(once, twice)


#: tanh(-0.96) to 60 significant digits (``decimal``)
TANH_MINUS_096 = Fraction(
    Decimal("-0.744276867361837327596765080347085936228572144173813710850490")
)


class TestExactFolding:
    """Constant folds happen only where the float is the exact real
    result, so a folded constant never excludes the true value."""

    def test_transcendental_of_constant_is_kept(self):
        # libm's tanh(-0.96) lies 1.3 ulps above the true value; kept as
        # a node, the tape's padded interval semantics encloses it
        e = simplify(tanh(Const(-0.96)))
        assert not is_const(e)
        lo, hi = compile_expression(e + X, ["x"]).eval_boxes(
            np.zeros((1, 1)), np.zeros((1, 1))
        )
        assert Fraction(lo[0]) <= TANH_MINUS_096 <= Fraction(hi[0])

    def test_inexact_sum_is_kept(self):
        e = simplify(Const(0.1) + Const(0.2))
        assert not is_const(e)
        assert evaluate(e, {}) == 0.1 + 0.2

    @pytest.mark.parametrize(
        "expr, value",
        [
            (Const(0.5) + Const(0.25), 0.75),
            (Const(1.0) - Const(2.0**-60), None),
            (Const(3.0) * Const(7.0), 21.0),
            (Const(1.0) / Const(4.0), 0.25),
            (Const(1.5) ** 3, 3.375),
            (-Const(0.1), -0.1),
        ],
        ids=["add", "sub-inexact", "mul", "div", "pow", "neg"],
    )
    def test_exact_folds_only(self, expr, value):
        e = simplify(expr)
        if value is None:
            assert not is_const(e)
        else:
            assert is_const(e, value)

    @pytest.mark.parametrize(
        "expr",
        [Const(1.0) / Const(3.0), Const(0.1) ** 2, Const(1e200) * Const(1e200),
         Const(0.0) ** -1, Const(math.inf) + Const(1.0)],
        ids=["div", "pow", "overflow", "zero-division", "non-finite"],
    )
    def test_inexact_or_undefined_folds_are_kept(self, expr):
        assert not is_const(simplify(expr))

    def test_every_fold_is_exact(self):
        rng = random.Random(0)
        for _ in range(200):
            a, b = rng.uniform(-4, 4), rng.choice([0.5, 3.0, rng.uniform(-4, 4)])
            for expr, exact in (
                (Const(a) + Const(b), Fraction(a) + Fraction(b)),
                (Const(a) * Const(b), Fraction(a) * Fraction(b)),
                (Const(a) / Const(b), Fraction(a) / Fraction(b)),
            ):
                e = simplify(expr)
                if is_const(e):
                    assert Fraction(e.value) == exact


class TestStructuralEquality:
    def test_equal_trees(self):
        assert structurally_equal(X + Y, var("x") + var("y"))

    def test_different_shape(self):
        assert not structurally_equal(X + Y, X * Y)

    def test_different_constant(self):
        assert not structurally_equal(X + 1.0, X + 2.0)

    def test_different_var(self):
        assert not structurally_equal(X, Y)

    def test_different_pow(self):
        assert not structurally_equal(X**2, X**3)

    def test_different_unary_op(self):
        assert not structurally_equal(sin(X), cos(X))


POINT = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestSemanticsPreserved:
    @given(x=POINT, y=POINT)
    def test_random_expression_semantics(self, x, y):
        candidates = [
            (X + 0.0) * (1.0 * Y) - 0.0 * sin(X),
            sin(X * 1.0) + cos(Y + 0.0),
            (X**1) * (Y**0) + tanh(X - 0.0),
            -(-(X * Y)) + Const(2.0) * Const(3.0),
            minimum(X, Y) + maximum(X, Y),  # = x + y
        ]
        env = {"x": x, "y": y}
        for e in candidates:
            assert evaluate(simplify(e), env) == pytest.approx(
                evaluate(e, env), rel=1e-12, abs=1e-12
            )
