"""Compiled tapes against their reference evaluators, bit for bit.

Points run through the generated straight-line function and must equal
the tape interpreter (:meth:`CompiledExpression.interpret_points`).
Boxes run through the value-numbered tape and must equal the same
expression flattened one slot per node (the ``node_identity_tape``
fixture).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.expr import (
    absolute,
    atan,
    compile_expression,
    cos,
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

X, Y = var("x"), var("y")
NAMES = ["x", "y"]

#: every tape op appears in at least one of these
EXPRESSIONS = [
    X * X + Y * Y - 1.0,
    2.5 * X - Y / 3.0 + 7.0,
    X * Y + X / Y,
    minimum(X, Y) + maximum(X, 2.0 * Y),
    -(X**3) + Y**2 - X ** (-2),
    sin(X) + cos(Y) + tan(0.3 * X),
    tanh(X) + sigmoid(Y) + atan(X * Y),
    exp(0.5 * X) + log(Y + 10.0) + sqrt(Y + 10.0) + absolute(X),
    (1.0 + 2.0) * X + (3.0 * 4.0),  # constant-folded subexpressions
]


def _frontier(rng, m):
    lo = rng.uniform(-2.0, 2.0, (m, 2))
    hi = lo + rng.exponential(0.7, (m, 2))
    return lo, hi


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=[str(i) for i in range(len(EXPRESSIONS))])
class TestBitIdentity:
    def test_eval_points(self, expr, rng):
        tape = compile_expression(expr, NAMES)
        points = rng.uniform(-2.0, 2.0, (64, 2))
        np.testing.assert_array_equal(tape.interpret_points(points), tape.eval_points(points))

    def test_eval_boxes(self, expr, rng, node_identity_tape):
        tape = compile_expression(expr, NAMES)
        lo, hi = _frontier(rng, 41)
        ref_lo, ref_hi = node_identity_tape(expr, NAMES).eval_boxes(lo, hi)
        got_lo, got_hi = tape.eval_boxes(lo, hi)
        np.testing.assert_array_equal(ref_lo, got_lo)
        np.testing.assert_array_equal(ref_hi, got_hi)


class TestPlanForm:
    def test_const_root(self, node_identity_tape):
        from repro.expr import const

        for expr in (const(2.0), sin(var("x")) * 0.0 + 2.0):
            t = compile_expression(expr, ["x"])
            reference = node_identity_tape(expr, ["x"])
            pts = np.zeros((5, 1))
            lo = np.full((5, 1), -1.0)
            hi = np.ones((5, 1))
            got_p = t.eval_points(pts)
            assert got_p.shape == (5,)
            np.testing.assert_array_equal(t.interpret_points(pts), got_p)
            for a, b in zip(reference.eval_boxes(lo, hi), t.eval_boxes(lo, hi)):
                assert b.shape == (5,)
                np.testing.assert_array_equal(a, b)
