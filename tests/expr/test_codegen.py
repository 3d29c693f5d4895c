"""Generated straight-line code equals the tape interpreter bit for bit."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.expr import (
    Expr,
    absolute,
    atan,
    compile_expression,
    const,
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
from repro.expr.codegen import SourceBuilder, vector_field
from repro.perf import use_kernels

NAMES = ["x", "y"]
X, Y = var("x"), var("y")

_UNARY = (sin, cos, tan, tanh, sigmoid, exp, log, sqrt, absolute, atan)
_BINARY = (
    lambda a, b: a + b,
    lambda a, b: a - b,
    lambda a, b: a * b,
    lambda a, b: a / b,
    minimum,
    maximum,
)


@st.composite
def expressions(draw, depth=4) -> Expr:
    """Random expressions over the whole op zoo, constants included."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.integers(0, 2))
        if leaf < 2:
            return var(NAMES[leaf])
        return const(draw(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.5, 3.0])))
    kind = draw(st.integers(0, 3))
    child = expressions(depth=depth - 1)
    if kind == 0:
        return draw(st.sampled_from(_UNARY))(draw(child))
    if kind == 1:
        return -draw(child)
    if kind == 2:
        return draw(child) ** draw(st.integers(-3, 4))
    return draw(st.sampled_from(_BINARY))(draw(child), draw(child))


#: sample rows: ordinary values, zeros of both signs, and non-finite ones
POINTS = np.array(
    [
        [0.3, -1.2],
        [2.0, 0.5],
        [-0.7, 3.1],
        [0.0, -0.0],
        [1e300, -1e-300],
        [np.inf, 1.0],
        [-np.inf, np.nan],
        [np.nan, 2.0],
    ]
)


def _interpreted(tapes, points):
    with use_kernels(False):
        return np.stack([tape.eval_points(points) for tape in tapes], axis=1)


def _record(fn, *args):
    """``fn(*args)`` and the warnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def _same(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


class TestInterpreterParity:
    @given(st.lists(expressions(), min_size=1, max_size=3))
    def test_random_fields(self, exprs):
        tapes = [compile_expression(e, NAMES) for e in exprs]
        field = vector_field(tapes)
        expected, expected_warnings = _record(_interpreted, tapes, POINTS)
        got, got_warnings = _record(field, POINTS)
        assert _same(got, expected)
        assert got_warnings == expected_warnings

    @pytest.mark.parametrize(
        "expr",
        [
            X**3 - Y**-2,
            X / Y,
            log(X) + sqrt(Y),
            minimum(X, 0.5) * maximum(Y, -1.0),
            sigmoid(X) - atan(Y),
            tan(X) * cos(Y) + tanh(X) * exp(Y),
            absolute(X - Y),
            -(X * Y),
        ],
        ids=["pow", "div", "log-sqrt", "min-max", "sigmoid-atan", "trig-exp", "abs", "neg"],
    )
    def test_every_op(self, expr):
        (tape,) = tapes = [compile_expression(expr, NAMES)]
        rows = np.vstack([POINTS, np.random.default_rng(0).normal(size=(40, 2))])
        expected, expected_warnings = _record(_interpreted, tapes, rows)
        got, got_warnings = _record(vector_field(tapes), rows)
        assert _same(got, expected)
        assert got_warnings == expected_warnings

    @pytest.mark.parametrize(
        "expr",
        [const(2.0), sin(const(1.0)) * const(3.0), const(1.0) / const(0.0), const(-0.0)],
        ids=["const", "const-subtree", "const-div-zero", "negative-zero"],
    )
    def test_constant_components_are_columns(self, expr):
        tapes = [compile_expression(expr, NAMES), compile_expression(X + Y, NAMES)]
        for rows in (POINTS, POINTS[:1], POINTS[:0]):
            got = vector_field(tapes)(rows)
            assert got.shape == (len(rows), 2)
            assert _same(got, _interpreted(tapes, rows))

    def test_constant_subtree_feeding_variable_op(self):
        expr = X * (const(2.0) + const(0.5)) + exp(const(1.0)) / Y
        tapes = [compile_expression(expr, NAMES)]
        assert _same(vector_field(tapes)(POINTS), _interpreted(tapes, POINTS))

    def test_non_finite_constants_are_bound_not_printed(self):
        tapes = [compile_expression(X * math.inf + const(math.nan), NAMES)]
        field = vector_field(tapes)
        assert "inf" not in field.source and "nan" not in field.source
        assert _same(field(POINTS), _interpreted(tapes, POINTS))

    def test_strided_input(self):
        tapes = [compile_expression(sin(X) * Y + X**2, NAMES)]
        rows = np.random.default_rng(1).normal(size=(30, 4))[::3, 1:3]
        assert _same(vector_field(tapes)(rows), _interpreted(tapes, rows))


class TestSourceBuilder:
    def test_source_is_straight_line(self):
        field = vector_field([compile_expression(sin(X) + Y / X, NAMES)])
        body = field.source.splitlines()[1:]
        assert not any(line.strip().startswith(("for ", "while ", "if ")) for line in body)
        assert field.source.count("errstate") == 1  # the one division

    def test_columns_are_read_once(self):
        builder = SourceBuilder()
        a = builder.tape(compile_expression(X * Y, NAMES))
        b = builder.tape(compile_expression(X + 1.0, NAMES))
        field = builder.build(builder.stack([a, b]))
        assert field.source.count("X[:, 0]") == 1
        assert _same(field(POINTS), _interpreted(
            [compile_expression(X * Y, NAMES), compile_expression(X + 1.0, NAMES)], POINTS
        ))

    def test_bound_values_reach_the_function(self):
        builder = SourceBuilder()
        scale = builder.bind(np.array([2.0, -1.0]), prefix="w")
        field = builder.build(builder.assign(f"X * {scale}"))
        assert _same(field(np.ones((3, 2))), np.tile([2.0, -1.0], (3, 1)))
