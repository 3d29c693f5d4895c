"""Value-numbered tapes: each distinct subterm is evaluated once.

A tape keys every instruction on its op and operand slots, so
structurally equal subterms share one slot however they were built.
Sharing must not change a single bit: the reference is the rule the
tapes used before, one slot per expression node object, evaluated with
the plain four-product multiplication (the ``node_identity_tape``
fixture).
"""

from __future__ import annotations

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.barrier import condition5_subproblems
from repro.barrier.templates import QuadraticTemplate
from repro.expr import (
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
from repro.expr.compile import _interval_mul, _interval_scale, _widen
from repro.expr.node import postorder

NAMES = ["x", "y"]
X, Y = var("x"), var("y")

#: constants whose bits matter: signed zeros, infinities, NaN
CONSTANTS = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -2.5, 0.5]
SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e-310, 1e308, -1e308])

_UNARY = {
    "sin": sin, "cos": cos, "tan": tan, "tanh": tanh, "sigmoid": sigmoid,
    "exp": exp, "log": log, "sqrt": sqrt, "abs": absolute, "atan": atan,
}
_BINARY = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "min": minimum,
    "max": maximum,
}


@st.composite
def recipes(draw, depth=3):
    """A nested-tuple description of an expression (built by :func:`build`)."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return ("var", draw(st.sampled_from(NAMES)))
        return ("const", draw(st.sampled_from(CONSTANTS)))
    kind = draw(st.integers(0, 3))
    child = recipes(depth=depth - 1)
    if kind == 0:
        return ("unary", draw(st.sampled_from(sorted(_UNARY))), draw(child))
    if kind == 1:
        return ("neg", draw(child))
    if kind == 2:
        return ("pow", draw(child), draw(st.integers(-2, 3)))
    return ("binary", draw(st.sampled_from(sorted(_BINARY))), draw(child), draw(child))


def build(recipe, shared: dict | None = None):
    """Fresh nodes for ``recipe``; with ``shared``, equal recipes reuse one object."""
    if shared is not None and recipe in shared:
        return shared[recipe]
    kind = recipe[0]
    if kind == "var":
        node = var(recipe[1])
    elif kind == "const":
        node = const(recipe[1])
    elif kind == "unary":
        node = _UNARY[recipe[1]](build(recipe[2], shared))
    elif kind == "neg":
        node = -build(recipe[1], shared)
    elif kind == "pow":
        node = build(recipe[1], shared) ** recipe[2]
    else:
        node = _BINARY[recipe[1]](build(recipe[2], shared), build(recipe[3], shared))
    if shared is not None:
        shared[recipe] = node
    return node


@st.composite
def expressions(draw):
    """Sums of products of a few subterms, each use either sharing one
    node object or rebuilding the subterm from scratch."""
    parts = draw(st.lists(recipes(), min_size=1, max_size=3))
    shared: dict = {}
    uses = draw(st.lists(st.tuples(st.sampled_from(range(len(parts))), st.booleans()),
                         min_size=2, max_size=6))
    terms = [build(parts[i], shared if share else None) for i, share in uses]
    root = terms[0]
    for term in terms[1:]:
        root = root * term if draw(st.booleans()) else root + term
    return root


#: box rows with signed zeros, infinite ends and degenerate widths
LOWER = np.array([[-1.0, 0.5], [0.0, -0.0], [-np.inf, 1.0], [2.0, -3.0], [-0.0, -np.inf],
                  [1e300, -1e-300], [-2.0, -2.0]])
UPPER = np.array([[1.0, 0.5], [0.0, 0.0], [0.5, np.inf], [2.0, 3.0], [np.inf, -1.0],
                  [np.inf, 1e-300], [2.0, 2.0]])
POINTS = np.vstack([LOWER, UPPER, [[np.nan, 1.0], [0.3, -1.2]]])


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestReferenceParity:
    @given(expr=expressions())
    def test_points_and_boxes_match_the_node_identity_tape(self, node_identity_tape, expr):
        with np.errstate(all="ignore"):
            tape = compile_expression(expr, NAMES)
            reference = node_identity_tape(expr, NAMES)
            assert tape.n_nodes == len(reference)
            assert len(tape) <= len(reference)
            expected = reference.interpret_points(POINTS)
            assert _same_bytes(tape.interpret_points(POINTS), expected)
            assert _same_bytes(tape.eval_points(POINTS), expected)
            for got, want in zip(tape.eval_boxes(LOWER, UPPER),
                                 reference.eval_boxes(LOWER, UPPER)):
                assert _same_bytes(got, want)

    def test_rebuilt_subterms_share_one_slot(self):
        expr = tanh(2.0 * X + Y) * X + tanh(2.0 * X + Y) * Y
        tape = compile_expression(expr, NAMES)
        ops = Counter(instr[0] for instr in tape.instructions)
        assert ops["tanh"] == 1 and ops["var"] == 2 and ops["const"] == 1
        assert tape.n_nodes == len(postorder(expr)) > len(tape)

    def test_constants_are_keyed_on_their_bits(self):
        nan = math.nan
        expr = (X + 0.0) * (X + -0.0) + const(nan) * const(nan) - const(-nan)
        tape = compile_expression(expr, ["x"])
        consts = [instr[2] for instr in tape.instructions if instr[0] == "const"]
        assert len(consts) == 4  # 0.0, -0.0, one NaN and the NaN of the other sign
        zeros = sorted(math.copysign(1.0, c) for c in consts if c == 0.0)
        nans = sorted(math.copysign(1.0, c) for c in consts if math.isnan(c))
        assert zeros == nans == [-1.0, 1.0]

    def test_commutative_operands_are_not_reordered(self):
        tape = compile_expression(X * Y + Y * X, NAMES)
        assert sum(instr[0] == "mul" for instr in tape.instructions) == 2

    def test_slots_are_dense(self):
        tape = compile_expression(sin(X) * sin(X) + sin(X) ** 2, NAMES)
        assert [instr[1] for instr in tape.instructions] == list(range(tape.n_slots))


def test_dubins_condition5_tape_holds_no_two_equal_instructions():
    """Regression: the paper case study's Lie-derivative tape is
    value-numbered (before, every rebuilt neuron had its own slots)."""
    problem = api.get_scenario("dubins").problem()
    template = QuadraticTemplate(problem.system.dimension)
    w_expr = template.build_expression(
        np.linspace(1.0, 2.0, template.basis_size), problem.state_names
    )
    (constraint,) = condition5_subproblems(w_expr, problem, 1e-6)[0].constraints
    tape = constraint.compiled(problem.state_names)
    keys = [
        ("const", struct.pack("<d", instr[2])) if instr[0] == "const"
        else (instr[0], *instr[2:])
        for instr in tape.instructions
    ]
    assert len(set(keys)) == len(keys)
    assert len(tape) < tape.n_nodes


class TestHelpers:
    @pytest.mark.parametrize("c", SPECIAL, ids=[repr(float(c)) for c in SPECIAL])
    def test_scale_equals_the_four_product_rule(self, c):
        lo, hi = np.meshgrid(SPECIAL, SPECIAL)
        alo, ahi = np.minimum(lo, hi).ravel(), np.maximum(lo, hi).ravel()
        cs = np.full_like(alo, c)
        with np.errstate(over="ignore"):
            got = _interval_scale(alo, ahi, c)
            # [c, c] on either side: each product commutes bit for bit.
            for want in (_interval_mul(alo, ahi, cs, cs), _interval_mul(cs, cs, alo, ahi)):
                assert all(_same_bytes(g, w) for g, w in zip(got, want))

    def test_widen_in_place_equals_isnan_where(self):
        lo, hi = np.meshgrid(SPECIAL, SPECIAL)
        lo, hi = lo.ravel(), hi.ravel()
        with np.errstate(invalid="ignore", over="ignore"):
            want_lo = lo - (8.0 * np.finfo(float).eps * np.abs(lo) + 8.0 * np.finfo(float).tiny)
            want_hi = hi + (8.0 * np.finfo(float).eps * np.abs(hi) + 8.0 * np.finfo(float).tiny)
            want = (np.where(np.isnan(want_lo), -np.inf, want_lo),
                    np.where(np.isnan(want_hi), np.inf, want_hi))
            got_lo, got_hi = lo.copy(), hi.copy()
            got = _widen(got_lo, got_hi)
        assert got[0] is got_lo and got[1] is got_hi  # padded in place
        for g, w in zip(got, want):
            assert _same_bytes(g, w)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_constant_operand_mul_in_a_tape(self, node_identity_tape, side):
        expr = 3.0 * X if side == "left" else X * -0.0
        tape = compile_expression(expr, ["x"])
        reference = node_identity_tape(expr, ["x"])
        lower, upper = LOWER[:, :1], UPPER[:, :1]
        with np.errstate(all="ignore"):
            got, want = tape.eval_boxes(lower, upper), reference.eval_boxes(lower, upper)
        assert all(_same_bytes(g, w) for g, w in zip(got, want))
