"""Compilation of expressions to flat evaluation tapes.

The δ-SAT solver evaluates the same expression over very many boxes.  A
:class:`CompiledExpression` flattens the DAG postorder into an instruction
tape once.  The tape is *value-numbered*: an instruction is keyed on its
op and operand slots, so a subterm that was built more than once (the
same neuron under every partial derivative of a Lie derivative) gets one
slot and is evaluated once.  The tape then evaluates:

* ``eval_points`` — vectorized numeric evaluation over ``(m,)`` arrays of
  sample points per variable (used for trace constraint generation and
  counterexample screening), through the tape's generated straight-line
  function (:mod:`repro.expr.codegen`); ``interpret_points`` walks the
  tape instead and is the reference the generated code matches bit for
  bit;
* ``eval_boxes`` — vectorized *interval* evaluation over batches of boxes,
  carrying ``(lo, hi)`` ndarray pairs through every instruction with sound
  outward widening.  One tape pass bounds the expression over hundreds of
  boxes simultaneously, which is what makes branch-and-prune tractable in
  pure Python even for thousand-neuron controllers.

The box semantics here mirror :class:`repro.intervals.Interval` rules
(including the trig range reduction) in vectorized form, padding every
inexact result by the oracle's libm rule; the property tests in
``tests/expr`` cross-check the two implementations.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

from ..errors import EvaluationError
from ..intervals import Box, Interval
from ..intervals.rounding import LIBM_REL as _REL
from ..intervals.rounding import TRIG_SLACK as _TRIG_SLACK
from .node import (
    Add,
    Const,
    Div,
    Expr,
    Max2,
    Min2,
    Mul,
    Neg,
    Pow,
    Sub,
    Unary,
    Var,
    postorder,
)

__all__ = ["CompiledExpression", "compile_expression"]

_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
# Outward widening applied after each inexact instruction, relative to
# magnitude: the scalar oracle's libm padding (8 eps), which dominates
# the rounding error of every IEEE op and of numpy's transcendental
# kernels (documented < 2 ulp).
_ABS = 8.0 * np.finfo(float).tiny
#: binary node type -> tape op
_BINARY_OPS = {Add: "add", Sub: "sub", Mul: "mul", Div: "div", Min2: "min", Max2: "max"}


class CompiledExpression:
    """An expression flattened to an instruction tape.

    Build with :func:`compile_expression`.  The variable order fixes the
    column layout expected by :meth:`eval_points` / :meth:`eval_boxes`.
    """

    def __init__(self, root: Expr, variable_names: Sequence[str]):
        self.root = root
        self.variable_names = list(variable_names)
        self._var_index = {name: i for i, name in enumerate(self.variable_names)}
        self._tape: list[tuple] = []
        self._constants: dict[int, float] = {}
        self._n_slots = 0
        self._n_nodes = 0
        self._result_slot = 0
        self._point_function = None
        self._build(root)

    # ------------------------------------------------------------------
    # Tape construction
    # ------------------------------------------------------------------
    def _build(self, root: Expr) -> None:
        # Value numbering: an instruction is keyed on its op and operand
        # slots, so a subterm that is built more than once (the same
        # neuron under every partial derivative, say) gets one slot and
        # is evaluated once.  Constants are keyed on their IEEE bits (so
        # -0.0 and 0.0 stay apart and a NaN matches itself), variables on
        # their column, powers on their exponent.  Commutative operands
        # are not reordered: x*y and y*x stay two instructions.
        slots: dict[int, int] = {}
        numbers: dict[tuple, int] = {}
        order = postorder(root)
        for node in order:
            instr = self._instruction(node, slots)
            key = instr
            if instr[0] == "const":
                key = ("const", struct.pack("<d", instr[1]))
            slot = numbers.get(key)
            if slot is None:
                slot = numbers[key] = len(numbers)
                self._tape.append((instr[0], slot, *instr[1:]))
                if instr[0] == "const":
                    self._constants[slot] = instr[1]
            slots[id(node)] = slot
        self._n_slots = len(numbers)
        self._n_nodes = len(order)
        self._result_slot = slots[id(root)]

    def _instruction(self, node: Expr, slots: dict[int, int]) -> tuple:
        """``node`` as ``(op, *operands)``, operands given as tape slots."""
        if isinstance(node, Const):
            return ("const", node.value)
        if isinstance(node, Var):
            index = self._var_index.get(node.name)
            if index is None:
                raise EvaluationError(
                    f"expression uses variable {node.name!r} not listed in "
                    f"{self.variable_names}"
                )
            return ("var", index)
        if isinstance(node, Neg):
            return ("neg", slots[id(node.child)])
        if isinstance(node, Pow):
            return ("pow", slots[id(node.base)], node.exponent)
        if isinstance(node, Unary):
            return (node.op, slots[id(node.child)])
        opname = _BINARY_OPS.get(type(node))
        if opname is None:  # pragma: no cover - node zoo is closed
            raise EvaluationError(f"unknown node type {type(node).__name__}")
        return (opname, slots[id(node.left)], slots[id(node.right)])

    def __len__(self) -> int:
        return len(self._tape)

    @property
    def instructions(self) -> tuple[tuple, ...]:
        """The flat instruction tape (read-only view).

        Each entry is ``(op, slot, *operands)``: ``("const", slot, value)``,
        ``("var", slot, var_index)``, ``("pow", slot, base_slot, exponent)``,
        unary ``(op, slot, child_slot)``, or binary
        ``(op, slot, left_slot, right_slot)``.  No two entries share
        ``op`` and operands (see :meth:`_build`).  The code generator
        (:mod:`repro.expr.codegen`) reads this tape instead of re-deriving
        its own flattening.
        """
        return tuple(self._tape)

    @property
    def n_slots(self) -> int:
        """Number of value slots the tape writes."""
        return self._n_slots

    @property
    def n_nodes(self) -> int:
        """Distinct expression nodes the tape was built from.

        ``len(postorder(root))``: the tape length before value numbering
        merged rebuilt subterms.
        """
        return self._n_nodes

    @property
    def result_slot(self) -> int:
        """Slot holding the root's value after a tape pass."""
        return self._result_slot

    def point_function(self):
        """The tape as one generated straight-line function (cached).

        ``F(X) -> (m,)`` over an ``(m, n_vars)`` array, built on first use
        by :class:`repro.expr.codegen.SourceBuilder` and bit-identical to
        the reference interpreter :meth:`interpret_points`.
        """
        if self._point_function is None:
            from .codegen import SourceBuilder  # codegen imports this module

            builder = SourceBuilder()
            self._point_function = builder.build(builder.tape(self))
        return self._point_function

    def __getstate__(self) -> dict:
        # Generated functions live in an ``exec`` namespace — process-local
        # state.  Drop it on pickling (workers rebuild it on first use).
        state = self.__dict__.copy()
        state["_point_function"] = None
        return state

    # ------------------------------------------------------------------
    # Vectorized numeric evaluation
    # ------------------------------------------------------------------
    def eval_points(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` of shape ``(m, n_vars)``; returns ``(m,)``.

        Runs the generated :meth:`point_function`.
        """
        return self.point_function()(self._check_points(points))

    def interpret_points(self, points: np.ndarray) -> np.ndarray:
        """:meth:`eval_points` by walking the tape: the reference semantics
        the generated :meth:`point_function` reproduces bit for bit."""
        points = self._check_points(points)
        m = points.shape[0]
        slots: list[np.ndarray | None] = [None] * self._n_slots
        for instr in self._tape:
            op, slot = instr[0], instr[1]
            if op == "const":
                slots[slot] = np.full(m, instr[2])
            elif op == "var":
                slots[slot] = points[:, instr[2]]
            else:
                slots[slot] = _numeric_op(op, instr, slots)
        return slots[self._result_slot]

    def _check_points(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[1] != len(self.variable_names):
            raise EvaluationError(
                f"points have {points.shape[1]} columns, expected "
                f"{len(self.variable_names)}"
            )
        return points

    def eval_point(self, point: Sequence[float]) -> float:
        """Evaluate at a single point vector."""
        return float(self.eval_points(np.asarray(point, dtype=float)[None, :])[0])

    # ------------------------------------------------------------------
    # Vectorized interval evaluation
    # ------------------------------------------------------------------
    def eval_boxes(self, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sound bounds over a batch of boxes.

        ``lower``/``upper`` have shape ``(m, n_vars)``; returns two ``(m,)``
        arrays bounding the expression on each box.  A constant slot is
        one ``np.full`` row shared as both bounds: no helper writes into
        its operands.
        """
        lower = np.atleast_2d(np.asarray(lower, dtype=float))
        upper = np.atleast_2d(np.asarray(upper, dtype=float))
        if lower.shape != upper.shape or lower.shape[1] != len(self.variable_names):
            raise EvaluationError(
                f"box arrays of shape {lower.shape}/{upper.shape} do not match "
                f"{len(self.variable_names)} variables"
            )
        m = lower.shape[0]
        constants = self._constants
        los: list[np.ndarray | None] = [None] * self._n_slots
        his: list[np.ndarray | None] = [None] * self._n_slots
        for instr in self._tape:
            op, slot = instr[0], instr[1]
            if op == "const":
                los[slot] = his[slot] = np.full(m, instr[2])
            elif op == "var":
                los[slot] = lower[:, instr[2]]
                his[slot] = upper[:, instr[2]]
            else:
                los[slot], his[slot] = _interval_op(op, instr, los, his, constants)
        return los[self._result_slot], his[self._result_slot]

    def eval_box(self, box: Box) -> Interval:
        """Sound interval bound over a single :class:`Box`."""
        arr = box.to_array()
        lo, hi = self.eval_boxes(arr[None, :, 0], arr[None, :, 1])
        return Interval(float(lo[0]), float(hi[0]))


def compile_expression(
    root: Expr, variable_names: Sequence[str]
) -> CompiledExpression:
    """Compile ``root`` against a fixed variable ordering."""
    return CompiledExpression(root, variable_names)


# ----------------------------------------------------------------------
# Numeric instruction semantics
# ----------------------------------------------------------------------
def _numeric_op(op: str, instr: tuple, slots: list) -> np.ndarray:
    if op in ("add", "sub", "mul", "div", "min", "max"):
        a = slots[instr[2]]
        b = slots[instr[3]]
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        if op == "div":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        if op == "min":
            return np.minimum(a, b)
        return np.maximum(a, b)
    a = slots[instr[2]]
    if op == "neg":
        return -a
    if op == "pow":
        return a ** instr[3]
    if op == "sin":
        return np.sin(a)
    if op == "cos":
        return np.cos(a)
    if op == "tan":
        return np.tan(a)
    if op == "tanh":
        return np.tanh(a)
    if op == "sigmoid":
        return _sigmoid_array(a)
    if op == "exp":
        return np.exp(a)
    if op == "log":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(a)
    if op == "sqrt":
        with np.errstate(invalid="ignore"):
            return np.sqrt(a)
    if op == "abs":
        return np.abs(a)
    if op == "atan":
        return np.arctan(a)
    raise EvaluationError(f"unknown numeric op {op!r}")


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# ----------------------------------------------------------------------
# Interval instruction semantics (vectorized over a batch of boxes)
# ----------------------------------------------------------------------
def _widen(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pad ``lo``/``hi`` outward *in place*: both must be fresh arrays.

    ``fmax(x, -inf)`` is ``x`` except that NaN becomes ``-inf`` (and
    ``fmin(x, inf)`` maps NaN to ``+inf``): widening never invalidates
    infinities or creates NaNs.
    """
    pad = np.abs(lo)
    pad *= _REL
    pad += _ABS
    lo -= pad
    np.fmax(lo, -np.inf, out=lo)
    pad = np.abs(hi, out=pad)
    pad *= _REL
    pad += _ABS
    hi += pad
    np.fmin(hi, np.inf, out=hi)
    return lo, hi


def _interval_op(op: str, instr: tuple, los: list, his: list, constants: dict):
    if op in ("add", "sub", "mul", "div", "min", "max"):
        alo, ahi = los[instr[2]], his[instr[2]]
        blo, bhi = los[instr[3]], his[instr[3]]
        if op == "add":
            return _widen(alo + blo, ahi + bhi)
        if op == "sub":
            return _widen(alo - bhi, ahi - blo)
        if op == "mul":
            if instr[3] in constants:
                return _widen(*_interval_scale(alo, ahi, constants[instr[3]]))
            if instr[2] in constants:
                return _widen(*_interval_scale(blo, bhi, constants[instr[2]]))
            return _widen(*_interval_mul(alo, ahi, blo, bhi))
        if op == "div":
            return _widen(*_interval_div(alo, ahi, blo, bhi))
        if op == "min":
            return np.minimum(alo, blo), np.minimum(ahi, bhi)
        return np.maximum(alo, blo), np.maximum(ahi, bhi)
    alo, ahi = los[instr[2]], his[instr[2]]
    if op == "neg":
        return -ahi, -alo
    if op == "pow":
        return _widen(*_interval_pow(alo, ahi, instr[3]))
    if op == "sin":
        return _interval_sin_cos(alo, ahi, peak_offset=_HALF_PI)
    if op == "cos":
        return _interval_sin_cos(alo, ahi, peak_offset=0.0)
    if op == "tan":
        return _interval_tan(alo, ahi)
    if op == "tanh":
        lo, hi = _widen(np.tanh(alo), np.tanh(ahi))
        return np.maximum(lo, -1.0), np.minimum(hi, 1.0)
    if op == "sigmoid":
        lo, hi = _widen(_sigmoid_array(alo), _sigmoid_array(ahi))
        return np.maximum(lo, 0.0), np.minimum(hi, 1.0)
    if op == "exp":
        with np.errstate(over="ignore"):
            lo, hi = _widen(np.exp(alo), np.exp(ahi))
        return np.maximum(lo, 0.0), hi
    if op == "log":
        return _interval_log(alo, ahi)
    if op == "sqrt":
        return _interval_sqrt(alo, ahi)
    if op == "abs":
        both = np.maximum(np.abs(alo), np.abs(ahi))
        crosses = (alo < 0.0) & (ahi > 0.0)
        lo = np.where(crosses, 0.0, np.minimum(np.abs(alo), np.abs(ahi)))
        return lo, both
    if op == "atan":
        return _widen(np.arctan(alo), np.arctan(ahi))
    raise EvaluationError(f"unknown interval op {op!r}")


def _interval_mul(alo, ahi, blo, bhi):
    with np.errstate(invalid="ignore"):
        p1 = alo * blo
        p2 = alo * bhi
        p3 = ahi * blo
        p4 = ahi * bhi
    # 0 * inf produces NaN; in interval algebra that product contributes 0.
    for p in (p1, p2, p3, p4):
        np.copyto(p, 0.0, where=np.isnan(p))
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return lo, hi


def _interval_scale(alo, ahi, c: float):
    """:func:`_interval_mul` by the point interval ``[c, c]``, bit for bit.

    With ``blo == bhi == c`` the four products pair up, and
    ``min(min(p, q), min(p, q)) == min(p, q)``: two products suffice.
    The operand order inside each product does not matter (IEEE
    multiplication commutes), so this also serves ``[c, c] * [b]``.
    """
    with np.errstate(invalid="ignore"):
        p = alo * c
        q = ahi * c
    for r in (p, q):
        np.copyto(r, 0.0, where=np.isnan(r))
    return np.minimum(p, q), np.maximum(p, q)


def _interval_div(alo, ahi, blo, bhi):
    # Reciprocal of [blo, bhi], whole-line where the denominator spans 0.
    spans_zero = (blo <= 0.0) & (bhi >= 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        rlo = np.where(spans_zero, -np.inf, 1.0 / np.where(spans_zero, 1.0, bhi))
        rhi = np.where(spans_zero, np.inf, 1.0 / np.where(spans_zero, 1.0, blo))
    return _interval_mul(alo, ahi, rlo, rhi)


def _interval_pow(alo, ahi, exponent: int):
    if exponent == 0:
        return np.ones_like(alo), np.ones_like(alo)
    if exponent < 0:
        plo, phi = _interval_pow(alo, ahi, -exponent)
        return _interval_div(np.ones_like(alo), np.ones_like(alo), plo, phi)
    lo_p = alo**float(exponent)
    hi_p = ahi**float(exponent)
    if exponent % 2 == 1:
        return lo_p, hi_p
    crosses = (alo <= 0.0) & (ahi >= 0.0)
    lo = np.where(crosses, 0.0, np.minimum(lo_p, hi_p))
    hi = np.maximum(lo_p, hi_p)
    return lo, hi


def _interval_sqrt(alo, ahi):
    clipped_lo = np.maximum(alo, 0.0)
    clipped_hi = np.maximum(ahi, 0.0)
    with np.errstate(invalid="ignore"):
        lo, hi = _widen(np.sqrt(clipped_lo), np.sqrt(clipped_hi))
    lo = np.maximum(lo, 0.0)
    # Boxes entirely below the domain yield an empty image; mark with NaN->inf
    # ordering that pruning logic treats as "no satisfying point".
    empty = ahi < 0.0
    lo = np.where(empty, np.inf, lo)
    hi = np.where(empty, -np.inf, hi)
    return lo, hi


def _interval_log(alo, ahi):
    with np.errstate(divide="ignore", invalid="ignore"):
        lo = np.where(alo <= 0.0, -np.inf, np.log(np.maximum(alo, np.finfo(float).tiny)))
        hi = np.where(ahi <= 0.0, -np.inf, np.log(np.maximum(ahi, np.finfo(float).tiny)))
    lo, hi = _widen(lo, hi)
    empty = ahi <= 0.0
    lo = np.where(empty, np.inf, lo)
    hi = np.where(empty, -np.inf, hi)
    return lo, hi


def _interval_sin_cos(alo, ahi, peak_offset: float):
    width = ahi - alo
    f = np.sin if peak_offset == _HALF_PI else np.cos
    v_lo = f(alo)
    v_hi = f(ahi)
    lo, hi = _widen(np.minimum(v_lo, v_hi), np.maximum(v_lo, v_hi))
    slack = _TRIG_SLACK * (1.0 + np.maximum(np.abs(alo), np.abs(ahi)))
    # Does the box contain a maximum (offset + 2 pi k) or minimum?
    hi = np.where(_has_critical(alo, ahi, peak_offset, slack), 1.0, hi)
    lo = np.where(_has_critical(alo, ahi, peak_offset + math.pi, slack), -1.0, lo)
    wide = ~np.isfinite(width) | (width >= _TWO_PI)
    lo = np.where(wide, -1.0, np.maximum(lo, -1.0))
    hi = np.where(wide, 1.0, np.minimum(hi, 1.0))
    return lo, hi


def _has_critical(alo, ahi, offset: float, slack):
    with np.errstate(invalid="ignore"):
        k = np.ceil((alo - slack - offset) / _TWO_PI)
        point = offset + _TWO_PI * k
        result = point <= ahi + slack
    return np.where(np.isfinite(alo) & np.isfinite(ahi), result, True)


def _interval_tan(alo, ahi):
    width = ahi - alo
    # Pole at pi/2 + k pi inside the box -> whole line.
    slack = _TRIG_SLACK * (1.0 + np.maximum(np.abs(alo), np.abs(ahi)))
    with np.errstate(invalid="ignore"):
        k = np.ceil((alo - slack - _HALF_PI) / math.pi)
        pole = _HALF_PI + math.pi * k
        has_pole = pole <= ahi + slack
    wide = ~np.isfinite(width) | (width >= math.pi) | has_pole
    t_lo = np.tan(alo)
    t_hi = np.tan(ahi)
    lo, hi = _widen(t_lo, t_hi)
    lo = np.where(wide, -np.inf, lo)
    hi = np.where(wide, np.inf, hi)
    return lo, hi
